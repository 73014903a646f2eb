// Command datacase-soak measures the serving stack end to end: a fleet
// of closed-loop wire connections replays a GDPRBench workload through
// a subject-routing gateway and reports end-to-end latency quantiles
// (p50/p95/p99) and throughput per connection count, as a
// machine-readable BENCH_network.json in the shared report envelope.
//
// By default it self-hosts the topology in-process — -servers wire
// servers of -shards shards each behind one gateway — so a single
// command produces the full measurement:
//
//	datacase-soak -conns 64,256,1024 -records 2000 -ops 20000
//
// Point it at a running deployment instead with -gateway (the only
// binary that does; datacase-bench -exp network always self-hosts):
//
//	datacase-soak -gateway 127.0.0.1:7000 -conns 256
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/datacase/datacase"
)

func main() {
	var (
		gateway  = flag.String("gateway", "", "gateway address (empty = self-host servers+gateway in-process)")
		connsCSV = flag.String("conns", "64,256,1024", "comma-separated connection-count sweep")
		records  = flag.Int("records", 2000, "preloaded records")
		ops      = flag.Int("ops", 4000, "total operations per sweep point")
		servers  = flag.Int("servers", 2, "self-hosted server count")
		shards   = flag.Int("shards", 4, "shards per self-hosted server")
		workload = flag.String("workload", "wcon", "GDPRBench workload: wcon|wpro|wcus")
		seed     = flag.Int64("seed", 1, "workload seed")
		out      = flag.String("out", "BENCH_network.json", "JSON output path")
	)
	flag.Parse()

	w, err := datacase.ParseWorkload(*workload)
	fail(err)
	conns, err := datacase.ParseIntList(*connsCSV)
	fail(err)

	where := fmt.Sprintf("self-hosted %d servers × %d shards", *servers, *shards)
	if *gateway != "" {
		where = "gateway " + *gateway
	}
	fmt.Printf("datacase-soak: %s, workload=%s, records=%d, ops=%d, conns=%v\n",
		where, w, *records, *ops, conns)

	results, err := datacase.NetworkSweep(datacase.NetworkConfig{
		Workload: w, Records: *records, Ops: *ops,
		Servers: *servers, ShardsPerServer: *shards,
		GatewayAddr: *gateway, Seed: *seed,
	}, conns)
	fail(err)
	for _, r := range results {
		fail(r.Validate())
		fmt.Printf("  %s\n", r)
	}
	fail(datacase.WriteBenchReport(*out, datacase.BenchReport{Benchmark: "network", Results: results}, ""))
	fmt.Printf("wrote %s (%d results)\n", *out, len(results))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "datacase-soak:", err)
		os.Exit(1)
	}
}
