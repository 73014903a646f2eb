// Command bench is the repository's benchmark: one run of one workload
// prints every end-to-end metric (or, traced, every per-layer metric)
// by name and unit, after checking that the program's outputs were
// correct. See README.md in this directory and BENCHMARK.json at the
// repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: wire-customer, local-read, local-ingest or rights-repl")
		seed      = flag.Int64("seed", 1, "seed of the generated dataset and op stream")
		seconds   = flag.Int("seconds", 15, "target length of the timed phase; fixes the op count (ops = frozen rate x seconds)")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced, prints the end-to-end metrics")
		traceOut  = flag.String("trace-out", "", "traced run: also write every span to this file as JSON lines")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of -runs runs of every workload and compare their medians against BENCHMARK.json's bounds")
		runs      = flag.Int("runs", 10, "selfcheck: runs per set (seeds 1..runs)")
	)
	flag.Parse()
	if *selfcheck {
		if err := selfCheck(*runs, *seconds, *workload); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	sp, err := specByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	fmt.Println(envStamp(sp, *seed, *seconds))
	out, err := runWorkload(sp, *seed, *seconds, *trace == 1, *traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, f := range out.facts {
		fmt.Println(f)
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "failed op:", f)
	}
	if len(out.violations) > 0 {
		// A wrong output withholds the metrics: a number measured on a
		// program that is not doing its job compares with nothing.
		for _, v := range out.violations {
			fmt.Fprintln(os.Stderr, "incorrect:", v)
		}
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		metrics[m.name] = value{out.values[m.name], m.unit}
		fmt.Printf("%-40s %16.4f %s\n", m.name, out.values[m.name], m.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// envStamp describes where and on what a result was measured. Stall and
// ablation knobs are asserted zero at deploy time; the stamp records
// that the assertion is in force.
func envStamp(sp *spec, seed int64, seconds int) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	prof := sp.profile()
	backend := prof.Backend
	if backend == "" {
		backend = "heap"
	}
	return fmt.Sprintf("env go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s workload=%s seed=%d seconds=%d "+
		"profile=%s backend=%s clients=%d stall_and_ablation_knobs=zero",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit,
		sp.name, seed, seconds, prof.Name, backend, nClients)
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
