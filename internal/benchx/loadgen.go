package benchx

import (
	"fmt"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
)

// This file bridges the closed-loop load drivers into the experiment
// harness: the in-process client-count sweep (BENCH_loadgen.json) and
// the wire-connection fleet through the gateway (BENCH_network.json).

// DefaultClientSweep is the client-count sweep of the loadgen
// experiment, mirroring the shard sweep.
func DefaultClientSweep() []int { return []int{1, 4, 16} }

// ClientSweepUpTo returns the default sweep truncated at maxClients,
// always including maxClients itself (e.g. 8 -> [1 4 8]).
func ClientSweepUpTo(maxClients int) []int {
	if maxClients <= 0 {
		return DefaultClientSweep()
	}
	var out []int
	for _, c := range DefaultClientSweep() {
		if c < maxClients {
			out = append(out, c)
		}
	}
	return append(out, maxClients)
}

// LoadgenSweep runs the closed-loop driver at each client count against
// a sharded deployment and collects the per-run results.
func LoadgenSweep(profile compliance.Profile, w gdprbench.WorkloadName,
	s Scale, shards int, clientCounts []int) ([]loadgen.Result, error) {
	if len(clientCounts) == 0 {
		clientCounts = DefaultClientSweep()
	}
	results := make([]loadgen.Result, 0, len(clientCounts))
	for _, clients := range clientCounts {
		res, err := loadgen.Run(loadgen.Config{
			Profile:  profile,
			Workload: w,
			Records:  s.Records,
			Ops:      s.Txns,
			Clients:  clients,
			Shards:   shards,
			Seed:     s.Seed,
		})
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// loadgenParams sizes the loadgen experiment beyond the Scale.
type loadgenParams struct {
	workloads []gdprbench.WorkloadName
	shards    int
	// walCompare adds, per workload, the per-append-locking WAL
	// baseline at the sweep's top client count, isolating the commit
	// protocol.
	walCompare bool
}

var loadgenSpec = spec[loadgenParams, loadgen.Result]{
	name: "loadgen",
	desc: "closed-loop concurrent load driver; writes BENCH_loadgen.json",
	presets: presets[loadgenParams]{
		"default": {workloads: []gdprbench.WorkloadName{gdprbench.Controller}, shards: 16},
		"ci":      {workloads: gdprbench.Workloads(), shards: 4, walCompare: true},
	},
	run: func(s Scale, p loadgenParams) ([]loadgen.Result, error) {
		sweep := ClientSweepUpTo(s.Clients)
		var results []loadgen.Result
		for _, w := range p.workloads {
			rs, err := LoadgenSweep(compliance.PBase(), w, s, p.shards, sweep)
			if err != nil {
				return results, err
			}
			results = append(results, rs...)
			if !p.walCompare {
				continue
			}
			profile := compliance.PBase()
			profile.SerialWAL = true
			serial, err := LoadgenSweep(profile, w, s, p.shards, sweep[len(sweep)-1:])
			if err != nil {
				return results, err
			}
			results = append(results, serial...)
		}
		return results, nil
	},
	figure: LoadgenFigure,
}

// LoadgenFigure renders sweep results as a completion-time-vs-clients
// figure (the repo's figures plot durations; throughput and latency
// quantiles live in the JSON report).
func LoadgenFigure(results []loadgen.Result) Figure {
	return seriesFigure("Loadgen: closed-loop completion time vs concurrent clients", "clients",
		len(results), func(i int) (string, float64, float64) {
			r := results[i]
			label := r.Workload + "/" + r.Profile
			if r.SerialWAL {
				label += "/serial-wal"
			}
			return label, float64(r.Clients), r.ElapsedSeconds
		})
}

// networkParams sizes the network experiment: one workload replayed by
// a swept fleet of wire connections through a self-hosted
// servers+gateway topology.
type networkParams struct {
	workload                               gdprbench.WorkloadName
	conns                                  []int
	records, ops, servers, shardsPerServer int
}

var networkSpec = spec[networkParams, loadgen.NetworkResult]{
	name: "network",
	desc: "end-to-end network soak: a wire-connection fleet through the subject-routing gateway; writes BENCH_network.json",
	presets: presets[networkParams]{
		"default": {workload: gdprbench.Controller, conns: []int{64, 256, 1024},
			records: 2000, ops: 4000, servers: 2, shardsPerServer: 4},
		"ci": {workload: gdprbench.Controller, conns: []int{16, 64},
			records: 600, ops: 2000, servers: 2, shardsPerServer: 2},
	},
	run: func(s Scale, p networkParams) ([]loadgen.NetworkResult, error) {
		return loadgen.NetworkSweep(loadgen.NetworkConfig{
			Workload: p.workload, Records: p.records, Ops: p.ops,
			Servers: p.servers, ShardsPerServer: p.shardsPerServer, Seed: s.Seed,
		}, p.conns)
	},
	check: func(rows []loadgen.NetworkResult) error {
		for i, r := range rows {
			// The experiment measures client -> gateway -> servers over
			// loopback; a row from anywhere else is not this experiment.
			if !r.SelfHosted {
				return fmt.Errorf("result %d did not run through the self-hosted wire topology", i)
			}
		}
		// One row per swept connection count.
		return missing(rows, func(loadgen.NetworkResult) string { return "conns" },
			func(r loadgen.NetworkResult) int { return r.Conns }, nil)
	},
}
