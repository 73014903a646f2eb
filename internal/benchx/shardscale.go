package benchx

import (
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/fanout"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
)

// This file is the shard-scaling experiment: the same GDPR workloads,
// run against the subject-sharded deployment at growing shard counts
// with concurrent clients. The single-lock deployment serializes behind
// one mutex whatever the core count; the sharded one spreads subjects
// (and therefore records, policies, logs and retention queues) across
// independent locks, so completion time drops as shards and cores grow.

// DefaultShardSweep is the shard-count sweep of the scaling experiment.
func DefaultShardSweep() []int { return []int{1, 4, 16} }

// LoadShardedGDPR populates a sharded DB with the GDPRBench dataset
// using `clients` concurrent loaders.
func LoadShardedGDPR(db *compliance.ShardedDB, records int, seed int64, clients int) (time.Duration, error) {
	gen, err := gdprbench.NewGenerator(gdprbench.Customer, records, seed)
	if err != nil {
		return 0, err
	}
	// TTLs far in the future: retention is not what these runs measure.
	load := gen.Load(1<<40, 1<<41)
	if clients <= 0 {
		clients = 1
	}
	chunk := (len(load) + clients - 1) / clients
	start := time.Now()
	err = fanout.Run(clients, clients, func(c int) error {
		lo := min(c*chunk, len(load))
		hi := min(lo+chunk, len(load))
		for _, rec := range load[lo:hi] {
			if err := db.Create(rec); err != nil {
				return err
			}
		}
		return nil
	})
	return time.Since(start), err
}

// RunShardedGDPRBench loads the dataset into a sharded deployment and
// executes the workload with `clients` concurrent clients, each client
// replaying a contiguous partition of the op stream. clients <= 0
// defaults to the shard count.
func RunShardedGDPRBench(profile compliance.Profile, w gdprbench.WorkloadName,
	records, txns, shards, clients int, seed int64) (RunResult, error) {
	if clients <= 0 {
		clients = shards
	}
	db, err := compliance.OpenShardedWorkers(profile, shards, clients)
	if err != nil {
		return RunResult{}, err
	}
	defer db.Close()
	loadTime, err := LoadShardedGDPR(db, records, seed, clients)
	if err != nil {
		return RunResult{}, err
	}
	gen, err := gdprbench.NewGenerator(w, records, seed+7)
	if err != nil {
		return RunResult{}, err
	}
	ops := gen.Ops(txns)
	e, p := loadgen.ActorFor(w)
	res := RunResult{
		Label:    fmt.Sprintf("%s/shards-%d", profile.Name, shards),
		Workload: string(w),
		Records:  records,
		Txns:     txns,
		LoadTime: loadTime,
	}
	chunk := (len(ops) + clients - 1) / clients
	start := time.Now()
	err = fanout.Run(clients, clients, func(c int) error {
		lo := min(c*chunk, len(ops))
		hi := min(lo+chunk, len(ops))
		for _, op := range ops[lo:hi] {
			if err := loadgen.ApplyOp(db, op, e, p, scanLimit); !loadgen.Tolerable(err) {
				return fmt.Errorf("benchx: sharded op %v on %q: %w", op.Kind, op.Key, err)
			}
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	c := db.Counters()
	res.Denied, res.NotFound = c.Denials, c.NotFound
	return res, nil
}

// RunShardedErasureBatch loads the dataset and measures a batched
// right-to-be-forgotten stream: every record is erased through
// EraseBatch, which partitions the keys per shard and erases the shard
// batches in parallel.
func RunShardedErasureBatch(profile compliance.Profile, records, shards, clients int, seed int64) (RunResult, error) {
	if clients <= 0 {
		clients = shards
	}
	db, err := compliance.OpenShardedWorkers(profile, shards, clients)
	if err != nil {
		return RunResult{}, err
	}
	defer db.Close()
	loadTime, err := LoadShardedGDPR(db, records, seed, clients)
	if err != nil {
		return RunResult{}, err
	}
	keys := make([]string, records)
	for i := range keys {
		keys[i] = gdprbench.KeyFor(i)
	}
	res := RunResult{
		Label:    fmt.Sprintf("%s/shards-%d", profile.Name, shards),
		Workload: "erase-batch",
		Records:  records,
		Txns:     records,
		LoadTime: loadTime,
	}
	start := time.Now()
	n, err := db.EraseBatch(compliance.EntitySystem, keys)
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	if n != records {
		return res, fmt.Errorf("benchx: erased %d of %d records", n, records)
	}
	return res, nil
}

// RunShardedAudit loads the dataset with full model tracking and
// measures a global compliance audit, which checks every shard's model
// mirror in parallel and merges the violations.
func RunShardedAudit(profile compliance.Profile, records, shards, workers int, seed int64) (RunResult, error) {
	profile.TrackModel = true
	if workers <= 0 {
		workers = shards
	}
	db, err := compliance.OpenShardedWorkers(profile, shards, workers)
	if err != nil {
		return RunResult{}, err
	}
	defer db.Close()
	loadTime, err := LoadShardedGDPR(db, records, seed, workers)
	if err != nil {
		return RunResult{}, err
	}
	res := RunResult{
		Label:    fmt.Sprintf("%s/shards-%d", profile.Name, shards),
		Workload: "audit",
		Records:  records,
		Txns:     1,
		LoadTime: loadTime,
	}
	start := time.Now()
	rep, err := db.Audit(core.DefaultGDPRInvariants())
	if err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	if !rep.Compliant() {
		return res, fmt.Errorf("benchx: freshly loaded deployment has %d violations", len(rep.Violations))
	}
	return res, nil
}

// ShardScaling sweeps shard counts and measures the three cross-shard
// workloads the sharding is for: concurrent WCus completion, batched
// right-to-be-forgotten erasure, and the global audit. On a multi-core
// machine all three improve monotonically with the shard count; with
// one shard the figure reproduces the single-lock baseline.
func ShardScaling(s Scale, shardCounts []int, clients int) (Figure, error) {
	if len(shardCounts) == 0 {
		shardCounts = DefaultShardSweep()
	}
	fig := Figure{
		Title:  "Shard scaling: completion time vs shard count (subject-sharded engine)",
		XLabel: "shards",
	}
	profile := compliance.PBase()
	wcus := Series{Label: "WCus-concurrent"}
	erase := Series{Label: "erase-batch"}
	audit := Series{Label: "audit"}
	for _, n := range shardCounts {
		r, err := RunShardedGDPRBench(profile, gdprbench.Customer, s.Records, s.Txns, n, clients, s.Seed)
		if err != nil {
			return fig, err
		}
		wcus.Points = append(wcus.Points, Point{X: float64(n), Y: r.Elapsed})
		re, err := RunShardedErasureBatch(profile, s.Records, n, clients, s.Seed)
		if err != nil {
			return fig, err
		}
		erase.Points = append(erase.Points, Point{X: float64(n), Y: re.Elapsed})
		ra, err := RunShardedAudit(profile, s.Records, n, clients, s.Seed)
		if err != nil {
			return fig, err
		}
		audit.Points = append(audit.Points, Point{X: float64(n), Y: ra.Elapsed})
	}
	fig.Series = append(fig.Series, wcus, erase, audit)
	return fig, nil
}
