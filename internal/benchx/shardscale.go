package benchx

import (
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/gdprbench"
)

// This file is the shard-scaling experiment: the same GDPR workloads,
// run against the subject-sharded deployment at growing shard counts
// with concurrent clients. The single-lock deployment serializes behind
// one mutex whatever the core count; the sharded one spreads subjects
// (and therefore records, policies, logs and retention queues) across
// independent locks, so completion time drops as shards and cores grow.

// DefaultShardSweep is the shard-count sweep of the scaling experiment.
func DefaultShardSweep() []int { return []int{1, 4, 16} }

// RunShardedGDPRBench loads the dataset into a sharded deployment and
// executes the workload with `clients` concurrent clients, each client
// replaying a contiguous partition of the op stream. clients <= 0
// defaults to the shard count.
func RunShardedGDPRBench(profile compliance.Profile, w gdprbench.WorkloadName,
	records, txns, shards, clients int, seed int64) (RunResult, error) {
	if clients <= 0 {
		clients = shards
	}
	db, ops, res, err := openLoaded(profile, w, records, txns, shards, clients, seed)
	if err != nil {
		return res, err
	}
	defer db.Close()
	res.Label = fmt.Sprintf("%s/shards-%d", profile.Name, shards)
	return drive(db, clients, ops, w, res)
}

// RunShardedErasureBatch loads the dataset and measures a batched
// right-to-be-forgotten stream: every record is erased through
// EraseBatch, which partitions the keys per shard and erases the shard
// batches in parallel.
func RunShardedErasureBatch(profile compliance.Profile, records, shards, clients int, seed int64) (RunResult, error) {
	if clients <= 0 {
		clients = shards
	}
	db, _, res, err := openLoaded(profile, gdprbench.Customer, records, 0, shards, clients, seed)
	if err != nil {
		return res, err
	}
	defer db.Close()
	keys := make([]string, records)
	for i := range keys {
		keys[i] = gdprbench.KeyFor(i)
	}
	res.Label = fmt.Sprintf("%s/shards-%d", profile.Name, shards)
	res.Workload, res.Txns = "erase-batch", records
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
	db, _, res, err := openLoaded(profile, gdprbench.Customer, records, 0, shards, workers, seed)
	if err != nil {
		return res, err
	}
	defer db.Close()
	res.Label = fmt.Sprintf("%s/shards-%d", profile.Name, shards)
	res.Workload, res.Txns = "audit", 1
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
