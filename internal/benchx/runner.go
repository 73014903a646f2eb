// Package benchx is the experiment harness: it drives the compliance
// profiles and storage-level erasure strategies with the paper's
// workloads and regenerates every table and figure of the evaluation
// (§4): Table 1, Figure 3, Figures 4(a)-(c) and Table 2.
//
// Absolute numbers differ from the paper (their substrate was a real
// PostgreSQL on a Ryzen testbed; ours is an in-process simulator), but
// the comparisons the paper draws — who wins, by what factor, how costs
// scale — are reproduced.
package benchx

import (
	"context"
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
	"github.com/datacase/datacase/internal/ycsb"
)

// RunResult is the outcome of one workload execution.
type RunResult struct {
	Label    string
	Workload string
	Records  int
	Txns     int
	// Elapsed is the completion time (the paper's metric).
	Elapsed time.Duration
	// LoadTime is the initial data load, reported separately.
	LoadTime time.Duration
	// Denied and NotFound count tolerated per-op failures.
	Denied   uint64
	NotFound uint64
}

// String renders one result row.
func (r RunResult) String() string {
	return fmt.Sprintf("%-22s %-7s records=%-7d txns=%-6d completion=%-12s load=%s",
		r.Label, r.Workload, r.Records, r.Txns, r.Elapsed.Round(time.Microsecond), r.LoadTime.Round(time.Millisecond))
}

// openLoaded opens a shards-wide deployment of the profile and preloads
// the GDPRBench dataset through `clients` api.Local clients. It returns
// the deployment (the caller closes it), the workload's seeded stream of
// txns operations, and the result row labelled so far.
func openLoaded(profile compliance.Profile, w gdprbench.WorkloadName, records, txns, shards, clients int,
	seed int64) (*compliance.ShardedDB, []gdprbench.Op, RunResult, error) {
	res := RunResult{Label: profile.Name, Workload: string(w), Records: records, Txns: txns}
	db, err := compliance.OpenShardedWorkers(profile, shards, clients)
	if err != nil {
		return nil, nil, res, err
	}
	ops, loadTime, err := loadgen.Prepare(context.TODO(), loadgen.Local(db), w, records, txns, clients, seed)
	if err != nil {
		db.Close()
		return nil, nil, res, err
	}
	res.LoadTime = loadTime
	return db, ops, res, nil
}

// drive replays ops as the workload's actor through `clients` api.Local
// clients of db and completes the result row.
func drive(db *compliance.ShardedDB, clients int, ops []gdprbench.Op, w gdprbench.WorkloadName,
	res RunResult) (RunResult, error) {
	m, err := loadgen.Drive(context.TODO(), loadgen.Local(db), clients, ops, loadgen.ActorFor(w))
	res.Elapsed = time.Duration(m.ElapsedSeconds * float64(time.Second))
	res.Denied, res.NotFound = m.Denied, m.NotFound
	return res, err
}

// RunGDPRBench loads the dataset and executes txns operations of the
// workload against a fresh one-shard deployment of the profile.
func RunGDPRBench(profile compliance.Profile, w gdprbench.WorkloadName, records, txns int, seed int64) (RunResult, error) {
	res, err := RunShardedGDPRBench(profile, w, records, txns, 1, 1, seed)
	res.Label = profile.Name
	return res, err
}

// RunYCSB loads the GDPR dataset and executes a YCSB workload (the
// paper's non-GDPR baseline) against a fresh one-shard deployment of
// the profile: YCSB's reads and updates are the controller's data reads
// and data updates.
func RunYCSB(profile compliance.Profile, w ycsb.WorkloadName, records, txns int, seed int64) (RunResult, error) {
	db, _, res, err := openLoaded(profile, gdprbench.Controller, records, 0, 1, 1, seed)
	if err != nil {
		return res, err
	}
	defer db.Close()
	res.Workload, res.Txns = string(w), txns
	gen, err := ycsb.NewGenerator(w, records, 64, seed+7)
	if err != nil {
		return res, err
	}
	ops := make([]gdprbench.Op, txns)
	for i, op := range gen.Ops(txns) {
		ops[i] = gdprbench.Op{Kind: gdprbench.OpReadData, Key: op.Key}
		if op.Kind == ycsb.OpUpdate {
			ops[i] = gdprbench.Op{Kind: gdprbench.OpUpdateData, Key: op.Key, Payload: op.Payload}
		}
	}
	return drive(db, 1, ops, gdprbench.Controller, res)
}

// SpaceAfterRun loads and runs a workload, then returns the Table-2
// space report of the deployment.
func SpaceAfterRun(profile compliance.Profile, w gdprbench.WorkloadName, records, txns int, seed int64) (compliance.SpaceReport, error) {
	db, ops, res, err := openLoaded(profile, w, records, txns, 1, 1, seed)
	if err != nil {
		return compliance.SpaceReport{}, err
	}
	defer db.Close()
	if _, err := drive(db, 1, ops, w, res); err != nil {
		return compliance.SpaceReport{}, err
	}
	return db.Space(), nil
}
