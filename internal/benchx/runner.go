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
	"errors"
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
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

// scanLimit bounds how many rows a read-by-meta query touches (the
// paper's metadata reads return one subject's records, not the table).
const scanLimit = 16

// LoadGDPR populates a compliance DB with the GDPRBench dataset.
func LoadGDPR(db *compliance.DB, records int, seed int64) (time.Duration, error) {
	gen, err := gdprbench.NewGenerator(gdprbench.Customer, records, seed)
	if err != nil {
		return 0, err
	}
	// TTLs far in the future: retention is not what these runs measure.
	load := gen.Load(1<<40, 1<<41)
	start := time.Now()
	for _, rec := range load {
		if err := db.Create(rec); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// RunGDPRBench loads the dataset and executes txns operations of the
// workload against a fresh DB for the profile.
func RunGDPRBench(profile compliance.Profile, w gdprbench.WorkloadName, records, txns int, seed int64) (RunResult, error) {
	db, err := compliance.Open(profile)
	if err != nil {
		return RunResult{}, err
	}
	defer db.Close()
	loadTime, err := LoadGDPR(db, records, seed)
	if err != nil {
		return RunResult{}, err
	}
	gen, err := gdprbench.NewGenerator(w, records, seed+7)
	if err != nil {
		return RunResult{}, err
	}
	ops := gen.Ops(txns)
	entity, purpose := loadgen.ActorFor(w)
	res := RunResult{
		Label:    profile.Name,
		Workload: string(w),
		Records:  records,
		Txns:     txns,
		LoadTime: loadTime,
	}
	start := time.Now()
	if err := executeGDPROps(db, ops, entity, purpose); err != nil {
		return res, err
	}
	res.Elapsed = time.Since(start)
	c := db.Counters()
	res.Denied, res.NotFound = c.Denials, c.NotFound
	return res, nil
}

// executeGDPROps drives the op stream, tolerating not-found (deleted
// keys) and denials, as the benchmark does.
func executeGDPROps(db *compliance.DB, ops []gdprbench.Op, e core.EntityID, p core.Purpose) error {
	for _, op := range ops {
		var err error
		switch op.Kind {
		case gdprbench.OpCreate:
			err = db.Create(gdprbench.Record{
				Key:        op.Key,
				Subject:    "person-created",
				Payload:    op.Payload,
				Purposes:   []string{op.Purpose},
				TTL:        1 << 40,
				Processors: []string{"processor-a"},
			})
		case gdprbench.OpReadData:
			_, err = db.ReadData(e, p, op.Key)
		case gdprbench.OpUpdateData:
			err = db.UpdateData(e, p, op.Key, op.Payload)
		case gdprbench.OpDeleteData:
			err = db.DeleteData(e, op.Key)
		case gdprbench.OpReadMeta:
			_, err = db.ReadMeta(e, p, op.Key)
		case gdprbench.OpUpdateMeta:
			err = db.UpdateMeta(e, p, op.Key, op.Purpose, op.NewTTL)
		case gdprbench.OpReadByMeta:
			_, err = db.ReadByMeta(e, p, op.Purpose, scanLimit)
		}
		if err != nil && !tolerable(err) {
			return fmt.Errorf("benchx: op %v on %q: %w", op.Kind, op.Key, err)
		}
	}
	return nil
}

// RunYCSB loads the GDPR dataset and executes a YCSB workload (the
// paper's non-GDPR baseline) against a fresh DB for the profile.
func RunYCSB(profile compliance.Profile, w ycsb.WorkloadName, records, txns int, seed int64) (RunResult, error) {
	db, err := compliance.Open(profile)
	if err != nil {
		return RunResult{}, err
	}
	defer db.Close()
	loadTime, err := LoadGDPR(db, records, seed)
	if err != nil {
		return RunResult{}, err
	}
	gen, err := ycsb.NewGenerator(w, records, 64, seed+7)
	if err != nil {
		return RunResult{}, err
	}
	ops := gen.Ops(txns)
	res := RunResult{
		Label:    profile.Name,
		Workload: string(w),
		Records:  records,
		Txns:     txns,
		LoadTime: loadTime,
	}
	e := compliance.EntityController
	p := compliance.PurposeService
	start := time.Now()
	for _, op := range ops {
		var err error
		switch op.Kind {
		case ycsb.OpRead:
			_, err = db.ReadData(e, p, op.Key)
		case ycsb.OpUpdate:
			err = db.UpdateData(e, p, op.Key, op.Payload)
		}
		if err != nil && !tolerable(err) {
			return res, fmt.Errorf("benchx: ycsb %v on %q: %w", op.Kind, op.Key, err)
		}
	}
	res.Elapsed = time.Since(start)
	c := db.Counters()
	res.Denied, res.NotFound = c.Denials, c.NotFound
	return res, nil
}

// SpaceAfterRun loads and runs a workload, then returns the Table-2
// space report of the deployment.
func SpaceAfterRun(profile compliance.Profile, w gdprbench.WorkloadName, records, txns int, seed int64) (compliance.SpaceReport, error) {
	db, err := compliance.Open(profile)
	if err != nil {
		return compliance.SpaceReport{}, err
	}
	defer db.Close()
	if _, err := LoadGDPR(db, records, seed); err != nil {
		return compliance.SpaceReport{}, err
	}
	gen, err := gdprbench.NewGenerator(w, records, seed+7)
	if err != nil {
		return compliance.SpaceReport{}, err
	}
	entity, purpose := loadgen.ActorFor(w)
	if err := executeGDPROps(db, gen.Ops(txns), entity, purpose); err != nil {
		return compliance.SpaceReport{}, err
	}
	return db.Space(), nil
}

func tolerable(err error) bool {
	return err == nil || errors.Is(err, compliance.ErrNotFound) || errors.Is(err, compliance.ErrDenied)
}
