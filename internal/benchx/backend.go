package benchx

import (
	"fmt"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/erasure"
	"github.com/datacase/datacase/internal/gdprbench"
)

// The backend experiment: the paper's Figure 4(a) contrast — heap
// DELETE+VACUUM vs LSM tombstones — run on the full compliance stack
// instead of raw storage targets, now that Profile.Backend makes the
// engine pluggable. Three parts, all emitted as BENCH_backend.json:
//
//  1. WCus completion time per backend over a transaction sweep (the
//     Figure 4(a) series shape, policy checks, sealing and audit
//     logging included).
//  2. Table 1 conformance rows measured on each backend: the grounded
//     erasure interpretations must exhibit their declared IR/II/Inv
//     characteristics whatever the engine.
//  3. An erase-physicality check per backend: after EraseSubject and a
//     bounded operation window, a forensic scan of the subject's bytes
//     must come back clean (vacuum mechanics on the heap, purge
//     obligations on the LSM) and erasure.Verify must pass for every
//     erased key.

// BackendResult is one (backend, txns) point of the WCus sweep.
type BackendResult struct {
	Backend string `json:"backend"`
	Profile string `json:"profile"`
	Records int    `json:"records"`
	Txns    int    `json:"txns"`
	// CompletionSeconds / LoadSeconds are the paper's metric split.
	CompletionSeconds float64 `json:"completion_seconds"`
	LoadSeconds       float64 `json:"load_seconds"`
}

func (r BackendResult) String() string {
	return fmt.Sprintf("backend %-4s %s: records=%d txns=%d completion=%.4fs",
		r.Backend, r.Profile, r.Records, r.Txns, r.CompletionSeconds)
}

// Validate sanity-checks one sweep point.
func (r BackendResult) Validate() error {
	switch {
	case r.Backend != compliance.BackendHeap && r.Backend != compliance.BackendLSM:
		return fmt.Errorf("backend: unknown backend %q", r.Backend)
	case r.Records <= 0 || r.Txns <= 0:
		return fmt.Errorf("backend: empty run (records=%d txns=%d)", r.Records, r.Txns)
	case r.CompletionSeconds <= 0:
		return fmt.Errorf("backend: non-positive completion time %f", r.CompletionSeconds)
	}
	return nil
}

// BackendTable1Row is one measured Table-1 conformance row on one
// backend.
type BackendTable1Row struct {
	Backend        string `json:"backend"`
	Interpretation string `json:"interpretation"`
	IllegalReads   bool   `json:"illegal_reads"`
	IllegalInfer   bool   `json:"illegal_inference"`
	Invertible     bool   `json:"invertible"`
	Sanitized      bool   `json:"sanitized"`
	Conforms       bool   `json:"conforms"`
}

// BackendEraseCheck is the erase-physicality evidence for one backend.
type BackendEraseCheck struct {
	Backend string `json:"backend"`
	// SubjectRecords is how many records the erased subject owned.
	SubjectRecords int `json:"subject_records"`
	// OpsToClean is how many operations ran after the erasure before
	// the forensic scan came back clean (the observed purge window).
	OpsToClean int `json:"ops_to_clean"`
	// ForensicClean: no subject bytes anywhere in the engine
	// (memtable, runs, pages — shadowed versions included).
	ForensicClean bool `json:"forensic_clean"`
	// VerifyOK: erasure.Verify passed for every erased key (no zombie
	// record, no resurrectable WAL tail).
	VerifyOK bool `json:"verify_ok"`
	// PurgesRegistered / PurgesDischarged are the engine's obligation
	// counters (zero on the heap).
	PurgesRegistered uint64 `json:"purges_registered"`
	PurgesDischarged uint64 `json:"purges_discharged"`
}

func (c BackendEraseCheck) String() string {
	return fmt.Sprintf("erase-check %-4s: %d records erased, clean after %d ops (forensic=%v verify=%v purges=%d/%d)",
		c.Backend, c.SubjectRecords, c.OpsToClean, c.ForensicClean, c.VerifyOK,
		c.PurgesDischarged, c.PurgesRegistered)
}

// Validate fails unless the erasure is physically demonstrated.
func (c BackendEraseCheck) Validate() error {
	switch {
	case c.SubjectRecords <= 0:
		return fmt.Errorf("backend: erase check erased nothing")
	case !c.ForensicClean:
		return fmt.Errorf("backend: %s still holds subject bytes after the purge window", c.Backend)
	case !c.VerifyOK:
		return fmt.Errorf("backend: %s failed erasure.Verify", c.Backend)
	case c.Backend == compliance.BackendLSM && c.PurgesDischarged == 0:
		return fmt.Errorf("backend: lsm discharged no purge obligations")
	}
	return nil
}

// Backends returns the two storage backends in figure order.
func Backends() []string {
	return []string{compliance.BackendHeap, compliance.BackendLSM}
}

// backendProfile grounds P_Base on the given backend, in the
// paper-baseline configuration (the sweep reproduces Figure 4(a)'s
// shape; see paperProfiles). The erasure grounding differs by
// construction: DELETE+VACUUM on the heap, tombstones with erase-aware
// compaction on the LSM.
func backendProfile(backend string) compliance.Profile {
	p := compliance.PBase().PaperBaseline()
	p.Backend = backend
	return p
}

// RunBackendComparison runs all three parts at the given scale and
// sweep divisor (the Fig4a 10K-70K transaction sweep ÷ factor). The
// report's Results are []BackendResult.
func RunBackendComparison(s Scale, factor int) (Report, error) {
	rep := Report{Benchmark: "backend"}
	var results []BackendResult
	for _, backend := range Backends() {
		p := backendProfile(backend)
		for _, txns := range fig4aSweep(factor) {
			r, err := RunGDPRBench(p, gdprbench.Customer, s.Records, txns, s.Seed)
			if err != nil {
				return rep, fmt.Errorf("backend %s txns=%d: %w", backend, txns, err)
			}
			results = append(results, BackendResult{
				Backend: backend, Profile: p.Name, Records: s.Records, Txns: txns,
				CompletionSeconds: r.Elapsed.Seconds(),
				LoadSeconds:       r.LoadTime.Seconds(),
			})
		}
		rows, err := Table1On(backend)
		if err != nil {
			return rep, fmt.Errorf("backend %s table1: %w", backend, err)
		}
		for _, row := range rows {
			rep.Table1 = append(rep.Table1, BackendTable1Row{
				Backend:        backend,
				Interpretation: row.Interpretation.String(),
				IllegalReads:   row.Measured.IllegalReads,
				IllegalInfer:   row.Measured.IllegalInference,
				Invertible:     row.Measured.Invertible,
				Sanitized:      row.Measured.Sanitized,
				Conforms:       row.Conforms,
			})
		}
		check, err := RunBackendEraseCheck(backend, s.Seed)
		if err != nil {
			return rep, fmt.Errorf("backend %s erase check: %w", backend, err)
		}
		rep.EraseChecks = append(rep.EraseChecks, check)
	}
	rep.Results = results
	return rep, nil
}

// backendExperiment is the one registry entry built by hand: its
// report carries two sections beyond the rows.
func backendExperiment() Experiment {
	return Experiment{
		Name: "backend",
		Desc: "heap vs LSM compliance backends: Fig 4(a) series, Table 1 conformance and erase checks; writes BENCH_backend.json",
		Run: func(s Scale) (Outcome, error) {
			rep, err := RunBackendComparison(s, s.Fig4aDivisor)
			if err != nil {
				return Outcome{}, err
			}
			rows := rep.Results.([]BackendResult)
			out := Outcome{Lines: indented(rows), Report: &rep, Figures: []Figure{BackendFigure(rows)}}
			out.Lines = append(out.Lines, "Table 1 conformance per backend:")
			for _, row := range rep.Table1 {
				out.Lines = append(out.Lines, fmt.Sprintf("  %-4s %-26s conforms=%v",
					row.Backend, row.Interpretation, row.Conforms))
			}
			out.Lines = append(out.Lines, indented(rep.EraseChecks)...)
			return out, nil
		},
		Check:  checkBackend,
		decode: decodeRows[BackendResult],
	}
}

// checkBackend holds the backend gates: every sweep point sane (rowsOf)
// and the sweep a full backend x txns grid; every Table-1 row, on every
// backend, conforming to its declared IR/II/Inv characteristics; and
// erasure physically demonstrated on every backend (forensically
// clean, erasure.Verify passing, the LSM discharging its purge
// obligations).
func checkBackend(rep Report) error {
	rows, err := rowsOf[BackendResult](rep)
	if err != nil {
		return err
	}
	err = missing(rows, func(r BackendResult) string { return r.Backend },
		func(r BackendResult) int { return r.Txns }, Backends())
	if err != nil {
		return fmt.Errorf("backend: %w", err)
	}
	measured := map[string]bool{}
	for _, row := range rep.Table1 {
		if !row.Conforms {
			return fmt.Errorf("backend: %s on %s does not conform to its declared characteristics",
				row.Interpretation, row.Backend)
		}
		measured[row.Backend] = true
	}
	erased := map[string]bool{}
	for i, c := range rep.EraseChecks {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("backend: erase check %d: %w", i, err)
		}
		erased[c.Backend] = true
	}
	for _, b := range Backends() {
		if !measured[b] || !erased[b] {
			return fmt.Errorf("backend: report is missing the table1 or erase_checks section for %s", b)
		}
	}
	return nil
}

// eraseCheckPurgeWindow is the LSM purge bound the erase check runs
// under; the check drives a few multiples of it and reports when the
// engine actually came clean.
const eraseCheckPurgeWindow = 64

// RunBackendEraseCheck erases one subject on a sharded deployment of
// the backend, then drives bounded traffic on other subjects until the
// subject's bytes are forensically gone — measuring, not assuming, the
// purge window — and verifies every erased key with erasure.Verify.
func RunBackendEraseCheck(backend string, seed int64) (BackendEraseCheck, error) {
	check := BackendEraseCheck{Backend: backend}
	p := backendProfile(backend)
	p.PurgeWithinOps = eraseCheckPurgeWindow
	// A small memtable so the subject's rows actually reach sstable
	// runs — with the default the whole dataset sits in the memtable,
	// where tombstones overwrite values in place and the retention
	// hazard never forms.
	p.LSMFlushEntries = 8
	// Aggressive vacuum so the heap's reclamation runs inside the same
	// bounded window the LSM's purge obligations get.
	p.VacuumCheckEvery = 16
	p.VacuumThreshold = 0.01
	s, err := compliance.OpenSharded(p, 2)
	if err != nil {
		return check, err
	}
	defer s.Close()
	const victim = "victim-subject-xq7"
	var victimKeys, otherKeys []string
	for i := 0; i < 64; i++ {
		rec := gdprbench.Record{
			Key:        fmt.Sprintf("erasecheck-%03d", i),
			Payload:    []byte(fmt.Sprintf("payload-%03d", i)),
			Purposes:   []string{"analytics"},
			TTL:        1 << 40,
			Processors: []string{"processor-a"},
		}
		if i%4 == 0 {
			rec.Subject = victim
			victimKeys = append(victimKeys, rec.Key)
		} else {
			rec.Subject = fmt.Sprintf("bystander-%d", i%7)
			otherKeys = append(otherKeys, rec.Key)
		}
		if err := s.Create(rec); err != nil {
			return check, err
		}
	}
	home := compliance.SubjectShard(victim, s.NumShards())
	engine := s.Shard(home).Engine()
	// The purge window is per engine (per shard): the post-erasure
	// traffic must land on the victim's home shard to advance it, so
	// keep only the bystander keys co-located with it.
	tickKeys := otherKeys[:0]
	for _, k := range otherKeys {
		if idx, ok := s.ShardIndexOf(k); ok && idx == home {
			tickKeys = append(tickKeys, k)
		}
	}
	if len(tickKeys) == 0 {
		return check, fmt.Errorf("backend: no bystander record on the victim's home shard")
	}

	erased, err := s.EraseSubject(compliance.EntitySystem, victim)
	if err != nil {
		return check, err
	}
	check.SubjectRecords = erased

	// Drive ordinary traffic until the subject is forensically gone,
	// up to a few purge windows — the bounded-residency guarantee. The
	// scan runs before each update and once after the last, so a store
	// that comes clean on the final driven op is still observed.
	for ops := 0; ops <= 4*eraseCheckPurgeWindow; ops++ {
		if !engine.ForensicScan([]byte(victim)) {
			check.ForensicClean = true
			check.OpsToClean = ops
			break
		}
		if ops == 4*eraseCheckPurgeWindow {
			break // budget exhausted; the scan above was the final check
		}
		key := tickKeys[ops%len(tickKeys)]
		err := s.UpdateData(compliance.EntityController, compliance.PurposeService,
			key, []byte(fmt.Sprintf("tick-%d-%d", seed, ops)))
		if err != nil {
			return check, err
		}
	}
	check.VerifyOK = true
	for _, k := range victimKeys {
		if err := erasure.Verify(engine, engine.Log(), []byte(k)); err != nil {
			check.VerifyOK = false
			break
		}
	}
	st := engine.Stats()
	check.PurgesRegistered = st.PurgesRegistered
	check.PurgesDischarged = st.PurgesDischarged
	return check, nil
}

// BackendFigure renders the sweep as the Figure 4(a)-shaped
// completion-time series.
func BackendFigure(results []BackendResult) Figure {
	return seriesFigure("Backend comparison: WCus completion time, heap (DELETE+VACUUM) vs lsm (tombstones + erase-aware compaction)",
		"transactions", len(results), func(i int) (string, float64, float64) {
			r := results[i]
			return r.Backend, float64(r.Txns), r.CompletionSeconds
		})
}
