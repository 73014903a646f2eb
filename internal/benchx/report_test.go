package benchx

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
)

// gate is one row of the registry table: a mutation of an experiment's
// good report that violates exactly one gate, and a fragment of the
// error the experiment's Check must answer with.
type gate struct {
	name   string
	breaks func(*Report)
	want   string
}

// fixture is an experiment's hand-built passing report plus its gates,
// each violated once. Every gate a Validate, a Read*JSON or a CI jq
// line used to hold is a row here.
type fixture struct {
	good  func() Report
	gates []gate
}

// rows builds a mutation over a report's typed rows.
func rows[R any](f func([]R) []R) func(*Report) {
	return func(rep *Report) { rep.Results = f(rep.Results.([]R)) }
}

// first builds a mutation of a report's first row.
func first[R any](f func(*R)) func(*Report) {
	return rows(func(rs []R) []R { f(&rs[0]); return rs })
}

func goodLoadgen() Report {
	return Report{Benchmark: "loadgen", Results: []loadgen.Result{{
		Measured: loadgen.Measured{Workload: "WCon", Profile: "P_Base", Records: 100, Ops: 10,
			ElapsedSeconds: 2, OpsPerSec: 5, P50Micros: 1, P95Micros: 2, P99Micros: 3, MaxMicros: 4},
		Shards: 4, Clients: 2, WALAppends: 5, WALSyncs: 3,
	}}}
}

func goodNetwork() Report {
	row := func(conns int) loadgen.NetworkResult {
		return loadgen.NetworkResult{
			Measured: loadgen.Measured{Workload: "WCon", Profile: "P_Base", Records: 100, Ops: 10,
				ElapsedSeconds: 2, OpsPerSec: 5, P50Micros: 50, P95Micros: 90, P99Micros: 100, MaxMicros: 200},
			Servers: 2, ShardsPerServer: 2, Conns: conns, SelfHosted: true,
		}
	}
	return Report{Benchmark: "network", Results: []loadgen.NetworkResult{row(16), row(64)}}
}

func goodRecovery() Report {
	row := func(ops int, checkpointed bool) RecoveryResult {
		r := RecoveryResult{
			Ops: ops, Records: 5, Shards: 1, Profile: "P_Base", WALRecords: ops + 5, WALBytes: 100,
			RecoverSeconds: 0.1, RecordsReplayed: ops + 5, RecoveredRecords: 5,
		}
		if checkpointed {
			r.Checkpointed, r.CheckpointEveryOps, r.CheckpointRows, r.RecordsReplayed = true, 4, 5, 3
		}
		return r
	}
	return Report{Benchmark: "recovery", Results: []RecoveryResult{
		row(10, false), row(10, true), row(20, false), row(20, true),
	}}
}

func goodBackend() Report {
	var results []BackendResult
	rep := Report{Benchmark: "backend"}
	for _, b := range Backends() {
		for _, txns := range []int{400, 1200} {
			results = append(results, BackendResult{Backend: b, Profile: "P_Base",
				Records: 100, Txns: txns, CompletionSeconds: 0.1, LoadSeconds: 0.1})
		}
		rep.Table1 = append(rep.Table1, BackendTable1Row{Backend: b, Interpretation: "delete", Conforms: true})
		rep.EraseChecks = append(rep.EraseChecks, BackendEraseCheck{Backend: b, SubjectRecords: 16,
			ForensicClean: true, VerifyOK: true, PurgesRegistered: 16, PurgesDischarged: 16})
	}
	rep.Results = results
	return rep
}

func goodReadPath() Report {
	var results []ReadPathResult
	row := func(backend, lock string, cache bool, readers int) ReadPathResult {
		r := ReadPathResult{Backend: backend, Lock: lock, Cache: cache, Readers: readers, Shards: 1,
			Records: 10, Ops: 10, OpsPerSec: 1000 * float64(readers)}
		if cache {
			r.CacheHits = 5
		}
		if lock == LockExclusive {
			r.OpsPerSec = 1000
		}
		return r
	}
	for _, b := range Backends() {
		for _, cache := range []bool{false, true} {
			results = append(results, row(b, LockShared, cache, 1), row(b, LockShared, cache, 16))
		}
		results = append(results, row(b, LockExclusive, false, 1), row(b, LockExclusive, false, 16))
	}
	return Report{Benchmark: "readpath", Results: results}
}

func goodReshard() Report {
	var results []ReshardResult
	for _, b := range Backends() {
		results = append(results, ReshardResult{
			Backend: b, Shards: 3, Subjects: 8, Records: 64, Clients: 4, ZipfS: 0.9,
			Baseline:      ReshardPhase{Ops: 100, OpsPerSec: 1000, P99Micros: 900},
			PostSplit:     ReshardPhase{Ops: 100, OpsPerSec: 1800, P99Micros: 500},
			SpeedupFactor: 1.8, P99RecoveryFactor: 1.8,
			SplitSubjects: 4, NewShards: []int{3}, EpochAfter: 1,
		})
	}
	return Report{Benchmark: "reshard", Results: results}
}

func goodReplication() Report {
	var results []ReplicationResult
	for _, b := range Backends() {
		results = append(results, ReplicationResult{
			Backend: b, Shards: 2, Replicas: 2, Records: 40,
			AsyncLag:      ReplicationLatency{Samples: 20, P50Micros: 900, P99Micros: 4000, MaxMicros: 5000},
			RevokeLatency: ReplicationLatency{Samples: 8, P50Micros: 1500, P99Micros: 3000, MaxMicros: 3500},
			EraseLatency:  ReplicationLatency{Samples: 2, P50Micros: 1600, P99Micros: 3100, MaxMicros: 3600},
		})
	}
	return Report{Benchmark: "replication", Results: results}
}

func goodIngest() Report {
	var results []IngestResult
	for _, b := range Backends() {
		for _, incremental := range []bool{false, true} {
			for _, batch := range []int{1, 256} {
				r := IngestResult{
					Backend: b, Profile: "P_Base", Shards: 2, BatchSize: batch, Records: 100,
					CheckpointEveryOps: 32, IncrementalCheckpoints: incremental,
					Seconds: 1 / float64(batch), RecordsPerSecond: 100 * float64(batch),
					WALAppends: 100, WALSyncs: uint64(100 / batch), FullCheckpoints: 4,
					MeanFullCheckpointBytes: 1000,
				}
				if r.WALSyncs == 0 {
					r.WALSyncs = 1
				}
				if incremental {
					r.DeltaCheckpoints, r.MeanDeltaCheckpointBytes, r.DeltaToFullRatio = 12, 20, 0.02
				}
				results = append(results, r)
			}
		}
	}
	return Report{Benchmark: "ingest", Results: results}
}

// point builds a plausible durableheap result with the given checkpoint
// and recovery seconds.
func point(backend string, ckpt, rec float64) DurableHeapResult {
	return DurableHeapResult{
		Backend: backend, Profile: "P_Base", Records: 100, ValueBytes: 4096,
		Shards: 2, Checkpoints: 3, CheckpointSeconds: ckpt,
		WALTailOps: 100, IngestSeconds: 1, IngestPerSec: 100,
		RecoverSeconds: rec, RecoveredRecords: 100,
	}
}

func goodDurableHeap() Report {
	return Report{Benchmark: "durableheap", Results: []DurableHeapResult{
		point(compliance.BackendHeap, 1.0, 1.0),
		point(compliance.BackendLSM, 0.8, 0.9),
		point(compliance.BackendMmap, 0.1, 0.4),
	}}
}

var fixtures = map[string]fixture{
	"loadgen": {good: goodLoadgen, gates: []gate{
		{"no ops", first(func(r *loadgen.Result) { r.Ops = 0 }), "no ops"},
		{"zero throughput", first(func(r *loadgen.Result) { r.OpsPerSec = 0 }), "throughput"},
		{"negative elapsed", first(func(r *loadgen.Result) { r.ElapsedSeconds = -1 }), "elapsed"},
		{"p50 above p99", first(func(r *loadgen.Result) { r.P50Micros = 10 }), "quantiles out of order"},
		{"no clients", first(func(r *loadgen.Result) { r.Clients = 0 }), "topology"},
		{"more syncs than appends", first(func(r *loadgen.Result) { r.WALSyncs = 99 }), "WAL syncs"},
	}},
	"network": {good: goodNetwork, gates: []gate{
		{"no ops", first(func(r *loadgen.NetworkResult) { r.Ops = 0 }), "no ops"},
		{"zero throughput", first(func(r *loadgen.NetworkResult) { r.OpsPerSec = 0 }), "throughput"},
		{"p50 above p95", first(func(r *loadgen.NetworkResult) { r.P50Micros, r.P95Micros = 90, 50 }), "quantiles out of order"},
		{"p95 above p99", first(func(r *loadgen.NetworkResult) { r.P95Micros = 150 }), "quantiles out of order"},
		{"no connections", first(func(r *loadgen.NetworkResult) { r.Conns = 0 }), "fleet size"},
		{"self-hosted without servers", first(func(r *loadgen.NetworkResult) { r.Servers = 0 }), "topology"},
		{"not through the self-hosted wire topology",
			first(func(r *loadgen.NetworkResult) { r.SelfHosted = false }), "self-hosted"},
		{"a sweep point measured twice", first(func(r *loadgen.NetworkResult) { r.Conns = 64 }), "twice"},
	}},
	"recovery": {good: goodRecovery, gates: []gate{
		{"no ops", first(func(r *RecoveryResult) { r.Ops = 0 }), "no ops"},
		{"zero recovery time", first(func(r *RecoveryResult) { r.RecoverSeconds = 0 }), "recovery time"},
		{"recovered nothing", first(func(r *RecoveryResult) { r.RecoveredRecords = 0 }), "recovered no records"},
		{"empty WAL", first(func(r *RecoveryResult) { r.WALRecords = 0 }), "empty WAL"},
		{"checkpointed without snapshot rows",
			rows(func(rs []RecoveryResult) []RecoveryResult { rs[1].CheckpointRows = 0; return rs }), "snapshot rows"},
		{"a WAL length recovered one way only",
			rows(func(rs []RecoveryResult) []RecoveryResult { return rs[:3] }), "lacks swept value"},
		{"checkpointing did not shorten replay",
			rows(func(rs []RecoveryResult) []RecoveryResult { rs[3].RecordsReplayed = 25; return rs }), "did not shorten replay"},
	}},
	"backend": {good: goodBackend, gates: []gate{
		{"unknown backend", first(func(r *BackendResult) { r.Backend = "rocksdb" }), "unknown backend"},
		{"zero completion time", first(func(r *BackendResult) { r.CompletionSeconds = 0 }), "completion time"},
		{"a backend missing a sweep point",
			rows(func(rs []BackendResult) []BackendResult { return rs[:3] }), "lacks swept value"},
		{"no table1 section", func(rep *Report) { rep.Table1 = nil }, "missing the table1"},
		{"no erase_checks section", func(rep *Report) { rep.EraseChecks = nil }, "missing the table1 or erase_checks"},
		{"one backend's erase check absent",
			func(rep *Report) { rep.EraseChecks = rep.EraseChecks[:1] }, "erase_checks section for lsm"},
		{"non-conforming table1 row", func(rep *Report) { rep.Table1[1].Conforms = false }, "does not conform"},
		{"erased nothing", func(rep *Report) { rep.EraseChecks[0].SubjectRecords = 0 }, "erased nothing"},
		{"subject bytes survive", func(rep *Report) { rep.EraseChecks[0].ForensicClean = false }, "still holds subject bytes"},
		{"erasure.Verify fails", func(rep *Report) { rep.EraseChecks[1].VerifyOK = false }, "erasure.Verify"},
		{"lsm discharged no purge", func(rep *Report) { rep.EraseChecks[1].PurgesDischarged = 0 }, "no purge obligations"},
	}},
	"readpath": {good: goodReadPath, gates: []gate{
		{"unknown lock", first(func(r *ReadPathResult) { r.Lock = "spin" }), "lock discipline"},
		{"zero throughput", first(func(r *ReadPathResult) { r.OpsPerSec = 0 }), "throughput"},
		{"reads missed live records", first(func(r *ReadPathResult) { r.NotFound = 1 }), "missed live records"},
		{"cache-off row with cache hits", first(func(r *ReadPathResult) { r.CacheHits = 5 }), "cache-off run served"},
		{"cache-on row without cache hits",
			rows(func(rs []ReadPathResult) []ReadPathResult { rs[2].CacheHits = 0; return rs }), "no cache hits"},
		{"mixed shard counts",
			rows(func(rs []ReadPathResult) []ReadPathResult { rs[1].Shards, rs[1].OpsPerSec = 4, 9000; return rs }), "mixes shard counts"},
		{"flat scaling",
			rows(func(rs []ReadPathResult) []ReadPathResult { rs[3].OpsPerSec = 1500; return rs }), "scales only"},
		{"a series missing a reader count",
			rows(func(rs []ReadPathResult) []ReadPathResult { return append(rs[:1], rs[2:]...) }), "lacks swept value"},
		{"no exclusive baseline",
			rows(func(rs []ReadPathResult) []ReadPathResult { return append(rs[:4], rs[6:]...) }), "exclusive-lock baseline"},
	}},
	"reshard": {good: goodReshard, gates: []gate{
		{"speedup under the floor", first(func(r *ReshardResult) { r.SpeedupFactor = 1.2 }), "under the 1.5x floor"},
		{"no split happened", first(func(r *ReshardResult) { r.NewShards = nil }), "no split"},
		{"epoch never advanced", first(func(r *ReshardResult) { r.EpochAfter = 0 }), "epoch never advanced"},
		{"split moved every subject", first(func(r *ReshardResult) { r.SplitSubjects = r.Subjects }), "split moved"},
		{"zero phase throughput", first(func(r *ReshardResult) { r.PostSplit.OpsPerSec = 0 }), "phase throughput"},
		{"a backend missing", rows(func(rs []ReshardResult) []ReshardResult { return rs[:1] }), "backend series lsm"},
	}},
	"replication": {good: goodReplication, gates: []gate{
		{"stale allow after Revoke returned", first(func(r *ReplicationResult) { r.StaleAllows = 1 }), "stale allows"},
		{"erased record readable", first(func(r *ReplicationResult) { r.ErasedReadable = 2 }), "erased"},
		{"no async lag measured", first(func(r *ReplicationResult) { r.AsyncLag.P50Micros = 0 }), "async lag"},
		{"no revoke latency measured", first(func(r *ReplicationResult) { r.RevokeLatency.P50Micros = 0 }), "barrier latency"},
		{"no erase samples", first(func(r *ReplicationResult) { r.EraseLatency.Samples = 0 }), "empty sample set"},
		{"a backend missing", rows(func(rs []ReplicationResult) []ReplicationResult { return rs[:1] }), "backend series lsm"},
	}},
	"ingest": {good: goodIngest, gates: []gate{
		{"zero throughput", first(func(r *IngestResult) { r.RecordsPerSecond = 0 }), "timing"},
		{"no WAL syncs", first(func(r *IngestResult) { r.WALSyncs = 0 }), "implausible WAL work"},
		{"batch 256 under 2x batch 1",
			rows(func(rs []IngestResult) []IngestResult { rs[1].RecordsPerSecond = 150; return rs }), "only 1.50x batch 1"},
		{"incremental run without delta checkpoints",
			rows(func(rs []IngestResult) []IngestResult { rs[2].DeltaCheckpoints = 0; return rs }), "no delta checkpoints"},
		{"no full checkpoints", first(func(r *IngestResult) { r.FullCheckpoints = 0 }), "no full checkpoints"},
		{"delta frames as large as half a full image",
			rows(func(rs []IngestResult) []IngestResult { rs[2].DeltaToFullRatio = 0.6; return rs }), "ceiling"},
		{"a series missing a batch size",
			rows(func(rs []IngestResult) []IngestResult { return rs[:len(rs)-1] }), "lacks swept value"},
	}},
	"durableheap": {good: goodDurableHeap, gates: []gate{
		{"a backend missing", rows(func(rs []DurableHeapResult) []DurableHeapResult { return rs[:2] }), "backend series mmap"},
		{"checkpoint floor", rows(func(rs []DurableHeapResult) []DurableHeapResult {
			rs[2].CheckpointSeconds = 0.5 // heap only 2x mmap, floor is 5x
			return rs
		}), "checkpoints only"},
		{"recovery floor", rows(func(rs []DurableHeapResult) []DurableHeapResult {
			rs[2].RecoverSeconds = 0.9 // heap barely above mmap, floor is 2x
			return rs
		}), "recovery only"},
		{"lossy recovery", first(func(r *DurableHeapResult) { r.RecoveredRecords = 99 }), "rebuilt 99 of 100"},
		{"no ingest timing", first(func(r *DurableHeapResult) { r.IngestPerSec = 0 }), "ingest timing"},
		{"no checkpoint timing", first(func(r *DurableHeapResult) { r.CheckpointSeconds = 0 }), "checkpoint timing"},
		{"no post-checkpoint WAL tail", first(func(r *DurableHeapResult) { r.WALTailOps = 0 }), "WAL tail"},
	}},
}

// TestRegistryReports is the one table over the registry: every
// report-writing experiment round-trips through the shared envelope,
// refuses a missing file, garbage, another experiment's report and an
// empty result set, and fails its Check on each gate violated once —
// both in memory and through a written file.
func TestRegistryReports(t *testing.T) {
	for _, e := range Experiments() {
		if e.Check == nil {
			continue
		}
		fx, ok := fixtures[e.Name]
		if !ok {
			t.Errorf("%s writes a report but has no fixture in this table", e.Name)
			continue
		}
		e := e
		t.Run(e.Name, func(t *testing.T) {
			dir := t.TempDir()
			write := func(name string, rep Report) string {
				path := filepath.Join(dir, name)
				if err := WriteReport(path, rep, "test"); err != nil {
					t.Fatal(err)
				}
				return path
			}

			good := fx.good()
			if err := e.Check(good); err != nil {
				t.Fatalf("good fixture fails its own check: %v", err)
			}
			back, err := ReadReport(write("good.json", good), e)
			if err != nil {
				t.Fatal(err)
			}
			if back.Benchmark != e.Name || back.Schema != reportSchema {
				t.Fatalf("envelope = %q schema %d", back.Benchmark, back.Schema)
			}
			if !reflect.DeepEqual(back.Results, good.Results) ||
				!reflect.DeepEqual(back.Table1, good.Table1) ||
				!reflect.DeepEqual(back.EraseChecks, good.EraseChecks) {
				t.Fatalf("round trip diverged:\n got %+v\nwant %+v", back, good)
			}

			if _, err := ReadReport(filepath.Join(dir, "missing.json"), e); err == nil {
				t.Error("missing file accepted")
			}
			garbage := filepath.Join(dir, "garbage.json")
			if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadReport(garbage, e); err == nil {
				t.Error("garbage accepted")
			}
			for other, ofx := range fixtures {
				if other == e.Name {
					continue
				}
				if _, err := ReadReport(write("other.json", ofx.good()), e); err == nil ||
					!strings.Contains(err.Error(), "is not a "+e.Name+" report") {
					t.Errorf("%s report read as %s: %v", other, e.Name, err)
				}
			}
			empty := fx.good()
			empty.Results = reflect.Zero(reflect.TypeOf(empty.Results)).Interface()
			if _, err := ReadReport(write("empty.json", empty), e); err == nil ||
				!strings.Contains(err.Error(), "no results") {
				t.Errorf("empty results: %v", err)
			}

			for _, g := range fx.gates {
				bad := fx.good()
				g.breaks(&bad)
				if err := e.Check(bad); err == nil || !strings.Contains(err.Error(), g.want) {
					t.Errorf("gate %q: Check = %v, want an error containing %q", g.name, err, g.want)
				}
				if _, err := ReadReport(write("bad.json", bad), e); err == nil {
					t.Errorf("gate %q: the written report read clean", g.name)
				}
			}
		})
	}
	for name := range fixtures {
		if _, ok := Lookup(name); !ok {
			t.Errorf("fixture %q matches no registry entry", name)
		}
	}
}

// TestCommittedReports reads every BENCH_*.json committed at the repo
// root through the shared reader, which runs the owning experiment's
// Check: the committed numbers are regression gates, and this is what
// holds them to the Go gates.
func TestCommittedReports(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found at the repo root")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		e, ok := Lookup(name)
		if !ok {
			t.Errorf("%s: no experiment named %q", path, name)
			continue
		}
		if _, err := ReadReport(path, e); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestPresetsResolve walks the registry: at every named scale every
// entry's parameters resolve, name only workloads GDPRBench knows, and
// differ between scales only by preset (an unnamed scale is refused
// nowhere, a misspelt one everywhere). One -workload string parsed by
// two grammars used to kill "-exp all" at the network experiment.
func TestPresetsResolve(t *testing.T) {
	known := map[gdprbench.WorkloadName]bool{}
	for _, w := range gdprbench.Workloads() {
		known[w] = true
	}
	names := map[string]bool{}
	for _, e := range Experiments() {
		if names[e.Name] || e.Name == "all" || e.Desc == "" || e.Run == nil {
			t.Errorf("entry %q: duplicate, reserved name, or incomplete", e.Name)
		}
		names[e.Name] = true
		if e.Params == nil {
			continue
		}
		for _, s := range append(Scales(), Scale{Records: 10, Txns: 10}) {
			p, err := e.Params(s)
			if err != nil {
				t.Errorf("%s at scale %q: %v", e.Name, s.Name, err)
				continue
			}
			var workloads []gdprbench.WorkloadName
			switch p := p.(type) {
			case loadgenParams:
				workloads = p.workloads
			case networkParams:
				workloads = []gdprbench.WorkloadName{p.workload}
			default:
				continue
			}
			if len(workloads) == 0 {
				t.Errorf("%s at scale %q: no workloads", e.Name, s.Name)
			}
			for _, w := range workloads {
				if !known[w] {
					t.Errorf("%s at scale %q: unknown workload %q", e.Name, s.Name, w)
				}
			}
		}
		if _, err := e.Params(Scale{Name: "bogus"}); err == nil {
			t.Errorf("%s resolved a scale that does not exist", e.Name)
		}
	}
}

// TestWriteReportStampsEnvironment pins the env stamp: present on
// everything written, optional on read (the committed reports predate
// it; TestCommittedReports reads them).
func TestWriteReportStampsEnvironment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_loadgen.json")
	if err := WriteReport(path, goodLoadgen(), "ci"); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema int  `json:"schema"`
		Env    *Env `json:"env"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	want := Env{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Preset: "ci"}
	if doc.Schema != reportSchema || doc.Env == nil || *doc.Env != want {
		t.Fatalf("schema %d env %+v, want schema %d env %+v", doc.Schema, doc.Env, reportSchema, want)
	}
	e, _ := Lookup("loadgen")
	back, err := ReadReport(path, e)
	if err != nil || back.Env == nil || *back.Env != want {
		t.Fatalf("read back env %+v, err %v", back.Env, err)
	}
}

// TestLoadDriversRoundTrip runs the two load drivers for real at a tiny
// size and takes their rows through the envelope unchanged.
func TestLoadDriversRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res, err := loadgen.Run(loadgen.Config{
		Workload: gdprbench.Customer, Records: 400, Ops: 400, Clients: 2, Shards: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, err := loadgen.RunNetwork(loadgen.NetworkConfig{
		Workload: gdprbench.Customer, Records: 200, Ops: 200, Conns: 4,
		Servers: 1, ShardsPerServer: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]any{
		"loadgen": []loadgen.Result{res}, "network": []loadgen.NetworkResult{net},
	} {
		e, _ := Lookup(name)
		path := filepath.Join(dir, e.File())
		if err := WriteReport(path, Report{Benchmark: name, Results: want}, ""); err != nil {
			t.Fatal(err)
		}
		back, err := ReadReport(path, e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Results, want) {
			t.Fatalf("%s round trip diverged: %+v vs %+v", name, back.Results, want)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts(" 1, 4,16,")
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 16}) {
		t.Fatalf("ParseInts = %v, %v", got, err)
	}
	for _, bad := range []string{"", ",", "abc", "0", "4,-1", "1.5"} {
		if _, err := ParseInts(bad); err == nil {
			t.Errorf("ParseInts(%q) accepted", bad)
		}
	}
}
