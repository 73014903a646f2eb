package main

import (
	"fmt"

	"github.com/datacase/datacase/internal/compliance"
)

// topology is the serving stack a workload drives.
type topology uint8

const (
	// topoLocal: api.Local straight on one ShardedDB, no wire.
	topoLocal topology = iota
	// topoWire: RemoteClient -> gateway (Server hosting a Router) ->
	// two Servers, each hosting api.Local on its own ShardedDB.
	topoWire
	// topoRepl: api.Local on a replication primary plus one read
	// replica bootstrapped over loopback.
	topoRepl
)

// nClients is the closed-loop client count of every workload: one per
// core of the 2-core machine class the op counts were frozen on. Each
// client waits for its reply before sending the next request.
const nClients = 2

// warmupFrac is the share of each client's stream replayed untimed (and
// charged to setup_s) before the clock starts, so cold decision caches
// and first-touch allocation are not part of the measured window.
const warmupFrac = 0.05

// mixEntry is one weighted op kind of a workload mix.
type mixEntry struct {
	kind   opKind
	weight int
}

// spec is the frozen definition of one workload.
type spec struct {
	name     string
	topo     topology
	profile  func() compliance.Profile
	shards   int // shards per ShardedDB (per server on topoWire)
	records  int // preloaded records
	perSubj  int // records per data subject
	mix      []mixEntry
	rightsIn int // one op in rightsIn is a rights op (4 Revoke : 1 EraseSubject)
	// opsPerSecond freezes the op count: the timed phase replays
	// opsPerSecond x --seconds mix draws, however long they take. It was
	// tuned once on the 2-core class so --seconds 15 lands near 15 s.
	opsPerSecond int
	// zipf selects Zipfian (s = 0.99) slot popularity instead of uniform.
	zipf bool
	// vacantFrac of the record slots start empty so a Create always has
	// a slot to re-collect into while deletes keep making new ones.
	vacantFrac float64
	// stableFrac of each client's subjects are never erased; replica
	// reads and revocation targets draw only from them, so an async
	// replica never legitimately answers ErrNotFound.
	stableFrac float64
	// grows marks the one non-stationary workload: creates open new
	// subjects instead of refilling vacancies.
	grows bool
	// revokeDenies: the profile's policy engine adjudicates per unit, so
	// a read under the revoked pair must fail with ErrDenied.
	revokeDenies bool
	// checkpointCycles, when positive, sets CheckpointEveryOps so every
	// shard completes about this many checkpoint cycles in a run.
	checkpointCycles int
}

func psysOn(backend string) func() compliance.Profile {
	return func() compliance.Profile {
		p := compliance.PSYS()
		p.Backend = backend
		return p
	}
}

// specs are the four workloads, in BENCHMARK.json order.
var specs = []spec{
	{
		name: "wire-customer", topo: topoWire, profile: compliance.PBase,
		shards: 4, records: 50_000, perSubj: 4,
		mix: []mixEntry{
			{kReadData, 20}, {kUpdateData, 20}, {kReadMeta, 20}, {kUpdateMeta, 20},
			{kDelete, 10}, {kCreate, 10},
		},
		rightsIn: 200, opsPerSecond: 23_000, vacantFrac: 0.01,
	},
	{
		name: "local-read", topo: topoLocal, profile: psysOn(compliance.BackendHeap),
		shards: 8, records: 100_000, perSubj: 8,
		mix:      []mixEntry{{kReadData, 90}, {kReadMeta, 10}},
		rightsIn: 500, opsPerSecond: 70_000, zipf: true, revokeDenies: true,
	},
	{
		name: "local-ingest", topo: topoLocal, profile: psysOn(compliance.BackendMmap),
		shards: 8, records: 100_000, perSubj: 4,
		mix: []mixEntry{
			{kCreate, 40}, {kCreateBatch, 1}, {kDelete, 20}, {kUpdateData, 25}, {kUpdateMeta, 14},
		},
		rightsIn: 150, opsPerSecond: 15_000, grows: true, revokeDenies: true,
		checkpointCycles: 8,
	},
	{
		name: "rights-repl", topo: topoRepl, profile: psysOn(compliance.BackendLSM),
		shards: 2, records: 20_000, perSubj: 4,
		mix:      []mixEntry{{kUpdateData, 4}, {kReplicaRead, 5}},
		rightsIn: 10, opsPerSecond: 5_600, stableFrac: 0.9, revokeDenies: true,
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// batchSubjects is how many new subjects one ingest CreateBatch opens
// (batchSubjects x perSubj = 32 records on local-ingest).
const batchSubjects = 8

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric a run reports, in output
// order. TestBenchmarkJSONMatches pins them to BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"ops_per_s", "ops/s"}, {"p50_us", "us"}, {"p95_us", "us"},
	{"revoke_p50_us", "us"}, {"erase_p50_us", "us"}, {"recover_s", "s"},
	{"space_factor", "ratio"}, {"audit_bytes_per_op", "B/op"}, {"live_heap_mb", "MiB"},
}

var perLayer = []metricDef{
	{"wire.client_hop_us", "us"}, {"wire.gateway_route_us", "us"}, {"wire.server_backend_us", "us"},
	{"wire.codec_ns_per_op", "ns/op"}, {"wire.codec_allocs_per_op", "allocs/op"},
	{"wire.frame_bytes_per_op", "B/op"},
	{"api.local_overhead_ns", "ns"},
	{"compliance.read_data_p50_us", "us"}, {"compliance.read_meta_p50_us", "us"},
	{"compliance.create_p50_us", "us"}, {"compliance.create_batch_p50_us", "us"},
	{"compliance.update_data_p50_us", "us"}, {"compliance.update_meta_p50_us", "us"},
	{"compliance.delete_p50_us", "us"}, {"client.p99_us", "us"},
	{"compliance.checkpoints", "count"}, {"compliance.checkpoint_ms", "ms"},
	{"compliance.vacuums", "count"},
	{"compliance.recover_checkpoint_rows", "count"}, {"compliance.recover_replayed_records", "count"},
	{"compliance.recover_erase_redos", "count"},
	{"compliance.denials", "count"}, {"compliance.not_found", "count"},
	{"compliance.failed_ops", "count"},
	{"policy.cache_hit_ratio", "ratio"}, {"policy.cache_invalidations", "count"},
	{"policy.scanned_per_check", "ratio"}, {"policy.decide_ns", "ns"},
	{"policy.overflow_hit_ratio", "ratio"}, {"policy.overflow_decide_ns", "ns"},
	{"wal.appends_per_sync", "ratio"}, {"wal.bytes_per_op", "B/op"}, {"wal.append_ns", "ns"},
	{"wal.append_batch32_ns", "ns"},
	{"storage.get_ns", "ns"}, {"storage.insert_ns", "ns"}, {"storage.delete_ns", "ns"},
	{"storage.maintenance_runs", "count"}, {"storage.entries_reclaimed", "count"},
	{"storage.purge_discharge_ratio", "ratio"}, {"storage.bytes_per_live_byte", "ratio"},
	{"cryptox.seal_ns", "ns"}, {"cryptox.open_ns", "ns"},
	{"audit.append_ns", "ns"}, {"audit.sync_share", "ratio"},
	{"erasure.records_per_erase", "ratio"}, {"erasure.verify_ms", "ms"},
	{"erasure.forensic_hits", "count"},
	{"repl.barrier_share", "ratio"}, {"repl.lag_p50_us", "us"}, {"repl.records_per_batch", "ratio"},
	{"repl.resyncs", "count"},
	{"runtime.alloc_bytes_per_op", "B/op"}, {"runtime.allocs_per_op", "allocs/op"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"stream.live_drift_frac", "ratio"}, {"trace.spans", "count"}, {"trace.overhead_frac", "ratio"},
}
