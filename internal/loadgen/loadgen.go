package loadgen

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/fanout"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/wal"
)

// Config sizes one closed-loop run.
type Config struct {
	// Profile is the compliance grounding to deploy (PBase by default).
	Profile compliance.Profile
	// Workload is the GDPRBench mix to replay.
	Workload gdprbench.WorkloadName
	// Records is the preloaded dataset size.
	Records int
	// Ops is the total operation count, split across clients.
	Ops int
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Shards is the subject-shard count of the deployment.
	Shards int
	// Seed makes the generated dataset and op stream deterministic.
	Seed int64
	// ScanLimit bounds read-by-meta scans (default 16, as the harness).
	ScanLimit int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Profile.Name == "" {
		c.Profile = compliance.PBase()
	}
	if c.Workload == "" {
		c.Workload = gdprbench.Controller
	}
	if c.Records <= 0 {
		c.Records = 2000
	}
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ScanLimit <= 0 {
		c.ScanLimit = 16
	}
	return c
}

// Result is the machine-readable outcome of one run. Latencies are in
// microseconds; the JSON field names are the BENCH_loadgen.json schema.
type Result struct {
	Workload       string  `json:"workload"`
	Profile        string  `json:"profile"`
	Shards         int     `json:"shards"`
	Clients        int     `json:"clients"`
	Records        int     `json:"records"`
	Ops            int     `json:"ops"`
	LoadSeconds    float64 `json:"load_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	MeanMicros     float64 `json:"mean_micros"`
	P50Micros      float64 `json:"p50_micros"`
	P95Micros      float64 `json:"p95_micros"`
	P99Micros      float64 `json:"p99_micros"`
	MaxMicros      float64 `json:"max_micros"`
	// Denied and NotFound count tolerated per-op failures during the
	// measured phase (deleted keys re-drawn by the generator, policy
	// denials), as in GDPRBench.
	Denied   uint64 `json:"denied"`
	NotFound uint64 `json:"not_found"`
	// WAL commit-work counters, summed over the shards' log segments.
	WALAppends  uint64 `json:"wal_appends"`
	WALSyncs    uint64 `json:"wal_syncs"`
	WALMaxBatch uint64 `json:"wal_max_batch"`
	SerialWAL   bool   `json:"serial_wal"`
}

// String renders one result row.
func (r Result) String() string {
	protocol := "group-wal "
	if r.SerialWAL {
		protocol = "serial-wal"
	}
	return fmt.Sprintf("%-5s %-8s %s shards=%-3d clients=%-3d ops=%-7d %9.0f ops/s  "+
		"p50=%.1fµs p95=%.1fµs p99=%.1fµs",
		r.Workload, r.Profile, protocol, r.Shards, r.Clients, r.Ops, r.OpsPerSec,
		r.P50Micros, r.P95Micros, r.P99Micros)
}

// Validate sanity-checks one result: counts consistent, quantiles
// ordered, throughput positive.
func (r Result) Validate() error {
	switch {
	case r.Ops <= 0:
		return fmt.Errorf("loadgen: result has no ops")
	case r.OpsPerSec <= 0:
		return fmt.Errorf("loadgen: non-positive throughput %f", r.OpsPerSec)
	case r.ElapsedSeconds <= 0:
		return fmt.Errorf("loadgen: non-positive elapsed %f", r.ElapsedSeconds)
	case r.P50Micros > r.P95Micros || r.P95Micros > r.P99Micros || r.P99Micros > r.MaxMicros:
		return fmt.Errorf("loadgen: quantiles out of order: p50=%f p95=%f p99=%f max=%f",
			r.P50Micros, r.P95Micros, r.P99Micros, r.MaxMicros)
	case r.Clients <= 0 || r.Shards <= 0:
		return fmt.Errorf("loadgen: bad topology clients=%d shards=%d", r.Clients, r.Shards)
	case r.WALSyncs > r.WALAppends:
		return fmt.Errorf("loadgen: more WAL syncs (%d) than appends (%d)", r.WALSyncs, r.WALAppends)
	}
	return nil
}

// StatsOf is a convenience view of a result's WAL counters.
func (r Result) StatsOf() wal.Stats {
	return wal.Stats{
		Appends:     r.WALAppends,
		Syncs:       r.WALSyncs,
		MaxBatch:    r.WALMaxBatch,
		GroupCommit: !r.SerialWAL,
	}
}

// SubjectForKey derives a deterministic, well-spread data subject for
// driver creates, so created records spread over shards instead of
// pinning to one subject's home shard.
func SubjectForKey(key string) string {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return fmt.Sprintf("person-%05d", h.Sum32()%100000)
}

// ActorFor maps a workload to the entity/purpose its operations run as,
// mirroring the paper's controller/processor/customer roles.
func ActorFor(w gdprbench.WorkloadName) (core.EntityID, core.Purpose) {
	switch w {
	case gdprbench.Processor:
		return compliance.EntityProcessor, compliance.PurposeProcessing
	case gdprbench.Controller:
		return compliance.EntityController, compliance.PurposeService
	default: // Customer
		return compliance.EntitySubjectSvc, compliance.PurposeSubjectAccess
	}
}

// Tolerable reports whether a per-op error is part of normal benchmark
// operation (the generator re-draws deleted keys; strict profiles deny;
// two clients race on a recycled key).
func Tolerable(err error) bool {
	return err == nil ||
		errors.Is(err, compliance.ErrNotFound) ||
		errors.Is(err, compliance.ErrDenied) ||
		errors.Is(err, compliance.ErrExists)
}

// Run executes one closed-loop measurement: open a sharded deployment,
// preload the dataset with Clients concurrent loaders, pre-generate the
// whole op stream from the seed, split it into one contiguous
// deterministic slice per client, and let every client replay its slice
// back-to-back (closed loop: the next op issues as soon as the previous
// returns), timing each operation into a shared lock-free histogram.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	db, err := compliance.OpenShardedWorkers(cfg.Profile, cfg.Shards, cfg.Clients)
	if err != nil {
		return Result{}, err
	}
	defer db.Close()

	gen, err := gdprbench.NewGenerator(cfg.Workload, cfg.Records, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	load := gen.Load(1<<40, 1<<41) // retention far away: not what we measure
	loadStart := time.Now()
	chunk := (len(load) + cfg.Clients - 1) / cfg.Clients
	err = fanout.Run(cfg.Clients, cfg.Clients, func(c int) error {
		lo := min(c*chunk, len(load))
		hi := min(lo+chunk, len(load))
		for _, rec := range load[lo:hi] {
			if err := db.Create(rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: load: %w", err)
	}
	loadTime := time.Since(loadStart)

	// The op stream comes from one seeded generator, so the full stream
	// is deterministic; each client replays a contiguous slice of it.
	opGen, err := gdprbench.NewGenerator(cfg.Workload, cfg.Records, cfg.Seed+7)
	if err != nil {
		return Result{}, err
	}
	ops := opGen.Ops(cfg.Ops)
	entity, purpose := ActorFor(cfg.Workload)
	baseline := db.Counters()
	walBaseline := db.WALStats()

	hist := &Histogram{}
	opChunk := (len(ops) + cfg.Clients - 1) / cfg.Clients
	start := time.Now()
	err = fanout.Run(cfg.Clients, cfg.Clients, func(c int) error {
		lo := min(c*opChunk, len(ops))
		hi := min(lo+opChunk, len(ops))
		for i := lo; i < hi; i++ {
			op := ops[i]
			opStart := time.Now()
			err := ApplyOp(db, op, entity, purpose, cfg.ScanLimit)
			hist.RecordDuration(time.Since(opStart))
			if !Tolerable(err) {
				return fmt.Errorf("loadgen: op %v on %q: %w", op.Kind, op.Key, err)
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return Result{}, err
	}

	counters := db.Counters()
	// WAL counters cover the measured phase only (the preload's appends
	// and syncs are subtracted); MaxBatch is the whole run's high-water
	// mark, since maxima don't subtract.
	walStats := db.WALStats()
	walStats.Appends -= walBaseline.Appends
	walStats.Syncs -= walBaseline.Syncs
	res := Result{
		Workload:       string(cfg.Workload),
		Profile:        cfg.Profile.Name,
		Shards:         cfg.Shards,
		Clients:        cfg.Clients,
		Records:        cfg.Records,
		Ops:            cfg.Ops,
		LoadSeconds:    loadTime.Seconds(),
		ElapsedSeconds: elapsed.Seconds(),
		MeanMicros:     hist.Mean() / 1e3,
		P50Micros:      float64(hist.Quantile(0.50)) / 1e3,
		P95Micros:      float64(hist.Quantile(0.95)) / 1e3,
		P99Micros:      float64(hist.Quantile(0.99)) / 1e3,
		MaxMicros:      float64(hist.Max()) / 1e3,
		Denied:         counters.Denials - baseline.Denials,
		NotFound:       counters.NotFound - baseline.NotFound,
		WALAppends:     walStats.Appends,
		WALSyncs:       walStats.Syncs,
		WALMaxBatch:    walStats.MaxBatch,
		SerialWAL:      cfg.Profile.SerialWAL,
	}
	if s := elapsed.Seconds(); s > 0 {
		res.OpsPerSec = float64(cfg.Ops) / s
	}
	return res, nil
}

// ApplyOp executes one generated operation against the deployment.
func ApplyOp(db *compliance.ShardedDB, op gdprbench.Op, entity core.EntityID,
	purpose core.Purpose, scanLimit int) error {
	switch op.Kind {
	case gdprbench.OpCreate:
		return db.Create(gdprbench.Record{
			Key:        op.Key,
			Subject:    SubjectForKey(op.Key),
			Payload:    op.Payload,
			Purposes:   []string{op.Purpose},
			TTL:        1 << 40,
			Processors: []string{"processor-a"},
		})
	case gdprbench.OpReadData:
		_, err := db.ReadData(entity, purpose, op.Key)
		return err
	case gdprbench.OpUpdateData:
		return db.UpdateData(entity, purpose, op.Key, op.Payload)
	case gdprbench.OpDeleteData:
		return db.DeleteData(entity, op.Key)
	case gdprbench.OpReadMeta:
		_, err := db.ReadMeta(entity, purpose, op.Key)
		return err
	case gdprbench.OpUpdateMeta:
		return db.UpdateMeta(entity, purpose, op.Key, op.Purpose, op.NewTTL)
	case gdprbench.OpReadByMeta:
		_, err := db.ReadByMeta(entity, purpose, op.Purpose, scanLimit)
		return err
	default:
		return fmt.Errorf("loadgen: unknown op kind %v", op.Kind)
	}
}

// WALComparison pairs a group-commit run with a per-append-locking run
// of the same configuration (same seed, same op stream), isolating the
// WAL commit protocol as the only difference.
func WALComparison(cfg Config) (group, serial Result, err error) {
	cfg = cfg.withDefaults()
	cfg.Profile.SerialWAL = false
	group, err = Run(cfg)
	if err != nil {
		return group, serial, err
	}
	cfg.Profile.SerialWAL = true
	serial, err = Run(cfg)
	return group, serial, err
}
