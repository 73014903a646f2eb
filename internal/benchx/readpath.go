package benchx

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
	"github.com/datacase/datacase/internal/policy"
)

// The read-path scaling experiment: GDPRBench workloads are
// read-dominated, and before this redesign every shard serialized all
// operations behind one mutex — 16 readers went no faster than one.
// The experiment drives a pure policy-checked read stream (ReadData +
// ReadMeta on the strictest grounding, P_SYS) at growing reader counts
// over a fixed shard count, across the redesign's axes:
//
//   - lock: "shared" (the new read path) vs "exclusive" (the old
//     one-big-mutex baseline, Profile.ExclusiveReads),
//   - cache: decision cache on vs off,
//   - backend: heap vs lsm.
//
// Every run models the device latency a real deployment pays per
// payload access (Profile.IOStall): under the exclusive baseline those
// waits serialize — reader throughput is flat no matter the count —
// while the shared read path overlaps them, so throughput scales with
// readers until the CPU binds. That contrast is the point of the
// figure, and it holds on any core count.

// ReadPathLock names the two locking disciplines.
const (
	LockShared    = "shared"
	LockExclusive = "exclusive"
)

// ReadPathConfig sizes one read-path measurement.
type ReadPathConfig struct {
	// Backend is the storage engine (compliance.BackendHeap/LSM).
	Backend string
	// Readers is the closed-loop reader count.
	Readers int
	// Shards is the deployment's shard count (the scaling claim is
	// per-shard: same shard count across the reader sweep).
	Shards int
	// Records is the preloaded dataset size.
	Records int
	// Ops is the total read count, split across readers.
	Ops int
	// Cache enables the decision cache.
	Cache bool
	// Exclusive selects the one-big-mutex baseline read path.
	Exclusive bool
	// IOStall is the modeled device latency per payload access.
	IOStall time.Duration
	// Seed makes the dataset and key stream deterministic.
	Seed int64
}

// ReadPathResult is one row of BENCH_readpath.json.
type ReadPathResult struct {
	Backend       string  `json:"backend"`
	Lock          string  `json:"lock"`
	Cache         bool    `json:"cache"`
	Readers       int     `json:"readers"`
	Shards        int     `json:"shards"`
	Records       int     `json:"records"`
	Ops           int     `json:"ops"`
	IOStallMicros int64   `json:"io_stall_micros"`
	ElapsedSecs   float64 `json:"elapsed_seconds"`
	OpsPerSec     float64 `json:"ops_per_sec"`
	P50Micros     float64 `json:"p50_micros"`
	P95Micros     float64 `json:"p95_micros"`
	P99Micros     float64 `json:"p99_micros"`
	// Decision-cache work, summed over shards.
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheStaleKills    uint64 `json:"cache_stale_kills"`
	// Denied / NotFound count tolerated per-op failures (none are
	// expected on this pure-read stream over live records).
	Denied   uint64 `json:"denied"`
	NotFound uint64 `json:"not_found"`
}

// Lock returns the locking-discipline label of the config.
func (c ReadPathConfig) lock() string {
	if c.Exclusive {
		return LockExclusive
	}
	return LockShared
}

// String renders one result row.
func (r ReadPathResult) String() string {
	cache := "cache-off"
	if r.Cache {
		cache = "cache-on "
	}
	return fmt.Sprintf("readpath %-4s %-9s %s readers=%-3d shards=%d ops=%-6d %9.0f ops/s  "+
		"p50=%.1fµs p99=%.1fµs hits=%d",
		r.Backend, r.Lock, cache, r.Readers, r.Shards, r.Ops, r.OpsPerSec,
		r.P50Micros, r.P99Micros, r.CacheHits)
}

// Validate sanity-checks one row.
func (r ReadPathResult) Validate() error {
	switch {
	case r.Backend != compliance.BackendHeap && r.Backend != compliance.BackendLSM:
		return fmt.Errorf("readpath: unknown backend %q", r.Backend)
	case r.Lock != LockShared && r.Lock != LockExclusive:
		return fmt.Errorf("readpath: unknown lock discipline %q", r.Lock)
	case r.Readers <= 0 || r.Ops <= 0 || r.Records <= 0:
		return fmt.Errorf("readpath: empty run (readers=%d ops=%d records=%d)", r.Readers, r.Ops, r.Records)
	case r.OpsPerSec <= 0:
		return fmt.Errorf("readpath: non-positive throughput %f", r.OpsPerSec)
	case !r.Cache && r.CacheHits > 0:
		return fmt.Errorf("readpath: cache-off run served %d cache hits", r.CacheHits)
	case r.Cache && r.CacheHits == 0:
		return fmt.Errorf("readpath: cache-on run served no cache hits")
	case r.NotFound > 0:
		return fmt.Errorf("readpath: %d reads missed live records", r.NotFound)
	}
	return nil
}

// readPathProfile grounds P_SYS — the strictest, most compliance-taxed
// profile — on the config's backend and axes.
func readPathProfile(c ReadPathConfig) compliance.Profile {
	p := compliance.PSYS()
	p.Backend = c.Backend
	p.NoDecisionCache = !c.Cache
	p.ExclusiveReads = c.Exclusive
	p.IOStall = c.IOStall
	return p
}

// RunReadPath executes one measurement: preload Records, then Readers
// closed-loop clients replay deterministic slices of a pure read stream
// (90% ReadData / 10% ReadMeta, uniform over the dataset).
func RunReadPath(cfg ReadPathConfig) (ReadPathResult, error) {
	res := ReadPathResult{
		Backend: cfg.Backend, Lock: cfg.lock(), Cache: cfg.Cache,
		Readers: cfg.Readers, Shards: cfg.Shards,
		Records: cfg.Records, Ops: cfg.Ops,
		IOStallMicros: cfg.IOStall.Microseconds(),
	}
	if cfg.Readers <= 0 || cfg.Shards <= 0 || cfg.Records <= 0 || cfg.Ops <= 0 {
		return res, fmt.Errorf("readpath: readers, shards, records and ops must be positive: %+v", cfg)
	}
	db, err := compliance.OpenShardedWorkers(readPathProfile(cfg), cfg.Shards, cfg.Readers)
	if err != nil {
		return res, err
	}
	defer db.Close()
	recs := make([]gdprbench.Record, cfg.Records)
	for i := range recs {
		recs[i] = gdprbench.Record{
			Key:        gdprbench.KeyFor(i),
			Subject:    loadgen.SubjectForKey(gdprbench.KeyFor(i)),
			Payload:    []byte(fmt.Sprintf("payload-%06d-%06d", cfg.Seed, i)),
			Purposes:   []string{"analytics"},
			TTL:        1 << 40,
			Processors: []string{"processor-a"},
		}
	}
	ctx, dial := context.TODO(), loadgen.Local(db)
	if _, err := loadgen.Preload(ctx, dial, 1, recs); err != nil {
		return res, err
	}

	// One deterministic key stream per reader, laid end to end: the
	// driver hands each reader one contiguous slice of this length.
	perReader := (cfg.Ops + cfg.Readers - 1) / cfg.Readers
	ops := make([]gdprbench.Op, 0, cfg.Ops)
	for r := 0; r < cfg.Readers; r++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(r)*7919))
		for i, n := 0, min(perReader, cfg.Ops-len(ops)); i < n; i++ {
			kind := gdprbench.OpReadData
			if i%10 == 9 {
				kind = gdprbench.OpReadMeta
			}
			ops = append(ops, gdprbench.Op{Kind: kind, Key: gdprbench.KeyFor(rng.Intn(cfg.Records))})
		}
	}

	m, err := loadgen.Drive(ctx, dial, cfg.Readers, ops, loadgen.ActorFor(gdprbench.Controller))
	if err != nil {
		return res, err
	}
	res.ElapsedSecs, res.OpsPerSec = m.ElapsedSeconds, m.OpsPerSec
	res.P50Micros, res.P95Micros, res.P99Micros = m.P50Micros, m.P95Micros, m.P99Micros
	res.Denied, res.NotFound = m.Denied, m.NotFound
	st := sumPolicyStats(db)
	res.CacheHits = st.CacheHits
	res.CacheMisses = st.CacheMisses
	res.CacheInvalidations = st.CacheInvalidations
	res.CacheStaleKills = st.CacheStaleKills
	return res, nil
}

// sumPolicyStats merges the per-shard policy-engine counters.
func sumPolicyStats(db *compliance.ShardedDB) policy.Stats {
	var out policy.Stats
	for i := 0; i < db.NumShards(); i++ {
		st := db.Shard(i).PolicyEngine().Stats()
		out.Checks += st.Checks
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
		out.CacheInvalidations += st.CacheInvalidations
		out.CacheStaleKills += st.CacheStaleKills
	}
	return out
}

// DefaultReaderSweep is the reader-count sweep of the experiment.
func DefaultReaderSweep() []int { return []int{1, 4, 16} }

// ReadPathSweep runs the full matrix: for each backend, the shared-lock
// read path with cache on and off across the reader sweep, plus the
// exclusive-lock baseline (cache off — the seed engine's configuration)
// at the sweep's endpoints.
func ReadPathSweep(backends []string, readers []int, shards, records, ops int,
	stall time.Duration, seed int64) ([]ReadPathResult, error) {
	if len(readers) == 0 {
		return nil, fmt.Errorf("readpath: empty reader sweep")
	}
	var results []ReadPathResult
	for _, backend := range backends {
		var points []ReadPathConfig
		for _, cache := range []bool{false, true} {
			for _, n := range readers {
				points = append(points, ReadPathConfig{Readers: n, Cache: cache})
			}
		}
		// The one-big-mutex baseline: flat whatever the reader count.
		// The sweep endpoints suffice (deduplicated, so a single-element
		// reader sweep measures the baseline once, not twice).
		points = append(points, ReadPathConfig{Readers: readers[0], Exclusive: true})
		if last := readers[len(readers)-1]; last != readers[0] {
			points = append(points, ReadPathConfig{Readers: last, Exclusive: true})
		}
		for _, cfg := range points {
			cfg.Backend, cfg.Shards, cfg.Records, cfg.Ops = backend, shards, records, ops
			cfg.IOStall, cfg.Seed = stall, seed
			r, err := RunReadPath(cfg)
			if err != nil {
				return results, err
			}
			results = append(results, r)
		}
	}
	return results, nil
}

// ReadPathFigure renders the sweep as throughput-vs-readers series.
func ReadPathFigure(results []ReadPathResult) Figure {
	return seriesFigure("Read path: completion time vs concurrent readers (shared-lock + decision cache vs one big mutex)",
		"readers", len(results), func(i int) (string, float64, float64) {
			r := results[i]
			return readPathSeries(r), float64(r.Readers), r.ElapsedSecs
		})
}

// readPathSeries names a row's series: backend, lock discipline and,
// on the shared path, the cache axis.
func readPathSeries(r ReadPathResult) string {
	label := r.Backend + "/" + r.Lock
	if r.Lock == LockShared {
		if r.Cache {
			label += "/cache"
		} else {
			label += "/nocache"
		}
	}
	return label
}

// readPathParams sizes the readpath experiment.
type readPathParams struct {
	readers              []int
	shards, records, ops int
	// stallMicros is the modeled per-payload device latency in µs (see
	// the file comment: it is what makes lock-granularity effects
	// measurable on any core count).
	stallMicros int
}

var readPathSpec = spec[readPathParams, ReadPathResult]{
	name: "readpath",
	desc: "read-scaling sweep: shared-lock + decision cache vs one-big-mutex baseline; writes BENCH_readpath.json",
	presets: presets[readPathParams]{
		"default": {readers: DefaultReaderSweep(), shards: 1, records: 500, ops: 4000, stallMicros: 200},
		"ci":      {readers: DefaultReaderSweep(), shards: 1, records: 200, ops: 1500, stallMicros: 300},
	},
	run: func(s Scale, p readPathParams) ([]ReadPathResult, error) {
		stall := time.Duration(p.stallMicros) * time.Microsecond
		return ReadPathSweep(Backends(), p.readers, p.shards, p.records, p.ops, stall, 1)
	},
	check:  checkReadPath,
	figure: ReadPathFigure,
	notes: func(rows []ReadPathResult) []string {
		var out []string
		for _, backend := range Backends() {
			for _, cache := range []bool{false, true} {
				if factor, ok := ReadScaling(rows, backend, cache); ok {
					out = append(out, fmt.Sprintf("  %s cache=%-5v: widest sweep point delivers %.1fx single-reader throughput",
						backend, cache, factor))
				}
			}
		}
		return out
	},
}

// readScalingFloor is the redesign's acceptance property: on every
// (backend, cache) series of the shared-lock read path, the widest
// reader count must deliver at least this multiple of the
// single-reader throughput on the same shard count.
const readScalingFloor = 3.0

// ReadScaling returns the widest-vs-1 reader throughput factor of the
// shared-lock series for (backend, cache), and whether both endpoints
// were present.
func ReadScaling(rows []ReadPathResult, backend string, cache bool) (float64, bool) {
	var single, widest float64
	maxReaders := 0
	for _, r := range rows {
		if r.Backend != backend || r.Cache != cache || r.Lock != LockShared {
			continue
		}
		if r.Readers == 1 {
			single = r.OpsPerSec
		}
		if r.Readers > maxReaders {
			maxReaders = r.Readers
			widest = r.OpsPerSec
		}
	}
	if single <= 0 || maxReaders < 2 {
		return 0, false
	}
	return widest / single, true
}

// checkReadPath holds the gates that span rows: one shard count
// throughout (the scaling claim is per shard count), the
// shared-lock sweep a full backend x cache x readers grid with the
// exclusive baseline beside it, and every shared series clearing
// readScalingFloor.
func checkReadPath(rows []ReadPathResult) error {
	var shared []ReadPathResult
	baseline := map[string]bool{}
	for _, r := range rows {
		if r.Shards != rows[0].Shards {
			return fmt.Errorf("report mixes shard counts (%d vs %d) — the scaling claim is per shard count",
				r.Shards, rows[0].Shards)
		}
		if r.Lock == LockShared {
			shared = append(shared, r)
		} else {
			baseline[r.Backend] = true
		}
	}
	var series []string
	for _, backend := range Backends() {
		if !baseline[backend] {
			return fmt.Errorf("%s has no exclusive-lock baseline row", backend)
		}
		for _, cache := range []bool{false, true} {
			series = append(series, readPathSeries(ReadPathResult{Backend: backend, Lock: LockShared, Cache: cache}))
		}
	}
	err := missing(shared, readPathSeries, func(r ReadPathResult) int { return r.Readers }, series)
	if err != nil {
		return err
	}
	for _, backend := range Backends() {
		for _, cache := range []bool{false, true} {
			factor, ok := ReadScaling(rows, backend, cache)
			if !ok {
				return fmt.Errorf("%s cache=%v lacks a single-reader point and a wider one", backend, cache)
			}
			if factor < readScalingFloor {
				return fmt.Errorf(
					"%s cache=%v scales only %.2fx from 1 reader to the widest sweep point (want >= %.0fx)",
					backend, cache, factor, readScalingFloor)
			}
		}
	}
	return nil
}
