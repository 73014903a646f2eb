package benchx

import (
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
)

// The durableheap experiment: what does "pages ARE the durable state"
// buy? The mmap backend's checkpoint is a page-table snapshot plus a
// redo-log scrub — O(dirty pages), no row encoding — and its recovery
// attaches the persisted region and replays only the WAL tail past the
// region's applied LSN. The row-image backends re-encode the whole
// table at every checkpoint and re-decode + re-load it at recovery.
//
// Each point runs the same three phases on one deployment per backend:
//
//  1. A timed batched ingest of the record population (large values —
//     the durability cost under test is proportional to value bytes on
//     the row-image backends and to page metadata on mmap).
//  2. Timed checkpoint cycles: touch a small dirty set, then force a
//     full checkpoint on every shard. Row-image backends pay
//     O(table bytes) per cycle, mmap pays O(page table).
//  3. An untimed post-checkpoint tail: the deployment keeps serving
//     updates after its last checkpoint, then crashes. This is the
//     recovery contrast's substance — the row-image backends must
//     redo the whole tail row by row, while the mmap region already
//     applied every op before the crash and the recovery walk skips
//     the tail via the region's applied LSN.
//  4. A timed crash recovery from the captured WAL segment images
//     (plus region snapshots on mmap), cross-checked against the
//     pre-crash record count.
//
// checkDurableHeap enforces the tentpole's measured claims:
// heap recovery >= durableHeapRecoverFloor x mmap recovery, and heap
// checkpoint cost >= durableHeapCheckpointFloor x mmap checkpoint cost.

// DurableHeapResult is one backend's measured point.
type DurableHeapResult struct {
	Backend string `json:"backend"`
	Profile string `json:"profile"`
	// Records/ValueBytes/Shards size the population; every backend runs
	// the identical workload.
	Records    int `json:"records"`
	ValueBytes int `json:"value_bytes"`
	Shards     int `json:"shards"`
	// Checkpoints is how many touch-then-checkpoint cycles phase 2 ran;
	// CheckpointSeconds is their summed forced-checkpoint wall time
	// (the touches are untimed).
	Checkpoints       int     `json:"checkpoints"`
	CheckpointSeconds float64 `json:"checkpoint_seconds"`
	// WALTailOps is how many updates ran after the last checkpoint and
	// before the crash — the tail the row-image backends must replay.
	WALTailOps int `json:"wal_tail_ops"`
	// IngestSeconds/IngestPerSec time phase 1's batched ingest.
	IngestSeconds float64 `json:"ingest_seconds"`
	IngestPerSec  float64 `json:"ingest_per_sec"`
	// RecoverSeconds times the crash rebuild; RecoveredRecords is the
	// rebuilt deployment's record count (must equal Records).
	RecoverSeconds   float64 `json:"recover_seconds"`
	RecoveredRecords int     `json:"recovered_records"`
}

func (r DurableHeapResult) String() string {
	return fmt.Sprintf("durableheap %-4s: %d recs x %dB in %.3fs (%.0f rec/s), %d ckpts %.4fs, tail %d ops, recover %.4fs (%d recs)",
		r.Backend, r.Records, r.ValueBytes, r.IngestSeconds, r.IngestPerSec,
		r.Checkpoints, r.CheckpointSeconds, r.WALTailOps, r.RecoverSeconds, r.RecoveredRecords)
}

// Validate sanity-checks one result.
func (r DurableHeapResult) Validate() error {
	switch {
	case r.Backend != compliance.BackendHeap && r.Backend != compliance.BackendLSM &&
		r.Backend != compliance.BackendMmap:
		return fmt.Errorf("durableheap: unknown backend %q", r.Backend)
	case r.Records <= 0 || r.ValueBytes <= 0 || r.Shards <= 0:
		return fmt.Errorf("durableheap: empty run (records=%d valueBytes=%d shards=%d)",
			r.Records, r.ValueBytes, r.Shards)
	case r.IngestSeconds <= 0 || r.IngestPerSec <= 0:
		return fmt.Errorf("durableheap: non-positive ingest timing (%.6fs)", r.IngestSeconds)
	case r.Checkpoints <= 0 || r.CheckpointSeconds <= 0:
		return fmt.Errorf("durableheap: non-positive checkpoint timing (%d cycles, %.6fs)",
			r.Checkpoints, r.CheckpointSeconds)
	case r.WALTailOps <= 0:
		return fmt.Errorf("durableheap: no post-checkpoint WAL tail (the recovery contrast's substance)")
	case r.RecoverSeconds <= 0:
		return fmt.Errorf("durableheap: non-positive recovery timing (%.6fs)", r.RecoverSeconds)
	case r.RecoveredRecords != r.Records:
		return fmt.Errorf("durableheap: recovery rebuilt %d of %d records",
			r.RecoveredRecords, r.Records)
	}
	return nil
}

// The acceptance floors the committed report must clear: mmap recovery
// at least 2x faster than the heap's image-replay rebuild, and mmap's
// forced-checkpoint cost at least 5x cheaper than the heap's full
// row-image encode.
const (
	durableHeapRecoverFloor    = 2.0
	durableHeapCheckpointFloor = 5.0
)

// DurableHeapBackends is this experiment's own three-backend axis. It
// is deliberately not Backends(): the two-backend list shapes other
// reports (and their gates), which must not grow a third series.
func DurableHeapBackends() []string {
	return []string{compliance.BackendHeap, compliance.BackendLSM, compliance.BackendMmap}
}

// durableHeapTouchDivisor sets phase 2's dirty set: records/divisor
// rows updated before each forced checkpoint (minimum 1).
const durableHeapTouchDivisor = 20

// durableHeapBatch is the ingest batch size; amortization is not the
// axis here, so every backend uses the same fixed batch.
const durableHeapBatch = 256

func durableHeapRecord(i, valueBytes int, seed int64) gdprbench.Record {
	payload := make([]byte, valueBytes)
	// Deterministic, position-dependent bytes so values don't compress
	// to anything degenerate and runs are reproducible per seed.
	for j := range payload {
		payload[j] = byte(int64(i*131+j*31) + seed)
	}
	return gdprbench.Record{
		Key:        gdprbench.KeyFor(i),
		Subject:    ingestSubject(i),
		Payload:    payload,
		Purposes:   []string{"analytics"},
		TTL:        1 << 40,
		Processors: []string{"processor-a"},
	}
}

// durableHeapTailFactor sets phase 3's post-checkpoint WAL tail:
// records*factor updates between the last checkpoint and the crash.
const durableHeapTailFactor = 2

// RunDurableHeap runs the four phases on one backend and returns its
// measured point.
func RunDurableHeap(backend string, records, valueBytes, shards, checkpoints int, seed int64) (DurableHeapResult, error) {
	res := DurableHeapResult{
		Backend: backend, Records: records, ValueBytes: valueBytes,
		Shards: shards, Checkpoints: checkpoints,
	}
	p := backendProfile(backend)
	// Checkpoint cost is phase 2's explicitly-timed axis: no cadence
	// checkpoints, no delta frames — every forced checkpoint is full.
	p.CheckpointEveryOps = 0
	p.CheckpointEveryBytes = 0
	p.IncrementalCheckpoints = false
	res.Profile = p.Name
	s, err := compliance.OpenSharded(p, shards)
	if err != nil {
		return res, err
	}
	defer s.Close()

	// Phase 1: timed batched ingest.
	batch := make([]gdprbench.Record, 0, durableHeapBatch)
	start := time.Now()
	for i := 0; i < records; i += durableHeapBatch {
		batch = batch[:0]
		for j := i; j < i+durableHeapBatch && j < records; j++ {
			batch = append(batch, durableHeapRecord(j, valueBytes, seed))
		}
		if _, err := s.IngestBatch(batch); err != nil {
			return res, fmt.Errorf("durableheap: batch at %d: %w", i, err)
		}
	}
	res.IngestSeconds = time.Since(start).Seconds()
	if res.IngestSeconds > 0 {
		res.IngestPerSec = float64(records) / res.IngestSeconds
	}
	if got := s.Len(); got != records {
		return res, fmt.Errorf("durableheap: deployment holds %d records after ingesting %d", got, records)
	}

	// Phase 2: timed forced checkpoints. Each cycle dirties a distinct
	// small slice (untimed), then forces a checkpoint on every shard
	// (timed). The row-image backends re-encode the whole table each
	// cycle; mmap snapshots its page table and scrubs the redo log.
	touch := records / durableHeapTouchDivisor
	if touch < 1 {
		touch = 1
	}
	var ckpt time.Duration
	for cycle := 0; cycle < checkpoints; cycle++ {
		for u := 0; u < touch; u++ {
			i := (cycle*touch + u) % records
			rec := durableHeapRecord(i, valueBytes, seed+int64(cycle)+1)
			err := s.UpdateData(compliance.EntityController, compliance.PurposeService,
				rec.Key, rec.Payload)
			if err != nil {
				return res, fmt.Errorf("durableheap: cycle-%d touch %d: %w", cycle, i, err)
			}
		}
		t := time.Now()
		for i := 0; i < s.NumShards(); i++ {
			s.Shard(i).Checkpoint()
		}
		ckpt += time.Since(t)
	}
	res.CheckpointSeconds = ckpt.Seconds()

	// Phase 3: the untimed post-checkpoint tail. The deployment keeps
	// serving after its last checkpoint; every op here is WAL-tail work
	// the row-image backends redo at recovery and the region skips.
	res.WALTailOps = records * durableHeapTailFactor
	for u := 0; u < res.WALTailOps; u++ {
		i := u % records
		rec := durableHeapRecord(i, valueBytes, seed-int64(u)-1)
		err := s.UpdateData(compliance.EntityController, compliance.PurposeService,
			rec.Key, rec.Payload)
		if err != nil {
			return res, fmt.Errorf("durableheap: tail op %d: %w", u, err)
		}
	}

	// Phase 4: timed crash recovery. Images first, then regions — the
	// capture order ShardedDB.Recover uses (see its ordering comment).
	images := s.SegmentImages()
	regions := s.RegionSnapshots()
	t := time.Now()
	var (
		r  *compliance.ShardedDB
		st compliance.RecoveryStats
	)
	if regions != nil {
		r, st, err = compliance.RecoverShardedWithRegions(s.Profile(), images, regions)
	} else {
		r, st, err = compliance.RecoverSharded(s.Profile(), images)
	}
	if err != nil {
		return res, fmt.Errorf("durableheap: recover %s: %w", backend, err)
	}
	res.RecoverSeconds = time.Since(t).Seconds()
	defer r.Close()
	res.RecoveredRecords = r.Len()
	if st.Shards != shards {
		return res, fmt.Errorf("durableheap: recovery rebuilt %d of %d shards", st.Shards, shards)
	}
	return res, nil
}

// durableHeapParams sizes the durableheap experiment.
type durableHeapParams struct {
	records, valueBytes, shards, checkpoints int
}

var durableHeapSpec = spec[durableHeapParams, DurableHeapResult]{
	name: "durableheap",
	desc: "mmap durable-heap engine vs row-image backends: ingest, forced-checkpoint cost, crash recovery; writes BENCH_durableheap.json",
	presets: presets[durableHeapParams]{
		"default": {records: 6000, valueBytes: 4096, shards: 4, checkpoints: 3},
		"ci":      {records: 1500, valueBytes: 2048, shards: 2, checkpoints: 3},
	},
	run: func(s Scale, p durableHeapParams) ([]DurableHeapResult, error) {
		return perBackend(DurableHeapBackends(), func(backend string) (DurableHeapResult, error) {
			return RunDurableHeap(backend, p.records, p.valueBytes, p.shards, p.checkpoints, s.Seed)
		})
	},
	check:  checkDurableHeap,
	figure: DurableHeapFigure,
}

// checkDurableHeap checks that each of the three backends was
// measured, and the cross-backend acceptance floors: mmap
// must recover >= durableHeapRecoverFloor x faster and checkpoint >=
// durableHeapCheckpointFloor x cheaper than the heap baseline.
func checkDurableHeap(rows []DurableHeapResult) error {
	byBackend := make(map[string]DurableHeapResult, len(rows))
	for _, r := range rows {
		byBackend[r.Backend] = r
	}
	err := onePerBackend(rows, func(r DurableHeapResult) string { return r.Backend }, DurableHeapBackends())
	if err != nil {
		return err
	}
	heap, mmap := byBackend[compliance.BackendHeap], byBackend[compliance.BackendMmap]
	if heap.RecoverSeconds < durableHeapRecoverFloor*mmap.RecoverSeconds {
		return fmt.Errorf("mmap recovery only %.2fx faster than heap (floor %.1fx): heap %.4fs, mmap %.4fs",
			heap.RecoverSeconds/mmap.RecoverSeconds, durableHeapRecoverFloor,
			heap.RecoverSeconds, mmap.RecoverSeconds)
	}
	if heap.CheckpointSeconds < durableHeapCheckpointFloor*mmap.CheckpointSeconds {
		return fmt.Errorf("mmap checkpoints only %.2fx cheaper than heap (floor %.1fx): heap %.4fs, mmap %.4fs",
			heap.CheckpointSeconds/mmap.CheckpointSeconds, durableHeapCheckpointFloor,
			heap.CheckpointSeconds, mmap.CheckpointSeconds)
	}
	return nil
}

// DurableHeapFigure renders the rows as per-backend bars of the three
// phase timings.
func DurableHeapFigure(rows []DurableHeapResult) Figure {
	phases := []struct {
		label string
		pick  func(DurableHeapResult) float64
	}{
		{"ingest", func(r DurableHeapResult) float64 { return r.IngestSeconds }},
		{"checkpoint", func(r DurableHeapResult) float64 { return r.CheckpointSeconds }},
		{"recover", func(r DurableHeapResult) float64 { return r.RecoverSeconds }},
	}
	return seriesFigure("Durable heap: ingest / forced-checkpoint / recovery wall time per backend",
		"backend (1=heap 2=lsm 3=mmap)", len(phases)*len(rows), func(i int) (string, float64, float64) {
			ph, b := phases[i/len(rows)], i%len(rows)
			return ph.label, float64(b + 1), ph.pick(rows[b])
		})
}
