package benchx

import (
	"fmt"
	"sync"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
)

// The ingest experiment: what does batched admission buy, and what do
// incremental checkpoints cost? Each point runs two phases on one
// deployment.
//
// Phase 1 (timed) ingests the record population through IngestBatch at
// a swept batch size — batch 1 is the one-lock-one-sync-per-record
// baseline, batch 256 amortizes the shard lock, the policy
// adjudication, the cipher setup and the WAL sync across the whole
// batch — under a modeled per-sync device stall (ingestSyncStall), the
// fsync cost the in-memory WAL otherwise elides and the cost batching
// exists to amortize.
//
// Phase 2 (untimed) measures checkpoint economics on the now-full
// table: each round updates a small set of rows and forces a
// checkpoint on every shard, so a delta frame carries only the dirty
// rows while a full image carries the whole table. The reported
// delta-to-full byte ratio is the O(dirty) vs O(table) claim, measured
// rather than asserted. A pure-ingest run cannot measure this — there
// every delta is all-fresh rows on a table the same age, so delta and
// full sizes converge by construction.

// IngestResult is one (backend, batch size, checkpoint mode) point.
type IngestResult struct {
	Backend string `json:"backend"`
	Profile string `json:"profile"`
	Shards  int    `json:"shards"`
	// BatchSize is the records-per-IngestBatch of this point; 1 is the
	// unbatched baseline.
	BatchSize int `json:"batch_size"`
	// Records is the number of records ingested (the timed work).
	Records int `json:"records"`
	// CheckpointEveryOps is the per-shard checkpoint cadence the ingest
	// ran under.
	CheckpointEveryOps int `json:"checkpoint_every_ops"`
	// IncrementalCheckpoints reports the checkpoint mode: dirty-row
	// delta frames (true) or full images every time (false).
	IncrementalCheckpoints bool `json:"incremental_checkpoints"`
	// WALSyncStallMicros is the modeled per-sync device latency the
	// ingest ran under (the cost batching amortizes).
	WALSyncStallMicros float64 `json:"wal_sync_stall_micros"`
	// Seconds is the wall time of the ingest; RecordsPerSecond is the
	// throughput it implies.
	Seconds          float64 `json:"seconds"`
	RecordsPerSecond float64 `json:"records_per_second"`
	// WALAppends/WALSyncs expose the amortization mechanism: batched
	// ingest commits many appends per sync, the baseline one. Snapshotted
	// at the end of phase 1, so they cover the timed ingest only.
	WALAppends uint64 `json:"wal_appends"`
	WALSyncs   uint64 `json:"wal_syncs"`
	// CheckpointRounds/UpdatedPerRound describe the untimed phase 2:
	// each round overwrites UpdatedPerRound rows and forces a checkpoint
	// on every shard.
	CheckpointRounds int `json:"checkpoint_rounds"`
	UpdatedPerRound  int `json:"updated_per_round"`
	// FullCheckpoints/DeltaCheckpoints count the phase-2 checkpoints by
	// kind; the Mean*Bytes fields average their emitted frame sizes.
	FullCheckpoints          uint64  `json:"full_checkpoints"`
	DeltaCheckpoints         uint64  `json:"delta_checkpoints"`
	MeanFullCheckpointBytes  float64 `json:"mean_full_checkpoint_bytes"`
	MeanDeltaCheckpointBytes float64 `json:"mean_delta_checkpoint_bytes"`
	// DeltaToFullRatio is MeanDelta/MeanFull (0 when either kind was
	// never taken): the measured O(dirty)/O(table) proportionality.
	DeltaToFullRatio float64 `json:"delta_to_full_ratio"`
}

func (r IngestResult) String() string {
	mode := "full-ckpt"
	if r.IncrementalCheckpoints {
		mode = fmt.Sprintf("delta-ckpt(ratio %.3f)", r.DeltaToFullRatio)
	}
	return fmt.Sprintf("ingest %s/batch=%d/%s: %d records in %.4fs (%.0f rec/s, %d appends / %d syncs)",
		r.Backend, r.BatchSize, mode, r.Records, r.Seconds,
		r.RecordsPerSecond, r.WALAppends, r.WALSyncs)
}

// Validate sanity-checks one result.
func (r IngestResult) Validate() error {
	switch {
	case r.Backend != compliance.BackendHeap && r.Backend != compliance.BackendLSM:
		return fmt.Errorf("ingest: unknown backend %q", r.Backend)
	case r.BatchSize <= 0:
		return fmt.Errorf("ingest: bad batch size %d", r.BatchSize)
	case r.Records <= 0:
		return fmt.Errorf("ingest: no records ingested")
	case r.Shards <= 0:
		return fmt.Errorf("ingest: bad shard count %d", r.Shards)
	case r.Seconds <= 0 || r.RecordsPerSecond <= 0:
		return fmt.Errorf("ingest: non-positive timing (%.6fs, %.2f rec/s)", r.Seconds, r.RecordsPerSecond)
	case r.WALSyncs == 0 || r.WALAppends < uint64(r.Records):
		return fmt.Errorf("ingest: implausible WAL work (appends=%d syncs=%d for %d records)",
			r.WALAppends, r.WALSyncs, r.Records)
	case r.FullCheckpoints == 0:
		return fmt.Errorf("ingest: checkpoint phase took no full checkpoints")
	case r.IncrementalCheckpoints && r.DeltaCheckpoints == 0:
		return fmt.Errorf("ingest: incremental run took no delta checkpoints")
	case r.IncrementalCheckpoints && r.DeltaToFullRatio >= ingestDeltaRatioCeiling:
		return fmt.Errorf("ingest: delta checkpoints average %.3f of a full image (ceiling %.1f): bytes must follow dirty rows, not table size",
			r.DeltaToFullRatio, ingestDeltaRatioCeiling)
	case !r.IncrementalCheckpoints && r.DeltaCheckpoints != 0:
		return fmt.Errorf("ingest: full-image run took %d delta checkpoints", r.DeltaCheckpoints)
	}
	return nil
}

// ingestSpeedupFloor is the gate the batching tentpole must clear: the
// largest swept batch size must ingest at least this many times faster
// than batch 1, per backend and checkpoint mode.
// ingestDeltaRatioCeiling is the incremental-checkpoint economics gate:
// on every incremental series delta frames must average well under the
// full images taken on the same series.
const (
	ingestSpeedupFloor      = 2.0
	ingestDeltaRatioCeiling = 0.5
)

// ingestParams sizes the ingest experiment.
type ingestParams struct {
	batches                          []int
	records, shards, checkpointEvery int
}

var ingestSpec = spec[ingestParams, IngestResult]{
	name: "ingest",
	desc: "batched write admission sweep: batch size × backend × full/incremental checkpoints; writes BENCH_ingest.json",
	presets: presets[ingestParams]{
		"default": {batches: IngestBatchSizes(), records: 4096, shards: 4, checkpointEvery: 64},
		"ci":      {batches: IngestBatchSizes(), records: 1024, shards: 2, checkpointEvery: 32},
	},
	// The full grid: backend × checkpoint mode × batch size, each point
	// on a fresh deployment ingesting the same records.
	run: func(_ Scale, p ingestParams) ([]IngestResult, error) {
		var results []IngestResult
		for _, backend := range Backends() {
			for _, incremental := range []bool{false, true} {
				for _, bs := range p.batches {
					r, err := RunIngest(backend, p.records, bs, p.shards, p.checkpointEvery, incremental)
					if err != nil {
						return results, fmt.Errorf("ingest %s batch=%d incr=%v: %w", backend, bs, incremental, err)
					}
					results = append(results, r)
				}
			}
		}
		return results, nil
	},
	check:  checkIngest,
	figure: IngestFigure,
}

// ingestSeries names a row's series: backend and checkpoint mode.
func ingestSeries(backend string, incremental bool) string {
	if incremental {
		return backend + "/delta-ckpt"
	}
	return backend + "/full-ckpt"
}

// checkIngest holds the gates that span rows (the delta-ratio ceiling
// is per row, in Validate): the sweep a full backend x checkpoint mode
// x batch size grid, and on every series that swept batch 1 the
// largest batch beating it by ingestSpeedupFloor.
func checkIngest(rows []IngestResult) error {
	seriesOf := func(r IngestResult) string { return ingestSeries(r.Backend, r.IncrementalCheckpoints) }
	var series []string
	for _, backend := range Backends() {
		series = append(series, ingestSeries(backend, false), ingestSeries(backend, true))
	}
	err := missing(rows, seriesOf, func(r IngestResult) int { return r.BatchSize }, series)
	if err != nil {
		return err
	}
	unbatched, widest := map[string]float64{}, map[string]IngestResult{}
	for _, r := range rows {
		if r.BatchSize == 1 {
			unbatched[seriesOf(r)] = r.RecordsPerSecond
		}
		if r.BatchSize > widest[seriesOf(r)].BatchSize {
			widest[seriesOf(r)] = r
		}
	}
	for key, best := range widest {
		base, swept := unbatched[key]
		if swept && best.BatchSize > 1 && best.RecordsPerSecond < ingestSpeedupFloor*base {
			return fmt.Errorf("%s: batch %d only %.2fx batch 1 (floor %.1fx)",
				key, best.BatchSize, best.RecordsPerSecond/base, ingestSpeedupFloor)
		}
	}
	return nil
}

// ingestSubject groups every 8th key onto one data subject, like the
// recovery workload, so batches fan out across subjects and shards.
func ingestSubject(i int) string { return fmt.Sprintf("ingest-subject-%05d", i/8) }

func ingestRecord(i int) gdprbench.Record {
	return gdprbench.Record{
		Key:        gdprbench.KeyFor(i),
		Subject:    ingestSubject(i),
		Payload:    []byte(fmt.Sprintf("ingest-payload-%08d", i)),
		Purposes:   []string{"analytics"},
		TTL:        1 << 40,
		Processors: []string{"processor-a"},
	}
}

// ingestSyncStall is the modeled per-sync device latency the timed
// phase runs under: a fast NVMe fsync. Without it the in-memory WAL
// syncs for free and the batch-size axis measures only lock traffic;
// with it the experiment reproduces the economics batching exists for
// — batch 1 pays one stall per record, batch N one per N records.
const ingestSyncStall = 50 * time.Microsecond

// ingestCheckpointRounds is how many update-then-checkpoint rounds the
// untimed phase 2 runs; ingestUpdateDivisor sets the dirty-set size per
// round (records/ingestUpdateDivisor rows, minimum 1).
const (
	ingestCheckpointRounds = 8
	ingestUpdateDivisor    = 64
)

// ingestFullEvery caps the delta chain during phase 2: every 4th
// incremental checkpoint is forced full, so the phase measures both
// kinds on the same fully-populated table.
const ingestFullEvery = 4

// ingestWarm runs one small throwaway ingest before the first timed
// point, so the sweep compares warm runs against warm runs instead of
// charging code-path warm-up to whichever point happens to run first.
var ingestWarm sync.Once

func ingestWarmup() {
	ingestWarm.Do(func() {
		p := backendProfile(compliance.BackendHeap)
		db, err := compliance.OpenSharded(p, 2)
		if err != nil {
			return
		}
		defer db.Close()
		batch := make([]gdprbench.Record, 0, 8)
		for i := 0; i < 128; i += 8 {
			batch = batch[:0]
			for j := i; j < i+8; j++ {
				batch = append(batch, ingestRecord(j))
			}
			if _, err := db.IngestBatch(batch); err != nil {
				return
			}
		}
	})
}

// RunIngest runs one experiment point: a timed batched ingest of
// records (phase 1), then an untimed checkpoint-economics measurement
// (phase 2) of ingestCheckpointRounds rounds, each overwriting a
// distinct small slice of rows and forcing a checkpoint on every
// shard. Throughput comes from phase 1 only; the per-kind checkpoint
// counts and byte means come from phase 2 only.
func RunIngest(backend string, records, batchSize, shards, checkpointEvery int, incremental bool) (IngestResult, error) {
	if batchSize <= 0 {
		return IngestResult{}, fmt.Errorf("ingest: batch size must be positive, got %d", batchSize)
	}
	ingestWarmup()
	p := backendProfile(backend)
	p.CheckpointEveryOps = checkpointEvery
	p.CheckpointEveryBytes = 0
	p.IncrementalCheckpoints = incremental
	p.FullCheckpointEvery = ingestFullEvery
	p.WALSyncStall = ingestSyncStall
	db, err := compliance.OpenSharded(p, shards)
	if err != nil {
		return IngestResult{}, err
	}
	defer db.Close()

	// Phase 1: timed ingest.
	batch := make([]gdprbench.Record, 0, batchSize)
	start := time.Now()
	for i := 0; i < records; i += batchSize {
		batch = batch[:0]
		for j := i; j < i+batchSize && j < records; j++ {
			batch = append(batch, ingestRecord(j))
		}
		if _, err := db.IngestBatch(batch); err != nil {
			return IngestResult{}, fmt.Errorf("ingest: batch at %d: %w", i, err)
		}
	}
	elapsed := time.Since(start)

	res := IngestResult{
		Backend: backend, Profile: p.Name, Shards: shards,
		BatchSize: batchSize, Records: records,
		CheckpointEveryOps:     checkpointEvery,
		IncrementalCheckpoints: incremental,
		WALSyncStallMicros:     float64(ingestSyncStall) / float64(time.Microsecond),
		Seconds:                elapsed.Seconds(),
	}
	if res.Seconds > 0 {
		res.RecordsPerSecond = float64(records) / res.Seconds
	}
	ws := db.WALStats()
	res.WALAppends = ws.Appends
	res.WALSyncs = ws.Syncs
	if got := db.Len(); got != records {
		return res, fmt.Errorf("ingest: deployment holds %d records after ingesting %d", got, records)
	}

	// Phase 2: untimed checkpoint economics. Each round dirties a
	// distinct slice of rows, then forces a checkpoint on every shard:
	// incremental deployments emit a delta frame carrying roughly that
	// round's dirty rows (with a full image every ingestFullEvery-th),
	// full-image deployments re-emit the whole table each time. The
	// counters are snapshotted around the phase so the reported means
	// are not diluted by phase-1 checkpoints, whose deltas were
	// all-fresh rows on a table the same size.
	res.CheckpointRounds = ingestCheckpointRounds
	res.UpdatedPerRound = records / ingestUpdateDivisor
	if res.UpdatedPerRound < 1 {
		res.UpdatedPerRound = 1
	}
	before := db.Counters()
	for round := 0; round < ingestCheckpointRounds; round++ {
		for u := 0; u < res.UpdatedPerRound; u++ {
			i := (round*res.UpdatedPerRound + u) % records
			err := db.UpdateData(compliance.EntityController, compliance.PurposeService,
				gdprbench.KeyFor(i), []byte(fmt.Sprintf("ingest-rewrite-%d-%d", round, i)))
			if err != nil {
				return res, fmt.Errorf("ingest: phase-2 update %d: %w", i, err)
			}
		}
		for s := 0; s < db.NumShards(); s++ {
			db.Shard(s).Checkpoint()
		}
	}
	after := db.Counters()

	res.DeltaCheckpoints = after.DeltaCheckpoints - before.DeltaCheckpoints
	res.FullCheckpoints = (after.Checkpoints - after.DeltaCheckpoints) -
		(before.Checkpoints - before.DeltaCheckpoints)
	if res.FullCheckpoints > 0 {
		res.MeanFullCheckpointBytes = float64(after.FullCheckpointBytes-before.FullCheckpointBytes) /
			float64(res.FullCheckpoints)
	}
	if res.DeltaCheckpoints > 0 {
		res.MeanDeltaCheckpointBytes = float64(after.DeltaCheckpointBytes-before.DeltaCheckpointBytes) /
			float64(res.DeltaCheckpoints)
	}
	if res.MeanFullCheckpointBytes > 0 && res.MeanDeltaCheckpointBytes > 0 {
		res.DeltaToFullRatio = res.MeanDeltaCheckpointBytes / res.MeanFullCheckpointBytes
	}
	return res, nil
}

// IngestBatchSizes is the swept batch-size axis: the unbatched
// baseline, a modest group, and a full amortization window.
func IngestBatchSizes() []int { return []int{1, 16, 256} }

// IngestFigure renders sweep results as throughput vs batch size, one
// series per backend and checkpoint mode.
func IngestFigure(results []IngestResult) Figure {
	return seriesFigure("Ingest: throughput vs batch size (full vs incremental checkpoints)", "batch size",
		len(results), func(i int) (string, float64, float64) {
			r := results[i]
			return ingestSeries(r.Backend, r.IncrementalCheckpoints), float64(r.BatchSize), r.Seconds
		})
}
