package benchx

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
)

// The recovery experiment: how fast does a crashed deployment come
// back, as a function of WAL length, with and without checkpoints? Two
// identical deployments run the same seeded write stream; one
// checkpoints periodically (snapshot + log truncation), the other keeps
// the full history. Both are then "crashed" (their durable segment
// images taken) and recovered, and the rebuild is timed. The
// checkpointed log replays only the tail past the last snapshot, so its
// recovery time is bounded by the checkpoint interval instead of the
// workload length — the claim BENCH_recovery.json records and
// checkRecovery gates.

// RecoveryResult is one recovered deployment (one row of
// BENCH_recovery.json).
type RecoveryResult struct {
	// Ops is the number of mutating operations the deployment ran after
	// the preload.
	Ops int `json:"ops"`
	// Records is the preloaded dataset size.
	Records int `json:"records"`
	// Shards is the deployment's shard count.
	Shards int `json:"shards"`
	// Profile names the compliance profile.
	Profile string `json:"profile"`
	// Checkpointed reports whether the deployment ran the periodic
	// checkpointer.
	Checkpointed bool `json:"checkpointed"`
	// CheckpointEveryOps is the per-shard checkpoint interval (0 when
	// not checkpointing).
	CheckpointEveryOps int `json:"checkpoint_every_ops"`
	// WALRecords and WALBytes size the durable log at crash time,
	// summed over shards.
	WALRecords int   `json:"wal_records"`
	WALBytes   int64 `json:"wal_bytes"`
	// RecoverSeconds is the wall time of the rebuild.
	RecoverSeconds float64 `json:"recover_seconds"`
	// CheckpointRows and RecordsReplayed split the rebuild's work:
	// rows bulk-loaded from snapshots vs WAL records redone.
	CheckpointRows  int `json:"checkpoint_rows"`
	RecordsReplayed int `json:"records_replayed"`
	// ErasureRedos counts erase intents redone during replay.
	ErasureRedos int `json:"erasure_redos"`
	// RecoveredRecords is the live record count after the rebuild (a
	// correctness cross-check: both variants must agree).
	RecoveredRecords int `json:"recovered_records"`
}

func (r RecoveryResult) String() string {
	mode := "full-replay"
	if r.Checkpointed {
		mode = fmt.Sprintf("checkpointed(every %d ops)", r.CheckpointEveryOps)
	}
	return fmt.Sprintf("recovery %s/%s: ops=%d wal=%d records (%d B) -> %.4fs (%d snapshot rows + %d replayed)",
		r.Profile, mode, r.Ops, r.WALRecords, r.WALBytes,
		r.RecoverSeconds, r.CheckpointRows, r.RecordsReplayed)
}

// Validate sanity-checks one result.
func (r RecoveryResult) Validate() error {
	switch {
	case r.Ops <= 0:
		return fmt.Errorf("recovery: result has no ops")
	case r.Shards <= 0:
		return fmt.Errorf("recovery: bad shard count %d", r.Shards)
	case r.WALRecords <= 0 || r.WALBytes <= 0:
		return fmt.Errorf("recovery: empty WAL (records=%d bytes=%d)", r.WALRecords, r.WALBytes)
	case r.RecoverSeconds <= 0:
		return fmt.Errorf("recovery: non-positive recovery time %f", r.RecoverSeconds)
	case r.RecoveredRecords <= 0:
		return fmt.Errorf("recovery: recovered no records")
	case r.Checkpointed && r.CheckpointRows == 0:
		return fmt.Errorf("recovery: checkpointed run loaded no snapshot rows")
	}
	return nil
}

// recoveryParams sizes the recovery experiment.
type recoveryParams struct {
	ops                              []int // WAL lengths swept
	records, shards, checkpointEvery int
}

var recoverySpec = spec[recoveryParams, RecoveryResult]{
	name: "recovery",
	desc: "crash-recovery sweep, full replay vs checkpointed; writes BENCH_recovery.json",
	presets: presets[recoveryParams]{
		"default": {ops: []int{20000, 100000}, records: 5000, shards: 8, checkpointEvery: 2000},
		"ci":      {ops: []int{2000, 4000}, records: 800, shards: 4, checkpointEvery: 500},
	},
	run: func(s Scale, p recoveryParams) ([]RecoveryResult, error) {
		return RecoverySweep(compliance.PBase(), p.ops, p.records, p.shards, p.checkpointEvery, s.Seed)
	},
	check:  checkRecovery,
	figure: RecoveryFigure,
	notes: func(rows []RecoveryResult) []string {
		var out []string
		for i := 0; i+1 < len(rows); i += 2 {
			full, ckpt := rows[i], rows[i+1]
			verdict := "FASTER"
			if ckpt.RecoverSeconds >= full.RecoverSeconds {
				verdict = "NOT faster (increase the sweep: checkpoint wins grow with WAL length)"
			}
			out = append(out, fmt.Sprintf("  ops=%d: checkpointed recovery %.2fx of full replay — %s",
				full.Ops, ckpt.RecoverSeconds/full.RecoverSeconds, verdict))
		}
		return out
	},
}

// recoveryMode names a row's series.
func recoveryMode(r RecoveryResult) string {
	if r.Checkpointed {
		return "checkpointed"
	}
	return "full-replay"
}

// checkRecovery holds the gates that span rows: every swept WAL length
// recovered both ways, and the checkpointed rebuild replaying strictly
// fewer records than the full-history one.
func checkRecovery(rows []RecoveryResult) error {
	type point struct {
		ops          int
		checkpointed bool
	}
	replayed := map[point]int{}
	for _, r := range rows {
		replayed[point{r.Ops, r.Checkpointed}] = r.RecordsReplayed
	}
	err := missing(rows, recoveryMode, func(r RecoveryResult) int { return r.Ops },
		[]string{"full-replay", "checkpointed"})
	if err != nil {
		return err
	}
	for _, r := range rows {
		full, ckpt := replayed[point{r.Ops, false}], replayed[point{r.Ops, true}]
		if ckpt >= full {
			return fmt.Errorf("ops=%d: checkpointed rebuild replayed %d records, full replay %d (checkpointing did not shorten replay)",
				r.Ops, ckpt, full)
		}
	}
	return nil
}

// recoveryWorkload drives a deterministic write-heavy stream against a
// deployment: updates mostly, with creates, meta updates, consent
// revocations, deletes and periodic whole-subject erasures mixed in.
// The driver tracks the live population so every op targets a live key
// and appends at least one WAL record — "ops" is a floor on the WAL
// length in records for the non-checkpointing deployment, which is what
// the experiment sweeps.
func recoveryWorkload(db *compliance.ShardedDB, records, ops int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, 0, records+ops/8)
	pos := make(map[string]int, records)
	bySubject := make(map[string][]string)
	subjectOf := make(map[string]string)
	add := func(k, s string) {
		pos[k] = len(keys)
		keys = append(keys, k)
		bySubject[s] = append(bySubject[s], k)
		subjectOf[k] = s
	}
	remove := func(k string) {
		i, ok := pos[k]
		if !ok {
			return
		}
		last := len(keys) - 1
		keys[i] = keys[last]
		pos[keys[i]] = i
		keys = keys[:last]
		delete(pos, k)
		delete(subjectOf, k)
	}
	for i := 0; i < records; i++ {
		add(gdprbench.KeyFor(i), recoverySubject(i))
	}
	nextKey := records
	create := func() error {
		rec := recoveryRecord(nextKey)
		nextKey++
		if err := db.Create(rec); err != nil {
			return err
		}
		add(rec.Key, rec.Subject)
		return nil
	}
	for i := 0; i < ops; i++ {
		if len(keys) == 0 {
			if err := create(); err != nil {
				return err
			}
			continue
		}
		key := keys[rng.Intn(len(keys))]
		switch draw := rng.Intn(100); {
		case draw < 70: // update
			err := db.UpdateData(compliance.EntityController, compliance.PurposeService,
				key, []byte(fmt.Sprintf("op-%d", i)))
			if err != nil {
				return err
			}
		case draw < 80: // meta update (adds a consented purpose)
			err := db.UpdateMeta(compliance.EntityController, compliance.PurposeService,
				key, fmt.Sprintf("purpose-%d", i%7), 1<<40)
			if err != nil {
				return err
			}
		case draw < 92: // fresh collection (keeps the population steady
			// against the deletions and subject erasures below)
			if err := create(); err != nil {
				return err
			}
		case draw < 97: // deletion (right to erasure, record granularity)
			if err := db.DeleteData(compliance.EntityController, key); err != nil {
				return err
			}
			remove(key)
		case draw < 99: // consent withdrawal
			err := db.RevokeConsent(key, compliance.PurposeProcessing, compliance.EntityProcessor)
			if err != nil {
				return err
			}
		default: // whole-subject right to erasure (exercises intent redo)
			subject := subjectOf[key]
			if _, err := db.EraseSubject(compliance.EntitySystem, subject); err != nil {
				return err
			}
			for _, k := range bySubject[subject] {
				remove(k)
			}
			delete(bySubject, subject)
		}
	}
	return nil
}

// recoverySubject groups every 8th key onto one data subject.
func recoverySubject(i int) string { return fmt.Sprintf("subject-%05d", i/8) }

func recoveryRecord(i int) gdprbench.Record {
	return gdprbench.Record{
		Key:        gdprbench.KeyFor(i),
		Subject:    recoverySubject(i),
		Payload:    []byte(fmt.Sprintf("payload-%08d", i)),
		Purposes:   []string{"analytics"},
		TTL:        1 << 40,
		Processors: []string{"processor-a"},
	}
}

// RunRecovery builds one deployment, runs the write stream, crashes it
// (takes the durable images) and times the rebuild. checkpointEvery <= 0
// disables the checkpointer (the full-replay baseline).
func RunRecovery(profile compliance.Profile, records, ops, shards, checkpointEvery int, seed int64) (RecoveryResult, error) {
	profile.CheckpointEveryOps = 0
	profile.CheckpointEveryBytes = 0
	if checkpointEvery > 0 {
		profile.CheckpointEveryOps = checkpointEvery
	}
	db, err := compliance.OpenSharded(profile, shards)
	if err != nil {
		return RecoveryResult{}, err
	}
	defer db.Close()
	for i := 0; i < records; i++ {
		if err := db.Create(recoveryRecord(i)); err != nil {
			return RecoveryResult{}, err
		}
	}
	if err := recoveryWorkload(db, records, ops, seed); err != nil {
		return RecoveryResult{}, err
	}

	res := RecoveryResult{
		Ops: ops, Records: records, Shards: shards, Profile: profile.Name,
		Checkpointed: checkpointEvery > 0, CheckpointEveryOps: max(checkpointEvery, 0),
	}
	images := db.SegmentImages()
	for _, img := range images {
		res.WALBytes += int64(len(img))
	}
	for i := 0; i < db.NumShards(); i++ {
		res.WALRecords += db.Shard(i).WALLen()
	}

	start := time.Now()
	// Recover with the deployment's materialized profile: it carries the
	// at-rest key the KMS issued at open.
	recovered, stats, err := compliance.RecoverSharded(db.Profile(), images)
	if err != nil {
		return RecoveryResult{}, err
	}
	defer recovered.Close()
	res.RecoverSeconds = time.Since(start).Seconds()
	res.CheckpointRows = stats.CheckpointRows
	res.RecordsReplayed = stats.RecordsReplayed
	res.ErasureRedos = stats.ErasureRedos
	res.RecoveredRecords = recovered.Len()
	if res.RecoveredRecords != db.Len() {
		return res, fmt.Errorf("recovery: rebuilt %d records, crashed deployment had %d",
			res.RecoveredRecords, db.Len())
	}
	return res, nil
}

// RecoverySweep runs the full-replay baseline and the checkpointed
// variant at each ops count, pairing them in the result order
// (full, checkpointed, full, checkpointed, ...).
func RecoverySweep(profile compliance.Profile, opsSweep []int, records, shards, checkpointEvery int, seed int64) ([]RecoveryResult, error) {
	var results []RecoveryResult
	for _, ops := range opsSweep {
		full, err := RunRecovery(profile, records, ops, shards, 0, seed)
		if err != nil {
			return results, err
		}
		results = append(results, full)
		ckpt, err := RunRecovery(profile, records, ops, shards, checkpointEvery, seed)
		if err != nil {
			return results, err
		}
		results = append(results, ckpt)
	}
	return results, nil
}

// RecoveryFigure renders sweep results as recovery-time vs WAL-length.
func RecoveryFigure(results []RecoveryResult) Figure {
	return seriesFigure("Recovery: rebuild time vs WAL length (full replay vs checkpointed)", "ops",
		len(results), func(i int) (string, float64, float64) {
			r := results[i]
			return recoveryMode(r), float64(r.Ops), r.RecoverSeconds
		})
}
