package compliance

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/cryptox"
	"github.com/datacase/datacase/internal/fanout"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/policy"
	"github.com/datacase/datacase/internal/storage"
	"github.com/datacase/datacase/internal/wal"
)

// Crash recovery. A deployment's durable state is its WAL segment image
// (plus, for block-device profiles, the device itself — it is the
// disk — and, for the mmap backend, the byte region — the pages ARE
// the rows). Recovery rebuilds everything else from that image:
//
//  1. Scan the image forward, tolerating a torn or corrupt tail (the
//     un-synced bytes a crash loses; see wal.Recover).
//  2. If the image holds a checkpoint, bulk-load its row snapshot into
//     a fresh heap table (no per-row logging), reattach the rows'
//     policies, restore the logical clock and space accounting, and
//     re-anchor the fresh log with the same snapshot.
//  3. Replay the records after the checkpoint in LSN order: inserts,
//     updates and deletes redo the heap mutations; RecErase intents
//     are redone idempotently, so a half-completed right-to-erasure
//     cascade finishes instead of resurrecting the subject; RecConsent
//     records re-revoke withdrawn grants.
//  4. Rebuild the derived structures: the key->shard directory (from
//     the recovered rows), per-row policies, the model mirror (for
//     TrackModel profiles), and the retention state (implicit in row
//     metadata — the sweeper re-derives deadlines from CreatedAt+TTL).
//
// What recovery cannot restore is noted where it happens: the audit
// history restarts with a recovery marker (reads are not WAL-logged),
// the provenance graph is not rebuilt (cascades of *new* erasures over
// pre-crash derivations need the erasure engine's model state), and a
// consent granted by UpdateMeta is reattached with its record's
// collection time as the policy window origin — a conservative
// approximation that can only deny earlier, never allow longer.

// checkpointVersion tags the row-bearing checkpoint payload encoding:
// scalars, rows and the shard's view of the key->shard directory
// (elastic resharding). Region-backed engines (the mmap backend)
// checkpoint with checkpointVersionRegion instead: scalars and
// directory only, no row section — the rows live in the durable
// region, and snapshotting them into the payload would reintroduce
// exactly the O(data) encode the backend exists to avoid.
const (
	checkpointVersion       = 2
	checkpointVersionRegion = 3
)

// RecoveryStats describes one recovery pass.
type RecoveryStats struct {
	// Shards is how many per-shard logs were replayed.
	Shards int
	// CheckpointRows is the number of rows loaded from checkpoint
	// snapshots (zero when recovering a checkpoint-free log).
	CheckpointRows int
	// RecordsReplayed is the number of WAL records redone after the
	// checkpoints.
	RecordsReplayed int
	// ErasureRedos counts RecErase intents redone.
	ErasureRedos int
	// TailBytesDiscarded is the total torn/corrupt tail bytes dropped.
	TailBytesDiscarded int64
	// TornTails is how many per-shard images ended in a torn tail.
	TornTails int
	// Elapsed is the recovery wall time.
	Elapsed time.Duration
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("recovered %d shard(s): %d checkpoint rows + %d replayed records, "+
		"%d erase redos, %d tail bytes discarded, %v",
		s.Shards, s.CheckpointRows, s.RecordsReplayed, s.ErasureRedos,
		s.TailBytesDiscarded, s.Elapsed)
}

// merge folds a per-shard pass into the deployment total.
func (s *RecoveryStats) merge(o RecoveryStats) {
	s.CheckpointRows += o.CheckpointRows
	s.RecordsReplayed += o.RecordsReplayed
	s.ErasureRedos += o.ErasureRedos
	s.TailBytesDiscarded += o.TailBytesDiscarded
	s.TornTails += o.TornTails
}

// RecoverSharded rebuilds a deployment from per-shard segment images
// (ShardedDB.SegmentImages of the crashed instance); the shard count is
// the image count. Shards recover in parallel over the fanout pool with
// the default width. Block-device profiles cannot be recovered from
// images alone — the device is the surviving disk — and must go through
// ShardedDB.Recover, which carries the devices; mmap profiles go
// through RecoverShardedWithRegions, which carries the regions. Passing
// either here is an error rather than a deployment full of dangling
// references.
func RecoverSharded(p Profile, images [][]byte) (*ShardedDB, RecoveryStats, error) {
	return recoverSharded(p, images, nil, nil, 0)
}

// RecoverShardedWithRegions rebuilds an mmap-backed deployment from
// per-shard segment images plus per-shard durable byte regions
// (ShardedDB.SegmentImages and ShardedDB.RegionSnapshots of the crashed
// instance). The region carries the rows; the image carries the logical
// tail (erase intents, consent revocations, clock notes and any
// mutations the region's applied-LSN cursor never reached). regions[i]
// pairs with images[i]; both slices must be the same length. Region
// slices are copied, not aliased.
func RecoverShardedWithRegions(p Profile, images, regions [][]byte) (*ShardedDB, RecoveryStats, error) {
	return recoverSharded(p, images, nil, regions, 0)
}

// recoverSharded rebuilds shards in parallel and reassembles the
// deployment: shared clock, key->shard directory from the recovered
// rows, delete hooks rewired. devs, when non-nil, carries each shard's
// surviving block device; regions, when non-nil, carries each shard's
// surviving mmap byte region.
func recoverSharded(p Profile, images [][]byte, devs []*cryptox.BlockDev, regions [][]byte, workers int) (*ShardedDB, RecoveryStats, error) {
	start := time.Now()
	if len(images) == 0 {
		return nil, RecoveryStats{}, fmt.Errorf("compliance: recovery needs at least one segment image")
	}
	if p.UseBlockDev && devs == nil {
		// The replayed rows' blobs are sector references into the crashed
		// instance's device; rebuilding against a fresh empty device would
		// "succeed" and then serve garbage on every read.
		return nil, RecoveryStats{}, fmt.Errorf(
			"compliance: profile %s stores payloads on a block device, which survives the crash; recover through ShardedDB.Recover, which carries the devices", p.Name)
	}
	if p.Backend == BackendMmap && regions == nil {
		// The images carry the logical tail, not the rows; the rows live
		// in the per-shard byte regions. Rebuilding from images alone
		// would silently come up empty.
		return nil, RecoveryStats{}, fmt.Errorf(
			"compliance: profile %s keeps its rows in mmap byte regions, which survive the crash; recover through ShardedDB.Recover or RecoverShardedWithRegions, which carry the regions", p.Name)
	}
	if regions != nil {
		if p.Backend != BackendMmap {
			return nil, RecoveryStats{}, fmt.Errorf(
				"compliance: profile %s (backend %q) has no durable byte regions; recover with RecoverSharded", p.Name, p.Backend)
		}
		if len(regions) != len(images) {
			return nil, RecoveryStats{}, fmt.Errorf(
				"compliance: %d segment images but %d regions; each shard needs both", len(images), len(regions))
		}
		for i, r := range regions {
			if r == nil {
				return nil, RecoveryStats{}, fmt.Errorf(
					"compliance: shard %d has no durable region; the segment image alone does not carry the rows", i)
			}
		}
	}
	if !p.UseBlockDev && len(p.PayloadKey) == 0 {
		return nil, RecoveryStats{}, fmt.Errorf(
			"compliance: profile %s has no payload key; recover with Profile() of the crashed deployment (the key the KMS issued it), not a freshly constructed profile", p.Name)
	}
	// Topology adoption: before replaying anything, decide which
	// key->shard directory the crashed deployment had committed. Every
	// durable artifact that carries one — a split's birth record, a
	// merge's RecDirectory, a checkpoint's embedded directory — is a
	// candidate; the highest epoch wins, because directories are only
	// ever persisted at or after their commit point.
	adopted, births, err := adoptDirectory(images)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	hasDir := adopted != nil
	if hasDir {
		// Split debris: a shard whose birth record promises an epoch the
		// adopted directory never reached is a destination whose split
		// never committed — drop it; its rows still live on the source.
		// Splits append shards, so debris is always a trailing run.
		kept := len(images)
		for kept > 0 && births[kept-1] > adopted.epoch {
			kept--
		}
		for i := 0; i < kept; i++ {
			if births[i] > adopted.epoch {
				return nil, RecoveryStats{}, fmt.Errorf(
					"compliance: shard %d is uncommitted split debris (birth epoch %d > adopted %d) but not trailing", i, births[i], adopted.epoch)
			}
		}
		images = images[:kept]
		if devs != nil {
			devs = devs[:kept]
		}
		if regions != nil {
			regions = regions[:kept]
		}
		if len(images) == 0 {
			return nil, RecoveryStats{}, fmt.Errorf("compliance: every segment image is uncommitted split debris")
		}
	} else {
		adopted = newStaticDirectory(len(images))
	}
	if err := adopted.validate(len(images)); err != nil {
		return nil, RecoveryStats{}, err
	}

	s := &ShardedDB{
		profile:  p,
		shards:   make([]*DB, len(images)),
		workers:  workers,
		dir:      make(map[string]uint32),
		subjects: adopted,
	}
	clock := &core.Clock{}
	perShard := make([]RecoveryStats, len(images))
	errs := make([]error, len(images))
	_ = fanout.Run(workers, len(images), func(i int) error {
		var dev *cryptox.BlockDev
		if devs != nil {
			dev = devs[i]
		}
		var region []byte
		if regions != nil {
			region = regions[i]
		}
		s.shards[i], perShard[i], errs[i] = recoverNamed(
			p, shardTableName(p, i), clock, images[i], dev, region)
		return errs[i]
	})
	total := RecoveryStats{Shards: len(images)}
	for i := range images {
		if errs[i] != nil {
			return nil, total, fmt.Errorf("compliance: recover shard %d: %w", i, errs[i])
		}
		total.merge(perShard[i])
	}
	if hasDir {
		// Misroute pass: a crash between a migration's commit and the end
		// of its source cleanup leaves rows on shards the adopted
		// directory no longer routes to them — the stale side of the
		// move. Delete them (idempotent redo; the other side holds the
		// committed copy). Runs before the key directory is built and
		// before onDelete is wired, so it cannot disturb either.
		for i, db := range s.shards {
			var stale []string
			db.data.SeqScan(func(k, v []byte) bool {
				if adopted.route(placementName(k, v)) != uint32(i) {
					stale = append(stale, string(k))
				}
				return true
			})
			for _, k := range stale {
				db.recoverDelete(k)
				if db.modelDB != nil {
					db.modelDB.Remove(core.UnitID(k))
				}
			}
		}
		// Re-persist the adoption: the adopted directory may live only in
		// a record of the crashed image (a birth record, say) that the
		// fresh logs do not carry. One RecDirectory on shard 0 makes a
		// second crash before the next checkpoint adopt the same epoch.
		s.shards[0].data.Log().Append(wal.RecDirectory, nil, encodeDirectory(adopted))
	}
	// The key directory maps every recovered live key to its shard;
	// hooks and snapshots go in afterwards so redo deletes above never
	// touched them.
	for i, db := range s.shards {
		idx := uint32(i)
		db.data.SeqScan(func(k, _ []byte) bool {
			s.dir[string(k)] = idx
			return true
		})
		db.onDelete = s.forget
		db.dirSnapshot = s.dirBlob
	}
	total.Elapsed = time.Since(start)
	return s, total, nil
}

// adoptDirectory scans every shard image for durable directory
// artifacts — a birth record's embedded pre-split directory, standalone
// RecDirectory records, and the directory embedded in the last
// checkpoint — and returns the highest-epoch directory found (nil when
// no image carries one), plus each image's birth-record epoch (0: the
// image does not open with a birth record, so the shard is an ordinary
// member).
func adoptDirectory(images [][]byte) (*directory, []uint64, error) {
	var best *directory
	births := make([]uint64, len(images))
	consider := func(blob []byte, shard int, what string) error {
		d, err := decodeDirectory(blob)
		if err != nil {
			return fmt.Errorf("compliance: shard %d %s: %w", shard, what, err)
		}
		if best == nil || d.epoch > best.epoch {
			best = d
		}
		return nil
	}
	for i, image := range images {
		scan := wal.ScanSegment(image)
		for j, r := range scan.Records {
			switch r.Type {
			case wal.RecShardBirth:
				b, err := decodeShardBirth(r.Payload)
				if err != nil {
					return nil, nil, fmt.Errorf("compliance: shard %d: %w", i, err)
				}
				// Only an opening birth record marks the shard as a split
				// destination; once a later checkpoint truncates it away,
				// the shard is an ordinary member.
				if j == 0 {
					births[i] = b.epoch
				}
				if err := consider(b.oldDir, i, "birth directory"); err != nil {
					return nil, nil, err
				}
			case wal.RecDirectory:
				if err := consider(r.Payload, i, "directory record"); err != nil {
					return nil, nil, err
				}
			}
		}
		if scan.LastCheckpoint >= 0 {
			cs, err := decodeCheckpointState(scan.Records[scan.LastCheckpoint].Payload)
			if err != nil {
				return nil, nil, fmt.Errorf("compliance: shard %d checkpoint: %w", i, err)
			}
			if len(cs.dir) > 0 {
				if err := consider(cs.dir, i, "checkpoint directory"); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return best, births, nil
}

// SegmentImages returns the durable byte image of every shard's WAL
// segment — what a crash would leave on disk.
func (s *ShardedDB) SegmentImages() [][]byte {
	shards := s.view()
	images := make([][]byte, len(shards))
	for i, db := range shards {
		images[i] = db.SegmentImage()
	}
	return images
}

// Recover simulates a restart of this deployment: it rebuilds a fresh
// ShardedDB from the current durable state (per-shard WAL images, plus
// the block devices for profiles that store payloads on one) and
// returns it with the recovery statistics. The receiver is not
// modified.
func (s *ShardedDB) Recover() (*ShardedDB, RecoveryStats, error) {
	// Images first, devices second — the reverse of the write order
	// (protect writes the sector, then the WAL logs the row), so every
	// sector an image references exists in the snapshot; concurrent
	// writes landing in between only add orphan sectors, which the
	// allocation-cursor logic already tolerates.
	// One shard-slice snapshot for both loops, so a concurrent split
	// cannot leave images and devices at different lengths.
	shards := s.view()
	images := make([][]byte, len(shards))
	for i, db := range shards {
		images[i] = db.SegmentImage()
	}
	var devs []*cryptox.BlockDev
	if s.profile.UseBlockDev {
		devs = make([]*cryptox.BlockDev, len(shards))
		for i, db := range shards {
			// A snapshot, not the live pointer: the receiver keeps
			// running, and two deployments allocating into one device
			// would overwrite each other's payloads.
			devs[i] = db.blockdev.Snapshot()
		}
	}
	// Regions after images, like devices: a region snapshot taken after
	// the image covers every op the image holds (each mutation appends
	// to the WAL and applies to the region under one table lock, and the
	// snapshot waits for that lock), so replay's applied-LSN skip never
	// re-applies work the region missed. Ops landing in between only add
	// region-side state the image has no record of, which recovery keeps.
	var regions [][]byte
	if s.profile.Backend == BackendMmap {
		regions = make([][]byte, len(shards))
		for i, db := range shards {
			regions[i] = db.RegionSnapshot()
		}
	}
	return recoverSharded(s.profile, images, devs, regions, s.workers)
}

// RegionSnapshot returns a copy of the deployment's durable byte region
// (nil for backends that are not region-backed). Together with
// SegmentImage it is what a crash would leave behind on an mmap-backed
// deployment.
func (db *DB) RegionSnapshot() []byte {
	if rb, ok := db.data.(storage.RegionBacked); ok {
		return rb.RegionSnapshot()
	}
	return nil
}

// RegionSnapshots returns a copy of every shard's durable byte region
// for region-backed deployments (Profile.Backend == BackendMmap), nil
// otherwise. Pairs with SegmentImages as input to
// RecoverShardedWithRegions; capture images first, regions second (see
// Recover for why that order is safe).
func (s *ShardedDB) RegionSnapshots() [][]byte {
	shards := s.view()
	regions := make([][]byte, len(shards))
	any := false
	for i, db := range shards {
		if r := db.RegionSnapshot(); r != nil {
			regions[i] = r
			any = true
		}
	}
	if !any {
		return nil
	}
	return regions
}

// recoverNamed rebuilds one deployment (one shard) from a segment
// image. dev, when non-nil, is the surviving block device of the
// crashed instance; region, when non-nil, is its surviving mmap byte
// region (the engine's row state, attached in place of a fresh table).
func recoverNamed(p Profile, tableName string, clock *core.Clock, image []byte, dev *cryptox.BlockDev, region []byte) (*DB, RecoveryStats, error) {
	db, err := openNamed(p, tableName, clock)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	if dev != nil {
		db.blockdev = dev
	}
	var baseLSN wal.LSN
	if region != nil {
		// Attach a private copy of the region over the fresh WAL: the
		// attach repairs the page table from its shadow if a torn
		// checkpoint left an invalid entry, replays the embedded redo
		// tail, and leaves the applied-LSN cursor at the last mutation
		// the region absorbed. Everything in the image at or below that
		// cursor is already in the pages and must not replay twice.
		eng, err := storage.AttachMmap(tableName, db.data.Log(), append([]byte(nil), region...))
		if err != nil {
			return nil, RecoveryStats{}, err
		}
		db.data = eng
		baseLSN = eng.AppliedLSN()
	}

	scan := wal.ScanSegment(image)
	st := RecoveryStats{TailBytesDiscarded: int64(scan.Info.TailBytesDiscarded)}
	if scan.Info.TornTail {
		st.TornTails = 1
	}

	tail := scan.Records
	var maxTime int64
	if scan.LastCheckpoint >= 0 {
		ck := scan.Records[scan.LastCheckpoint]
		state, err := decodeCheckpointState(ck.Payload)
		if err != nil {
			return nil, st, err
		}
		if region != nil {
			// Region checkpoints carry no rows — the region does. Only
			// the scalar floors come from the payload; accounting and
			// policies rebuild from the region scan below.
			db.nextSector = state.nextSector
		} else if err := db.restoreCheckpoint(state, &st); err != nil {
			return nil, st, err
		}
		if state.clock > maxTime {
			maxTime = state.clock
		}
		// Re-anchor the fresh log with the same snapshot: the bulk-loaded
		// rows were not re-logged row by row, so the new log must carry
		// the checkpoint that makes them recoverable again.
		db.data.Log().Checkpoint(ck.Payload)
		db.counters.checkpoints.Add(1)
		db.walBytesAtCheckpoint = db.data.Log().SizeBytes()
		tail = scan.Records[scan.LastCheckpoint+1:]
	}

	if region != nil {
		// The region IS the row store: one scan rebuilds everything
		// recovery otherwise re-derives row by row — space accounting,
		// per-row policy state (the same conservative bundle checkpoint
		// rows without enumerable policies get) and the clock floor.
		// This walks live keys and rows, not checkpoint-encoded images:
		// O(live data) with no decode/bulk-load pass in front of it.
		type pair struct{ key, row []byte }
		var rows []pair
		db.data.SeqScan(func(k, v []byte) bool {
			rows = append(rows, pair{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
		for _, r := range rows {
			rec, err := decodeRecord(r.row)
			if err != nil {
				return nil, st, fmt.Errorf("compliance: recovery: region row %q: %w", r.key, err)
			}
			db.personalBytes += db.plaintextLen(rec.Blob)
			db.metaBytes += int64(len(r.row) - len(rec.Blob))
			if rec.Meta.CreatedAt+1 > maxTime {
				maxTime = rec.Meta.CreatedAt + 1
			}
			if err := db.attachRecoveredPolicies(core.UnitID(r.key), rec.Meta, nil); err != nil {
				return nil, st, err
			}
		}
		st.CheckpointRows += len(rows)
	}

	for _, r := range tail {
		if err := db.applyRecovered(r, &st, &maxTime, baseLSN); err != nil {
			return nil, st, err
		}
	}
	st.RecordsReplayed = len(tail)

	// The clock must never run behind a timestamp already persisted in a
	// row, checkpoint or clock note — expired policy windows and passed
	// retention deadlines must not reopen. (Residual exposure: ticks
	// spent in a read-only window before the crash write nothing and are
	// lost; the clock notes bound mutation-driven drift to
	// clockNoteEvery ticks.)
	clock.SetAtLeast(core.Time(maxTime))
	// Give the fresh log the same floor, so the next crash restores it
	// even if no mutation runs in between.
	db.data.Log().Append(wal.RecClock, nil, encodeClockNote(clock.Now()))
	if db.modelDB != nil {
		if err := db.rebuildModelMirror(); err != nil {
			return nil, st, err
		}
	}
	// The audit history restarts here: reads are not WAL-logged, so the
	// pre-crash trail cannot be reconstructed. The marker entry records
	// the discontinuity itself, which G30 audits can then account for.
	db.logOp(core.HistoryTuple{
		Unit: core.UnitID("recovery:" + tableName), Purpose: PurposeService, Entity: EntitySystem,
		Action: core.Action{Kind: core.ActionRestore, SystemAction: "RECOVER", RequiredByRegulation: true},
		At:     clock.Tick(),
	}, "RECOVER", nil, "", nil)
	return db, st, nil
}

// applyRecovered redoes one tail record against the rebuilding DB. The
// DB is not yet shared, so no locking is needed; mutations go through
// the engine (re-logging them into the fresh WAL) while policy and
// accounting effects are re-derived from the row metadata.
//
// baseLSN is the region's applied-LSN cursor on region-backed
// recoveries (zero otherwise — LSNs start at 1, so zero skips
// nothing). Data records at or below it are already in the pages and
// must not replay: the region scan accounted for them, and redoing an
// insert the region holds would fail on the duplicate key. Logical
// records — erase intents, consent revocations, clock notes — replay
// regardless: they are idempotent, and a half-finished erasure cascade
// must complete even when every row mutation it already issued landed
// in the region.
func (db *DB) applyRecovered(r wal.Record, st *RecoveryStats, maxTime *int64, baseLSN wal.LSN) error {
	switch r.Type {
	case wal.RecInsert, wal.RecUpdate:
		if r.LSN <= baseLSN {
			return nil
		}
		return db.recoverUpsert(r.Key, r.Payload, maxTime)
	case wal.RecDelete:
		if r.LSN <= baseLSN {
			return nil
		}
		db.recoverDelete(string(r.Key))
	case wal.RecErase:
		keys, err := decodeEraseIntent(r.Payload)
		if err != nil {
			return err
		}
		// Idempotent redo: every key the intent covered is deleted if
		// still live. Keys whose RecDelete made it to disk are already
		// gone; the rest are the half of the cascade the crash cut off.
		for _, k := range keys {
			db.recoverDelete(k)
		}
		st.ErasureRedos++
	case wal.RecConsent:
		purpose, entity, err := decodeConsentRevocation(r.Payload)
		if err != nil {
			return err
		}
		db.policies.RevokePolicy(core.UnitID(r.Key), purpose, entity)
		// Keep the revocation durable across the *next* crash too.
		db.data.Log().Append(wal.RecConsent, r.Key, r.Payload)
	case wal.RecClock:
		if t, err := decodeClockNote(r.Payload); err == nil && t > *maxTime {
			*maxTime = t
		}
	case wal.RecCheckpointDelta:
		if r.LSN <= baseLSN {
			return nil
		}
		// Compose the delta onto the state built so far: redo its
		// deletes, upsert its dirty rows, floor the clock at its note.
		// Every mutation a delta summarizes also rides in the tail as an
		// ordinary record (deltas never truncate past their base image),
		// so composition is idempotent — a torn or missing delta frame
		// costs nothing, and a present one must land on the same state.
		d, err := decodeCheckpointDelta(r.Payload)
		if err != nil {
			return err
		}
		for _, k := range d.deleted {
			db.recoverDelete(k)
		}
		for _, row := range d.rows {
			if err := db.recoverUpsert(row.key, row.row, maxTime); err != nil {
				return err
			}
		}
		if d.clock > *maxTime {
			*maxTime = d.clock
		}
	case wal.RecVacuum, wal.RecCheckpoint, wal.RecTombstone:
		// Vacuum state is rebuilt dense by construction; checkpoints
		// before the last were superseded; tombstones are scrubbed
		// records that must not reappear.
	case wal.RecShardBirth, wal.RecDirectory:
		// Topology records are consumed by the sharded adoption pre-pass
		// (adoptDirectory); per-shard replay ignores them.
	}
	return nil
}

// recoverUpsert redoes an insert or update: the payload is the full
// encoded row at that point in history.
func (db *DB) recoverUpsert(key, row []byte, maxTime *int64) error {
	rec, err := decodeRecord(row)
	if err != nil {
		return fmt.Errorf("compliance: recovery: row for %q: %w", key, err)
	}
	if rec.Meta.CreatedAt+1 > *maxTime {
		*maxTime = rec.Meta.CreatedAt + 1
	}
	if db.blockdev != nil && len(rec.Blob) == 8 {
		// Keep the allocation cursor past every sector the history ever
		// referenced — including rows a later record deletes — so
		// post-recovery writes never reuse a sector: live payloads stay
		// intact and orphaned sectors stay orphaned (the P_GBench
		// retention story).
		if s := int(binary.BigEndian.Uint32(rec.Blob[:4])) + 1; s > db.nextSector {
			db.nextSector = s
		}
	}
	unit := core.UnitID(key)
	old, existed := db.data.Get(key)
	if !existed {
		if err := db.data.Insert(key, row); err != nil {
			return err
		}
		db.personalBytes += db.plaintextLen(rec.Blob)
		db.metaBytes += int64(len(row) - len(rec.Blob))
		db.noteDirtyLocked(string(key))
		return db.attachRecoveredPolicies(unit, rec.Meta, nil)
	}
	oldRec, err := decodeRecord(old)
	if err != nil {
		return fmt.Errorf("compliance: recovery: stored row for %q: %w", key, err)
	}
	if err := db.data.Update(key, row); err != nil {
		return err
	}
	db.personalBytes += db.plaintextLen(rec.Blob) - db.plaintextLen(oldRec.Blob)
	db.metaBytes += int64(len(row)-len(rec.Blob)) - int64(len(old)-len(oldRec.Blob))
	db.noteDirtyLocked(string(key))
	return db.attachRecoveredPolicies(unit, rec.Meta, &oldRec.Meta)
}

// recoverDelete redoes a delete; already-gone keys are tolerated (redo
// is idempotent). On purge-capable backends the redone delete
// re-registers its purge obligation: the recovered deployment owes the
// same bounded physical erasure the crashed one did.
func (db *DB) recoverDelete(key string) {
	if err := db.data.Delete([]byte(key)); err != nil {
		return
	}
	if pg, ok := db.data.(storage.Purger); ok {
		pg.RegisterPurge([]byte(key))
	}
	db.noteDeletedLocked(key)
	unit := core.UnitID(key)
	db.policies.RevokePolicies(unit)
	if db.onDelete != nil {
		db.onDelete(key)
	}
}

// attachRecoveredPolicies rebuilds a row's policy state from its
// metadata. With no prior state (oldMeta == nil: insert replay, or a
// checkpoint row whose engine cannot enumerate policies) it attaches
// the standard consent bundle with the record's own collection time as
// the window origin — exactly what Create attached, since CreatedAt was
// the clock value at collection — plus a controller grant for every
// post-collection consent the row recorded (Metadata.Consented), and
// re-revokes the processor when the row is objected. On update replay,
// only the newly appearing consents are granted; windows recover with
// the collection-time origin (conservative: the recovered window can
// only end earlier than the lost original).
func (db *DB) attachRecoveredPolicies(unit core.UnitID, m Metadata, oldMeta *Metadata) error {
	subject := core.EntityID(m.Subject)
	created := core.Time(m.CreatedAt)
	// The standard bundle's windows end at the *collection-time* TTL:
	// UpdateMeta moves the retention deadline (m.TTL) but never extends
	// the bundle, so rebuilding from the current TTL would reopen
	// consent windows that had already expired before the crash.
	deadline := core.Time(m.CreatedAt + m.BaseTTL)
	grant := func(purpose string) error {
		return db.policies.AttachPolicy(unit, subject, core.Policy{
			Purpose: core.Purpose(purpose), Entity: EntityController,
			Begin: created, End: deadline,
		})
	}
	if oldMeta == nil {
		if err := db.policies.AttachPolicies(unit, subject, recordPolicies(gdprbench.Record{}, created, deadline)); err != nil {
			return err
		}
		for _, p := range m.Consented {
			if err := grant(p); err != nil {
				return err
			}
		}
		if m.Objected {
			db.policies.RevokePolicy(unit, PurposeProcessing, EntityProcessor)
		}
		return nil
	}
	for _, p := range m.Consented {
		if !hasString(oldMeta.Consented, p) {
			if err := grant(p); err != nil {
				return err
			}
		}
	}
	if m.Objected && !oldMeta.Objected {
		db.policies.RevokePolicy(unit, PurposeProcessing, EntityProcessor)
	}
	return nil
}

// plaintextLen recovers the plaintext payload length from a protected
// blob without decrypting: block-device references carry it, and sealed
// blobs expand by a fixed overhead.
func (db *DB) plaintextLen(blob []byte) int64 {
	if db.blockdev != nil {
		if len(blob) != 8 {
			return 0
		}
		return int64(binary.BigEndian.Uint32(blob[4:]))
	}
	n := int64(len(blob)) - int64(db.sealer.Overhead())
	if n < 0 {
		return 0
	}
	return n
}

// rebuildModelMirror reconstructs the TrackModel mirror from the
// recovered rows: one unit per live record with its value and policies.
// The pre-crash action history is gone (reads are not WAL-logged); the
// mirror restarts structurally consistent with the store.
func (db *DB) rebuildModelMirror() error {
	type pair struct{ key, row []byte }
	var rows []pair
	db.data.SeqScan(func(k, v []byte) bool {
		rows = append(rows, pair{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	lister, hasLister := db.policies.(policy.PolicyLister)
	for _, r := range rows {
		rec, err := decodeRecord(r.row)
		if err != nil {
			return err
		}
		payload, err := db.unprotect(rec.Blob)
		if err != nil {
			return err
		}
		unit := core.UnitID(r.key)
		created := core.Time(rec.Meta.CreatedAt)
		u := core.NewDataUnit(unit, core.KindBase, core.EntityID(rec.Meta.Subject), "recovered")
		u.SetValue(payload, created)
		var pols []core.Policy
		if hasLister {
			pols = lister.PoliciesOf(unit)
		} else {
			pols = recordPolicies(gdprbench.Record{}, created, core.Time(rec.Meta.CreatedAt+rec.Meta.BaseTTL))
		}
		for _, p := range pols {
			_ = u.Grant(p, created)
		}
		_ = db.modelDB.Add(u)
	}
	return nil
}

// ---- checkpoint state encoding ----

// checkpointRow is one live row in a checkpoint snapshot.
type checkpointRow struct {
	key, row []byte
	// policies is the row's exact policy set when the engine can
	// enumerate it (hasPolicies); otherwise recovery re-derives the
	// standard bundle from the row metadata.
	hasPolicies bool
	policies    []core.Policy
}

// checkpointState is a decoded checkpoint payload.
type checkpointState struct {
	clock         int64
	nextSector    int
	personalBytes int64
	metaBytes     int64
	rows          []checkpointRow
	// dir is the encoded key->shard directory in force when the
	// checkpoint was taken (empty if the shard had no deployment wired
	// in yet). Recovery adopts the highest-epoch directory any shard's
	// durable state carries.
	dir []byte
}

// encodeCheckpointState snapshots the DB into a checkpoint payload.
// Caller holds mu. Region-backed engines get the version-3 form: the
// scalar floors and the directory, no row section — checkpointing them
// is O(1) in the data because the durable region already holds every
// row.
func encodeCheckpointState(db *DB) []byte {
	if _, ok := db.data.(storage.RegionBacked); ok {
		buf := []byte{checkpointVersionRegion}
		buf = appendI64(buf, int64(db.clock.Now()))
		buf = appendU32(buf, uint32(db.nextSector))
		buf = appendI64(buf, db.personalBytes)
		buf = appendI64(buf, db.metaBytes)
		var dir []byte
		if db.dirSnapshot != nil {
			dir = db.dirSnapshot()
		}
		if len(dir) > 0 {
			buf = append(buf, 1)
			buf = appendBytes(buf, dir)
		} else {
			buf = append(buf, 0)
		}
		return buf
	}
	lister, hasLister := db.policies.(policy.PolicyLister)
	buf := []byte{checkpointVersion}
	buf = appendI64(buf, int64(db.clock.Now()))
	buf = appendU32(buf, uint32(db.nextSector))
	buf = appendI64(buf, db.personalBytes)
	buf = appendI64(buf, db.metaBytes)
	type pair struct{ key, row []byte }
	var rows []pair
	db.data.SeqScan(func(k, v []byte) bool {
		rows = append(rows, pair{append([]byte(nil), k...), append([]byte(nil), v...)})
		return true
	})
	buf = appendU32(buf, uint32(len(rows)))
	for _, r := range rows {
		buf = appendBytes(buf, r.key)
		buf = appendBytes(buf, r.row)
		if !hasLister {
			buf = append(buf, 0)
			continue
		}
		pols := lister.PoliciesOf(core.UnitID(r.key))
		buf = append(buf, 1)
		buf = appendU32(buf, uint32(len(pols)))
		for _, p := range pols {
			buf = appendBytes(buf, []byte(p.Purpose))
			buf = appendBytes(buf, []byte(p.Entity))
			buf = appendI64(buf, int64(p.Begin))
			buf = appendI64(buf, int64(p.End))
		}
	}
	// Sharded deployments embed the current directory so a checkpoint
	// alone carries the topology it was taken under.
	var dir []byte
	if db.dirSnapshot != nil {
		dir = db.dirSnapshot()
	}
	if len(dir) > 0 {
		buf = append(buf, 1)
		buf = appendBytes(buf, dir)
	} else {
		buf = append(buf, 0)
	}
	return buf
}

// decodeCheckpointState parses a checkpoint payload. Only the two
// versions encodeCheckpointState writes are accepted: no image
// outlives the process that wrote it.
func decodeCheckpointState(buf []byte) (checkpointState, error) {
	var cs checkpointState
	r := byteReader{buf: buf}
	ver, err := r.u8()
	if err != nil || ver < checkpointVersion || ver > checkpointVersionRegion {
		return cs, fmt.Errorf("compliance: bad checkpoint version (err=%v ver=%d)", err, ver)
	}
	if cs.clock, err = r.i64(); err != nil {
		return cs, err
	}
	sector, err := r.u32()
	if err != nil {
		return cs, err
	}
	cs.nextSector = int(sector)
	if cs.personalBytes, err = r.i64(); err != nil {
		return cs, err
	}
	if cs.metaBytes, err = r.i64(); err != nil {
		return cs, err
	}
	if ver == checkpointVersionRegion {
		// Region form: no row section; straight to the directory flag.
		return cs, decodeCheckpointDir(&cs, &r)
	}
	n, err := r.u32()
	if err != nil {
		return cs, err
	}
	// Capacity is capped by what the remaining bytes could possibly
	// hold (a row costs >= 9 encoded bytes): a corrupt count must fail
	// with a decode error on the first missing row, not an OOM-sized
	// allocation.
	cs.rows = make([]checkpointRow, 0, capCount(n, len(r.buf)-r.off, 9))
	for i := uint32(0); i < n; i++ {
		var row checkpointRow
		if row.key, err = r.bytes(); err != nil {
			return cs, err
		}
		if row.row, err = r.bytes(); err != nil {
			return cs, err
		}
		flag, err := r.u8()
		if err != nil {
			return cs, err
		}
		if flag == 1 {
			pn, err := r.u32()
			if err != nil {
				return cs, err
			}
			row.hasPolicies = true
			row.policies = make([]core.Policy, 0, capCount(pn, len(r.buf)-r.off, 24))
			for j := uint32(0); j < pn; j++ {
				var p core.Policy
				purpose, err := r.bytes()
				if err != nil {
					return cs, err
				}
				entity, err := r.bytes()
				if err != nil {
					return cs, err
				}
				begin, err := r.i64()
				if err != nil {
					return cs, err
				}
				end, err := r.i64()
				if err != nil {
					return cs, err
				}
				p.Purpose, p.Entity = core.Purpose(purpose), core.EntityID(entity)
				p.Begin, p.End = core.Time(begin), core.Time(end)
				row.policies = append(row.policies, p)
			}
		}
		cs.rows = append(cs.rows, row)
	}
	return cs, decodeCheckpointDir(&cs, &r)
}

// decodeCheckpointDir parses the trailing directory section shared by
// both payload versions.
func decodeCheckpointDir(cs *checkpointState, r *byteReader) error {
	flag, err := r.u8()
	if err != nil {
		return err
	}
	if flag == 1 {
		dir, err := r.bytes()
		if err != nil {
			return err
		}
		cs.dir = append([]byte(nil), dir...)
	}
	return nil
}

// restoreCheckpoint loads a checkpoint snapshot into a fresh DB: rows
// bulk-loaded without per-row logging, policies reattached, accounting
// restored.
func (db *DB) restoreCheckpoint(cs checkpointState, st *RecoveryStats) error {
	i := 0
	_, err := db.data.BulkLoad(func() ([]byte, []byte, bool) {
		if i >= len(cs.rows) {
			return nil, nil, false
		}
		r := cs.rows[i]
		i++
		return r.key, r.row, true
	})
	if err != nil {
		return err
	}
	for _, r := range cs.rows {
		unit := core.UnitID(r.key)
		if r.hasPolicies {
			subject := core.EntityID(metaSubject(r.row))
			if err := db.policies.AttachPolicies(unit, subject, r.policies); err != nil {
				return err
			}
			continue
		}
		rec, err := decodeRecord(r.row)
		if err != nil {
			return fmt.Errorf("compliance: checkpoint row %q: %w", r.key, err)
		}
		if err := db.attachRecoveredPolicies(unit, rec.Meta, nil); err != nil {
			return err
		}
	}
	db.nextSector = cs.nextSector
	db.personalBytes = cs.personalBytes
	db.metaBytes = cs.metaBytes
	st.CheckpointRows += len(cs.rows)
	return nil
}

// ---- incremental checkpoint (delta frame) encoding ----

// checkpointDeltaVersion tags the delta-frame encoding
// (RecCheckpointDelta payloads).
const checkpointDeltaVersion = 1

// checkpointDelta is a decoded delta frame: the rows dirtied and keys
// deleted since the previous checkpoint frame, plus the clock at
// emission. Composition order is deletes first, then upserts — the two
// sets are disjoint by construction (DB.noteDirtyLocked /
// noteDeletedLocked keep them so).
type checkpointDelta struct {
	clock   int64
	deleted []string
	rows    []checkpointDeltaRow
}

// checkpointDeltaRow is one dirty row: the full current encoded row, so
// composing it is an idempotent upsert.
type checkpointDeltaRow struct {
	key, row []byte
}

// encodeCheckpointDelta frames the dirty sets into a delta payload:
//
//	[ver u8][clock i64][nDel u32]([key bytes])* [nRows u32]([key][row])*
//
// Keys emit in sorted order so identical dirty sets produce identical
// frames regardless of map iteration. Caller holds mu; the dirty sets
// are cleared by the caller after emission.
func encodeCheckpointDelta(db *DB) []byte {
	buf := []byte{checkpointDeltaVersion}
	buf = appendI64(buf, int64(db.clock.Now()))
	dels := make([]string, 0, len(db.deletedKeys))
	for k := range db.deletedKeys {
		dels = append(dels, k)
	}
	sort.Strings(dels)
	buf = appendU32(buf, uint32(len(dels)))
	for _, k := range dels {
		buf = appendBytes(buf, []byte(k))
	}
	dirty := make([]string, 0, len(db.dirtyKeys))
	for k := range db.dirtyKeys {
		dirty = append(dirty, k)
	}
	sort.Strings(dirty)
	// A dirty key with no live row (it should be in deletedKeys instead,
	// but stay defensive) is skipped; count live rows first.
	type pair struct{ key, row []byte }
	rows := make([]pair, 0, len(dirty))
	for _, k := range dirty {
		if row, ok := db.data.Get([]byte(k)); ok {
			rows = append(rows, pair{[]byte(k), row})
		}
	}
	buf = appendU32(buf, uint32(len(rows)))
	for _, r := range rows {
		buf = appendBytes(buf, r.key)
		buf = appendBytes(buf, r.row)
	}
	return buf
}

// decodeCheckpointDelta parses a delta payload.
func decodeCheckpointDelta(buf []byte) (checkpointDelta, error) {
	var d checkpointDelta
	r := byteReader{buf: buf}
	ver, err := r.u8()
	if err != nil || ver != checkpointDeltaVersion {
		return d, fmt.Errorf("compliance: bad checkpoint delta version (err=%v ver=%d)", err, ver)
	}
	if d.clock, err = r.i64(); err != nil {
		return d, err
	}
	nd, err := r.u32()
	if err != nil {
		return d, err
	}
	d.deleted = make([]string, 0, capCount(nd, len(r.buf)-r.off, 4))
	for i := uint32(0); i < nd; i++ {
		k, err := r.bytes()
		if err != nil {
			return d, err
		}
		d.deleted = append(d.deleted, string(k))
	}
	nr, err := r.u32()
	if err != nil {
		return d, err
	}
	d.rows = make([]checkpointDeltaRow, 0, capCount(nr, len(r.buf)-r.off, 8))
	for i := uint32(0); i < nr; i++ {
		var row checkpointDeltaRow
		k, err := r.bytes()
		if err != nil {
			return d, err
		}
		v, err := r.bytes()
		if err != nil {
			return d, err
		}
		row.key = append([]byte(nil), k...)
		row.row = append([]byte(nil), v...)
		d.rows = append(d.rows, row)
	}
	if r.off != len(r.buf) {
		return d, fmt.Errorf("compliance: %d trailing bytes after checkpoint delta", len(r.buf)-r.off)
	}
	return d, nil
}

// ---- logical-record payload encodings ----

// encodeEraseIntent frames the keys an erasure will delete (the record
// key is the subject).
func encodeEraseIntent(keys []string) []byte {
	buf := appendU32(nil, uint32(len(keys)))
	for _, k := range keys {
		buf = appendBytes(buf, []byte(k))
	}
	return buf
}

func decodeEraseIntent(buf []byte) ([]string, error) {
	r := byteReader{buf: buf}
	n, err := r.u32()
	if err != nil {
		return nil, fmt.Errorf("compliance: bad erase intent: %w", err)
	}
	keys := make([]string, 0, capCount(n, len(buf)-4, 4))
	for i := uint32(0); i < n; i++ {
		k, err := r.bytes()
		if err != nil {
			return nil, fmt.Errorf("compliance: bad erase intent: %w", err)
		}
		keys = append(keys, string(k))
	}
	return keys, nil
}

// capCount bounds a corruption-controlled element count by what the
// remaining bytes could actually encode (minSize bytes per element), so
// slice pre-allocations stay proportional to the input.
func capCount(n uint32, remaining, minSize int) int {
	most := remaining / minSize
	if int64(n) < int64(most) {
		return int(n)
	}
	if most < 0 {
		return 0
	}
	return most
}

// encodeClockNote frames a logical-clock value (RecClock payload).
func encodeClockNote(t core.Time) []byte {
	return appendI64(nil, int64(t))
}

func decodeClockNote(buf []byte) (int64, error) {
	r := byteReader{buf: buf}
	return r.i64()
}

// encodeConsentRevocation frames the (purpose, entity) pair of a
// RevokeConsent (the record key is the affected unit).
func encodeConsentRevocation(purpose core.Purpose, entity core.EntityID) []byte {
	buf := appendBytes(nil, []byte(purpose))
	return appendBytes(buf, []byte(entity))
}

func decodeConsentRevocation(buf []byte) (core.Purpose, core.EntityID, error) {
	r := byteReader{buf: buf}
	purpose, err := r.bytes()
	if err != nil {
		return "", "", fmt.Errorf("compliance: bad consent record: %w", err)
	}
	entity, err := r.bytes()
	if err != nil {
		return "", "", fmt.Errorf("compliance: bad consent record: %w", err)
	}
	return core.Purpose(purpose), core.EntityID(entity), nil
}

// ---- minimal binary framing ----

func appendU32(buf []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(buf, b[:]...)
}

func appendI64(buf []byte, v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return append(buf, b[:]...)
}

func appendBytes(buf, b []byte) []byte {
	buf = appendU32(buf, uint32(len(b)))
	return append(buf, b...)
}

// byteReader walks a framed buffer with bounds checking.
type byteReader struct {
	buf []byte
	off int
}

func (r *byteReader) u8() (byte, error) {
	if r.off+1 > len(r.buf) {
		return 0, fmt.Errorf("compliance: truncated checkpoint field")
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *byteReader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("compliance: truncated checkpoint field")
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *byteReader) i64() (int64, error) {
	if r.off+8 > len(r.buf) {
		return 0, fmt.Errorf("compliance: truncated checkpoint field")
	}
	v := int64(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v, nil
}

func (r *byteReader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	// Compare against the remainder, not off+n: on 32-bit platforms the
	// sum could wrap negative on a corrupt length and dodge the check.
	if int(n) < 0 || int(n) > len(r.buf)-r.off {
		return nil, fmt.Errorf("compliance: truncated checkpoint bytes")
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}
