package compliance

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacase/datacase/internal/audit"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/cryptox"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/policy"
	"github.com/datacase/datacase/internal/provenance"
	"github.com/datacase/datacase/internal/storage"
	"github.com/datacase/datacase/internal/storage/lsm"
	"github.com/datacase/datacase/internal/wal"
)

// Well-known entities of a deployment.
const (
	EntityController core.EntityID = "controller"
	EntityProcessor  core.EntityID = "processor"
	EntitySubjectSvc core.EntityID = "subject-svc"
	EntitySystem     core.EntityID = "system"
)

// Purposes the deployment grounds beyond the record's own.
const (
	PurposeService       core.Purpose = "service"
	PurposeProcessing    core.Purpose = "processing"
	PurposeSubjectAccess core.Purpose = "subject-access"
)

// Operation errors.
var (
	// ErrNotFound: the record does not exist (or was erased).
	ErrNotFound = errors.New("compliance: record not found")
	// ErrDenied: the policy engine rejected the access.
	ErrDenied = errors.New("compliance: access denied")
)

// Counters is a snapshot of the DB-level work tally.
type Counters struct {
	Creates     uint64
	DataReads   uint64
	DataUpdates uint64
	Deletes     uint64
	MetaReads   uint64
	MetaUpdates uint64
	MetaScans   uint64
	Denials     uint64
	NotFound    uint64
	Vacuums     uint64
	VacuumFulls uint64
	// CascadeDeletes counts derived records strong-deleted because
	// their subject was identifiable after a parent's erasure.
	CascadeDeletes uint64
	// Checkpoints counts durable WAL checkpoints taken (periodic
	// checkpointer plus explicit Checkpoint calls), full images and
	// delta frames both.
	Checkpoints uint64
	// DeltaCheckpoints counts the subset of Checkpoints emitted as
	// incremental delta frames (IncrementalCheckpoints profiles).
	DeltaCheckpoints uint64
	// FullCheckpointBytes / DeltaCheckpointBytes total the payload bytes
	// of full images vs delta frames — the incremental checkpointer's
	// O(dirty) claim, measurable.
	FullCheckpointBytes  uint64
	DeltaCheckpointBytes uint64
}

// counterBlock is the live tally. Every field is atomic because the
// shared-lock read path bumps reads, denials and not-founds while
// holding mu only in read mode — concurrent readers must count
// race-free without write access.
type counterBlock struct {
	creates              atomic.Uint64
	dataReads            atomic.Uint64
	dataUpdates          atomic.Uint64
	deletes              atomic.Uint64
	metaReads            atomic.Uint64
	metaUpdates          atomic.Uint64
	metaScans            atomic.Uint64
	denials              atomic.Uint64
	notFound             atomic.Uint64
	vacuums              atomic.Uint64
	vacuumFulls          atomic.Uint64
	cascadeDeletes       atomic.Uint64
	checkpoints          atomic.Uint64
	deltaCheckpoints     atomic.Uint64
	fullCheckpointBytes  atomic.Uint64
	deltaCheckpointBytes atomic.Uint64
}

// snapshot copies the live tally into the exported shape.
func (c *counterBlock) snapshot() Counters {
	return Counters{
		Creates:              c.creates.Load(),
		DataReads:            c.dataReads.Load(),
		DataUpdates:          c.dataUpdates.Load(),
		Deletes:              c.deletes.Load(),
		MetaReads:            c.metaReads.Load(),
		MetaUpdates:          c.metaUpdates.Load(),
		MetaScans:            c.metaScans.Load(),
		Denials:              c.denials.Load(),
		NotFound:             c.notFound.Load(),
		Vacuums:              c.vacuums.Load(),
		VacuumFulls:          c.vacuumFulls.Load(),
		CascadeDeletes:       c.cascadeDeletes.Load(),
		Checkpoints:          c.checkpoints.Load(),
		DeltaCheckpoints:     c.deltaCheckpoints.Load(),
		FullCheckpointBytes:  c.fullCheckpointBytes.Load(),
		DeltaCheckpointBytes: c.deltaCheckpointBytes.Load(),
	}
}

// DB is one shard of a deployment (ShardedDB is the deployment, also
// at one shard): a data table of GDPR records plus the profile's policy
// engine, audit logger and at-rest protection. All operations are
// policy-checked and logged per the profile's grounding. The keyed and
// subject-scoped operations are the …Locked methods: ShardedDB routes
// to a shard, takes its lock, revalidates the route and calls them.
// What a shard locks for itself are the fan-out targets (ReadByMeta,
// Audit, SweepExpired, Space, Checkpoint).
//
// Concurrency model (ARCHITECTURE.md §6): mu is a read/write lock.
// Mutations — creates, updates, deletes, consent changes, erase
// compounds, checkpointing, recovery replay — take it exclusively.
// The read path (ReadData, ReadMeta, ReadByMeta, SubjectAccess,
// Audit, Space) takes it shared, so policy-checked reads scale across
// cores: the structures a reader touches are each safe under the
// shared lock — the storage engine and policy engine are internally
// RWMutex-protected, the logical clock and op counters are atomic,
// model history appends are internally locked, and hot-path audit
// records go through the async sink. Readers never write any
// mu-guarded field. Profile.ExclusiveReads restores the old
// one-big-mutex behaviour as an experiment baseline.
type DB struct {
	profile Profile

	mu sync.RWMutex
	// clock is the deployment's logical clock; in a sharded deployment
	// every shard shares one clock, so deadline invariants (retention,
	// breach notification) advance with traffic anywhere, not just on
	// the shard holding the deadline.
	clock    *core.Clock
	data     storage.Engine
	policies policy.Engine
	logger   audit.Logger
	// asink is the async audit sink behind logger (nil when the profile
	// chose SyncAudit); hot-path read records enqueue here.
	asink    *audit.AsyncLogger
	sealer   cryptox.Sealer
	blockdev *cryptox.BlockDev
	prov     *provenance.Graph

	nextSector int

	// plaintext personal-data accounting for Table 2.
	personalBytes int64
	metaBytes     int64

	// model mirror (TrackModel).
	modelDB *core.Database
	history *core.History

	mutationsSinceCheck int
	counters            counterBlock

	// checkpointer state (guarded by mu): mutations and WAL growth since
	// the last durable checkpoint, for the ops-/bytes-triggered policy.
	opsSinceCheckpoint   int
	walBytesAtCheckpoint int64
	// suppressCheckpoints defers the periodic checkpointer while a
	// compound operation (EraseSubject's intent + delete loop) is in
	// flight: a snapshot taken mid-compound would capture a half-erased
	// subject and truncate the erase intent, so a crash right after it
	// would partially resurrect the subject. Delta frames are gated the
	// same way — a mid-compound delta would chain a half-erased subject
	// to the base image.
	suppressCheckpoints bool
	// incremental-checkpoint dirty tracking (guarded by mu; nil unless
	// the profile enables IncrementalCheckpoints). dirtyKeys holds keys
	// whose rows changed since the last checkpoint frame, deletedKeys
	// the keys deleted since then; the sets are kept disjoint, so a
	// delta frame is exactly one upsert or one delete per touched key.
	dirtyKeys   map[string]struct{}
	deletedKeys map[string]struct{}
	// deltasSinceFull counts delta frames chained to the current full
	// image; at FullCheckpointEvery the next checkpoint is forced full.
	deltasSinceFull int
	// mutationsSinceClockNote schedules the periodic RecClock notes.
	mutationsSinceClockNote int

	// onDelete, when set, is invoked (with mu held) for every record
	// physically removed from this DB, including dependent cascades.
	// ShardedDB uses it to keep its key directory exact.
	onDelete func(key string)

	// dirSnapshot, when set, returns the encoded key->shard directory in
	// force for the deployment this shard belongs to; checkpoints embed
	// it so recovery can adopt the topology (elastic resharding). Called
	// with mu held; implementations may take the directory lock (the
	// shard-then-directory order is the legal one).
	dirSnapshot func() []byte

	// loads tracks per-subject op counts when the profile enables
	// TrackSubjectLoad; the Rebalancer's split planner reads it to pick
	// which subjects to move off a hot shard.
	loads *loadTracker
}

// materializePayloadKey draws the at-rest key for profiles that seal
// payloads and did not bring one (the KMS issuing the deployment its
// at-rest secret); read it back via Profile() — crash recovery needs it.
func materializePayloadKey(p *Profile) error {
	if p.UseBlockDev || len(p.PayloadKey) > 0 {
		return nil
	}
	if err := p.validate(); err != nil {
		return err
	}
	key, err := cryptox.GenerateKey(p.PayloadCipher)
	if err != nil {
		return err
	}
	p.PayloadKey = key
	return nil
}

// openNamed builds a shard whose data table (and therefore WAL segment)
// carries the given name, ticking the given clock: every shard has its
// own named table and log segment while all shards share one clock.
func openNamed(p Profile, tableName string, clock *core.Clock) (*DB, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	logger, err := p.NewLogger()
	if err != nil {
		return nil, err
	}
	log := wal.New()
	if p.SerialWAL {
		log = wal.NewSerial()
	}
	if p.WALSyncStall > 0 {
		log.SetSyncDelay(p.WALSyncStall)
	}
	data, err := newEngine(p, tableName, log)
	if err != nil {
		return nil, err
	}
	policies := p.NewPolicyEngine()
	if !p.NoDecisionCache {
		policies = policy.NewCached(policies, p.DecisionCacheEntries)
	}
	db := &DB{
		profile:  p,
		clock:    clock,
		data:     data,
		policies: policies,
		logger:   logger,
		prov:     provenance.NewGraph(),
	}
	if !p.SyncAudit {
		db.asink = audit.NewAsync(logger, audit.DefaultAsyncDepth)
		db.logger = db.asink
	}
	if p.UseBlockDev {
		// 96-byte sectors: enough for the mall payloads without the
		// device dominating the space accounting.
		dev, err := cryptox.NewBlockDev([]byte(p.Name+"-disk-passphrase"), 96)
		if err != nil {
			return nil, err
		}
		db.blockdev = dev
	} else {
		// The at-rest key is the profile's KMS-held secret
		// (Profile.PayloadKey, materialized by OpenSharded): it
		// survives a crash while process memory does not, so recovery —
		// given the crashed deployment's materialized profile — builds
		// the same sealer and the blobs replayed from the WAL stay
		// readable. It is never derivable from public profile data; a
		// stolen segment image alone stays ciphertext.
		if len(p.PayloadKey) == 0 {
			return nil, fmt.Errorf("compliance: profile %s has no materialized payload key", p.Name)
		}
		sealer, err := cryptox.NewAESGCM(p.PayloadKey, nil)
		if err != nil {
			return nil, err
		}
		db.sealer = sealer
	}
	if p.TrackModel {
		db.modelDB = core.NewDatabase()
		db.history = core.NewHistory()
	}
	if p.TrackSubjectLoad {
		db.loads = newLoadTracker()
	}
	if p.IncrementalCheckpoints {
		db.dirtyKeys = make(map[string]struct{})
		db.deletedKeys = make(map[string]struct{})
	}
	return db, nil
}

// newEngine builds the profile's storage backend for one data table.
func newEngine(p Profile, tableName string, log *wal.Log) (storage.Engine, error) {
	switch p.Backend {
	case "", BackendHeap:
		return storage.NewHeap(tableName, log), nil
	case BackendLSM:
		return storage.NewLSM(tableName, log, lsm.Options{
			PurgeWithinOps:       p.PurgeWithinOps,
			MemtableFlushEntries: p.LSMFlushEntries,
		}), nil
	case BackendMmap:
		return storage.NewMmap(tableName, log), nil
	default:
		// validate rejects unknown backends before this runs; keep the
		// error anyway for callers constructing engines directly.
		return nil, fmt.Errorf("compliance: unknown storage backend %q", p.Backend)
	}
}

// Profile returns the profile the DB was opened with.
func (db *DB) Profile() Profile { return db.profile }

// Engine exposes the deployment's storage engine (tests, reports and
// backend-specific statistics such as purge-obligation counters).
func (db *DB) Engine() storage.Engine { return db.data }

// Counters returns a snapshot of the op counters. The fields are
// atomics, so the snapshot needs no lock and never blocks behind the
// write path.
func (db *DB) Counters() Counters { return db.counters.snapshot() }

// noteSubjectLoad records one op against the subject's load tally
// (no-op unless the profile enables TrackSubjectLoad). The tracker has
// its own mutex, so the shared-lock read path may call it too.
func (db *DB) noteSubjectLoad(subject string) {
	if db.loads != nil {
		db.loads.bump(subject)
	}
}

// rlock acquires the read-path lock: shared by default, exclusive when
// the profile chose the ExclusiveReads baseline. It returns the
// matching unlock.
func (db *DB) rlock() func() {
	if db.profile.ExclusiveReads {
		db.mu.Lock()
		return db.mu.Unlock
	}
	db.mu.RLock()
	return db.mu.RUnlock
}

// flushAudit forces every queued async audit record into the inner
// logger (no-op for SyncAudit profiles). Called at the points where the
// log must be complete: audits, checkpoints, close.
func (db *DB) flushAudit() {
	if db.asink != nil {
		// Drain errors are logger failures, which this in-memory stack
		// treats as programming errors (see logOp).
		if err := db.asink.Flush(); err != nil {
			panic(err)
		}
	}
}

// Close flushes the async audit sink and stops its drainer. The DB
// remains usable — later hot-path records degrade to synchronous
// logging — so Close is about goroutine hygiene, not lifecycle
// enforcement.
func (db *DB) Close() error {
	if db.asink != nil {
		return db.asink.Close()
	}
	return nil
}

// Len returns the number of live records.
func (db *DB) Len() int { return db.data.Len() }

// WALStats returns the commit-work counters of the deployment's
// write-ahead log.
func (db *DB) WALStats() wal.Stats { return db.data.Log().Stats() }

// SegmentImage returns the durable byte image of the deployment's WAL
// segment — what a crash would leave on disk. RecoverSharded rebuilds
// a deployment from one image per shard.
func (db *DB) SegmentImage() []byte { return db.data.Log().SegmentBytes() }

// WALLen returns the number of live records in the deployment's WAL
// segment (benchmarks report it as the log length at crash time).
func (db *DB) WALLen() int { return db.data.Log().Len() }

// Checkpoint takes a durable WAL checkpoint now: the full consistent
// state is snapshotted into a RecCheckpoint record and the log is
// truncated up to it, bounding both recovery time and log growth. The
// periodic checkpointer calls the same path on the profile's ops/bytes
// triggers.
func (db *DB) Checkpoint() wal.LSN {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

// maybeCheckpointLocked runs the profile's checkpoint policy after a
// mutation. Caller holds mu.
func (db *DB) maybeCheckpointLocked() {
	if db.profile.CheckpointEveryOps <= 0 && db.profile.CheckpointEveryBytes <= 0 {
		return
	}
	db.opsSinceCheckpoint++
	db.checkpointIfDueLocked()
}

// checkpointIfDueLocked takes a checkpoint when a trigger has fired and
// no compound operation is suppressing it. Caller holds mu.
func (db *DB) checkpointIfDueLocked() {
	if db.suppressCheckpoints {
		return
	}
	everyOps, everyBytes := db.profile.CheckpointEveryOps, db.profile.CheckpointEveryBytes
	if everyOps <= 0 && everyBytes <= 0 {
		return
	}
	trigger := everyOps > 0 && db.opsSinceCheckpoint >= everyOps
	if !trigger && everyBytes > 0 {
		trigger = db.data.Log().SizeBytes()-db.walBytesAtCheckpoint >= everyBytes
	}
	if trigger {
		db.checkpointLocked()
	}
}

// checkpointLocked snapshots the DB state into the WAL. Caller holds
// mu. The async audit queue flushes first, so the log is complete up to
// every state a checkpoint can be taken at.
//
// With IncrementalCheckpoints, the snapshot is a delta frame — only the
// rows dirtied (and keys deleted) since the last frame, chained to the
// last full image — unless no full image exists yet or the chain has
// reached FullCheckpointEvery deltas, in which case a full image is
// forced. Only full images move the WAL's truncation floor: a delta's
// base image and every record after it must stay replayable, so the
// PR 3 truncation clamp keeps protecting them unchanged.
func (db *DB) checkpointLocked() wal.LSN {
	db.flushAudit()
	log := db.data.Log()
	if db.incrementalDueLocked() {
		payload := encodeCheckpointDelta(db)
		lsn := log.Append(wal.RecCheckpointDelta, nil, payload)
		db.counters.checkpoints.Add(1)
		db.counters.deltaCheckpoints.Add(1)
		db.counters.deltaCheckpointBytes.Add(uint64(len(payload)))
		db.deltasSinceFull++
		db.resetDirtyLocked()
		db.opsSinceCheckpoint = 0
		db.mutationsSinceClockNote = 0 // the frame carries the clock
		db.walBytesAtCheckpoint = log.SizeBytes()
		return lsn
	}
	payload := encodeCheckpointState(db)
	lsn := log.Checkpoint(payload)
	log.Truncate(lsn - 1)
	if rb, ok := db.data.(storage.RegionBacked); ok {
		// The engine's half of a region checkpoint: snapshot the page
		// table and reset the (fully applied) embedded redo log — the
		// msync-analogue, O(dirty pages) with no row serialization.
		rb.CheckpointRegion()
	}
	db.counters.checkpoints.Add(1)
	db.counters.fullCheckpointBytes.Add(uint64(len(payload)))
	db.deltasSinceFull = 0
	db.resetDirtyLocked()
	db.opsSinceCheckpoint = 0
	db.mutationsSinceClockNote = 0 // the snapshot carries the clock
	db.walBytesAtCheckpoint = log.SizeBytes()
	return lsn
}

// incrementalDueLocked reports whether the next checkpoint should be a
// delta frame: the profile opted in, a full image exists to chain to,
// and the chain is still under the full-image cadence. Caller holds mu.
func (db *DB) incrementalDueLocked() bool {
	if !db.profile.IncrementalCheckpoints {
		return false
	}
	if _, ok := db.data.(storage.RegionBacked); ok {
		// Region engines never write delta frames: their full
		// checkpoint is already row-free and O(1)-sized, so a delta
		// would cost more than the image it avoids.
		return false
	}
	if _, ok := db.data.Log().LastCheckpoint(); !ok {
		return false
	}
	every := db.profile.FullCheckpointEvery
	if every <= 0 {
		every = DefaultFullCheckpointEvery
	}
	return db.deltasSinceFull < every
}

// resetDirtyLocked clears the dirty sets after a checkpoint frame
// captured them. Caller holds mu.
func (db *DB) resetDirtyLocked() {
	if db.dirtyKeys == nil {
		return
	}
	clear(db.dirtyKeys)
	clear(db.deletedKeys)
}

// noteDirtyLocked records that key's row changed since the last
// checkpoint frame (no-op unless IncrementalCheckpoints). Caller holds
// mu.
func (db *DB) noteDirtyLocked(key string) {
	if db.dirtyKeys == nil {
		return
	}
	delete(db.deletedKeys, key)
	db.dirtyKeys[key] = struct{}{}
}

// noteDeletedLocked records that key was deleted since the last
// checkpoint frame (no-op unless IncrementalCheckpoints). Caller holds
// mu.
func (db *DB) noteDeletedLocked(key string) {
	if db.dirtyKeys == nil {
		return
	}
	delete(db.dirtyKeys, key)
	db.deletedKeys[key] = struct{}{}
}

// clockNoteEvery bounds how far the logical clock can regress across a
// crash on a mutation-heavy stream: at most this many ticks pass
// between durable RecClock notes. (A read-only window before a crash
// can still lose its ticks — reads write nothing — which recovery
// documents as its residual clock exposure.)
const clockNoteEvery = 64

// noteClockLocked appends a RecClock record carrying the clock's
// current value, every clockNoteEvery mutations — or immediately when
// forced, which the compliance-critical mutations (deletes, erasures,
// consent withdrawals) do so that the tick that made them lawful can
// never be lost. Caller holds mu.
func (db *DB) noteClockLocked(force bool) {
	db.mutationsSinceClockNote++
	if !force && db.mutationsSinceClockNote < clockNoteEvery {
		return
	}
	db.mutationsSinceClockNote = 0
	db.data.Log().Append(wal.RecClock, nil, encodeClockNote(db.clock.Now()))
}

// Model returns the model mirror (nil unless TrackModel).
func (db *DB) Model() (*core.Database, *core.History) { return db.modelDB, db.history }

// Logger exposes the audit logger (reports, tests).
func (db *DB) Logger() audit.Logger { return db.logger }

// PolicyEngine exposes the policy engine (reports, tests).
func (db *DB) PolicyEngine() policy.Engine { return db.policies }

// ioStall models the device access a real deployment would wait on
// (Profile.IOStall; 0 disables). It runs on the payload path only —
// exactly where a disk-backed system would block — so concurrency
// experiments can observe lock-granularity effects: under the shared
// read lock the stalls of concurrent readers overlap, under
// ExclusiveReads they serialize.
func (db *DB) ioStall() {
	if db.profile.IOStall > 0 {
		time.Sleep(db.profile.IOStall)
	}
}

// protect converts a plaintext payload into the stored blob.
func (db *DB) protect(payload []byte) ([]byte, error) {
	db.ioStall()
	if db.blockdev != nil {
		sector := db.nextSector
		db.nextSector++
		if err := db.blockdev.WriteSector(sector, payload); err != nil {
			return nil, err
		}
		blob := make([]byte, 8)
		binary.BigEndian.PutUint32(blob[:4], uint32(sector))
		binary.BigEndian.PutUint32(blob[4:], uint32(len(payload)))
		return blob, nil
	}
	return db.sealer.Seal(payload)
}

// unprotect recovers the plaintext payload from a stored blob.
func (db *DB) unprotect(blob []byte) ([]byte, error) {
	db.ioStall()
	if db.blockdev != nil {
		if len(blob) != 8 {
			return nil, fmt.Errorf("compliance: bad sector reference")
		}
		sector := int(binary.BigEndian.Uint32(blob[:4]))
		n := int(binary.BigEndian.Uint32(blob[4:]))
		buf, err := db.blockdev.ReadSector(sector)
		if err != nil {
			return nil, err
		}
		if n > len(buf) {
			return nil, fmt.Errorf("compliance: sector shorter than payload")
		}
		return buf[:n], nil
	}
	return db.sealer.Open(blob)
}

// createLocked collects a new record with consent: stores it
// protected, attaches the consented policies, and logs the collection.
// Caller holds mu: ShardedDB.Create calls it after validating the
// subject's routing under this shard's lock, so a concurrent split
// cannot strand the new record on a shard the directory no longer
// points at.
func (db *DB) createLocked(rec gdprbench.Record) error {
	now := db.clock.Tick()
	meta := Metadata{
		Subject:    rec.Subject,
		Purposes:   rec.Purposes,
		TTL:        rec.TTL,
		Processors: rec.Processors,
		Objected:   rec.Objected,
		CreatedAt:  int64(now),
		BaseTTL:    rec.TTL,
	}
	blob, err := db.protect(rec.Payload)
	if err != nil {
		return err
	}
	row := encodeRecord(storedRecord{Meta: meta, Blob: blob})
	if err := db.data.Insert([]byte(rec.Key), row); err != nil {
		return err
	}
	db.personalBytes += int64(len(rec.Payload))
	db.metaBytes += int64(len(row) - len(blob))
	unit := core.UnitID(rec.Key)
	subject := core.EntityID(rec.Subject)
	deadline := core.Time(int64(now) + rec.TTL)
	pols := recordPolicies(rec, now, deadline)
	if err := db.policies.AttachPolicies(unit, subject, pols); err != nil {
		return err
	}
	db.logOp(core.HistoryTuple{
		Unit: unit, Purpose: PurposeService, Entity: EntityController,
		Action: core.Action{Kind: core.ActionCreate, SystemAction: "INSERT"}, At: now,
	}, "INSERT INTO data", row, unit, nil)
	if db.modelDB != nil {
		u := core.NewDataUnit(unit, core.KindBase, subject, "collection")
		u.SetValue(rec.Payload, now)
		for _, p := range pols {
			// Grant only fails on malformed policies; ours are built here.
			_ = u.Grant(p, now)
		}
		// Duplicate keys were rejected by Insert above.
		_ = db.modelDB.Add(u)
		db.history.MustAppend(core.HistoryTuple{
			Unit: unit, Purpose: "consent", Entity: subject,
			Action: core.Action{Kind: core.ActionConsent, RequiredByRegulation: true}, At: now,
		})
		db.history.MustAppend(core.HistoryTuple{
			Unit: unit, Purpose: PurposeService, Entity: EntityController,
			Action: core.Action{Kind: core.ActionCreate, SystemAction: "INSERT"}, At: now,
		})
	}
	db.counters.creates.Add(1)
	db.noteDirtyLocked(rec.Key)
	db.noteSubjectLoad(rec.Subject)
	db.noteClockLocked(false)
	db.maybeCheckpointLocked()
	return nil
}

// createBatchLocked admits a whole batch of new records with the
// per-batch costs paid once instead of per record: one clock tick (the
// batch is one collection event), one policy-bundle adjudication per
// distinct TTL (the bundle depends only on (now, deadline); the engine
// still attaches it per unit, inside one epoch-bracketed mutation
// each), one cipher setup (the sealer is resident; payloads seal
// back-to-back without per-record lock traffic), one engine-lock
// acquisition and one WAL group submission for all N inserts
// (storage.BatchInserter), and one clock-note/checkpoint-policy pass.
//
// Admission is all-or-nothing at the storage boundary: every row is
// encoded and sealed before the engine sees any of them, and the
// engine's InsertBatch rejects the whole batch on a duplicate key, so a
// failed batch leaves no partial state. Per-record audit entries are
// still written — demonstrable accountability is per operation, and
// batching may not thin the trail. Caller holds mu.
func (db *DB) createBatchLocked(recs []gdprbench.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if len(recs) == 1 {
		return db.createLocked(recs[0])
	}
	now := db.clock.Tick()
	keys := make([][]byte, len(recs))
	rows := make([][]byte, len(recs))
	blobLens := make([]int, len(recs))
	var personal, meta int64
	for i, rec := range recs {
		blob, err := db.protect(rec.Payload)
		if err != nil {
			return err
		}
		row := encodeRecord(storedRecord{Meta: Metadata{
			Subject:    rec.Subject,
			Purposes:   rec.Purposes,
			TTL:        rec.TTL,
			Processors: rec.Processors,
			Objected:   rec.Objected,
			CreatedAt:  int64(now),
			BaseTTL:    rec.TTL,
		}, Blob: blob})
		keys[i], rows[i], blobLens[i] = []byte(rec.Key), row, len(blob)
		personal += int64(len(rec.Payload))
		meta += int64(len(row) - len(blob))
	}
	if err := db.insertRows(keys, rows); err != nil {
		return err
	}
	db.personalBytes += personal
	db.metaBytes += meta
	// recordPolicies depends only on (now, deadline), and now is shared
	// by the batch: adjudicate one bundle per distinct TTL and attach it
	// to every record that consented under that TTL.
	bundles := make(map[int64][]core.Policy)
	for i, rec := range recs {
		pols, ok := bundles[rec.TTL]
		if !ok {
			pols = recordPolicies(rec, now, core.Time(int64(now)+rec.TTL))
			bundles[rec.TTL] = pols
		}
		unit := core.UnitID(rec.Key)
		subject := core.EntityID(rec.Subject)
		if err := db.policies.AttachPolicies(unit, subject, pols); err != nil {
			return err
		}
		db.logOp(core.HistoryTuple{
			Unit: unit, Purpose: PurposeService, Entity: EntityController,
			Action: core.Action{Kind: core.ActionCreate, SystemAction: "INSERT"}, At: now,
		}, "INSERT INTO data (batch)", rows[i], unit, nil)
		if db.modelDB != nil {
			u := core.NewDataUnit(unit, core.KindBase, subject, "collection")
			u.SetValue(rec.Payload, now)
			for _, p := range pols {
				_ = u.Grant(p, now)
			}
			_ = db.modelDB.Add(u)
			db.history.MustAppend(core.HistoryTuple{
				Unit: unit, Purpose: "consent", Entity: subject,
				Action: core.Action{Kind: core.ActionConsent, RequiredByRegulation: true}, At: now,
			})
			db.history.MustAppend(core.HistoryTuple{
				Unit: unit, Purpose: PurposeService, Entity: EntityController,
				Action: core.Action{Kind: core.ActionCreate, SystemAction: "INSERT"}, At: now,
			})
		}
		db.noteDirtyLocked(rec.Key)
		db.noteSubjectLoad(rec.Subject)
	}
	db.counters.creates.Add(uint64(len(recs)))
	db.noteClockLocked(false)
	if db.profile.CheckpointEveryOps > 0 || db.profile.CheckpointEveryBytes > 0 {
		db.opsSinceCheckpoint += len(recs)
		db.checkpointIfDueLocked()
	}
	return nil
}

// insertRows admits the encoded batch into the storage engine: through
// the BatchInserter capability when the engine has one (both built-ins
// do — one engine lock, one WAL group submission), otherwise per-record
// Insert with rollback of the prefix on failure, preserving the
// all-or-nothing contract.
func (db *DB) insertRows(keys, rows [][]byte) error {
	if bi, ok := db.data.(storage.BatchInserter); ok {
		return bi.InsertBatch(keys, rows)
	}
	for i := range keys {
		if err := db.data.Insert(keys[i], rows[i]); err != nil {
			for j := 0; j < i; j++ {
				_ = db.data.Delete(keys[j])
			}
			return err
		}
	}
	return nil
}

// recordPolicies derives the consented policy set of a record: the
// controller operates the service, the processor processes, the
// subject-access path serves data-subject rights, and the system must
// erase by the TTL deadline. The record's own purposes stay in its
// metadata (they drive metadata queries); consent to them is subsumed
// under the service policy, as GDPRBench's schema does.
func recordPolicies(rec gdprbench.Record, now, deadline core.Time) []core.Policy {
	return []core.Policy{
		{Purpose: PurposeService, Entity: EntityController, Begin: now, End: deadline},
		{Purpose: PurposeProcessing, Entity: EntityProcessor, Begin: now, End: deadline},
		{Purpose: PurposeSubjectAccess, Entity: EntitySubjectSvc, Begin: now, End: deadline},
		{Purpose: core.PurposeComplianceErase, Entity: EntitySystem, Begin: now, End: deadline},
	}
}

// readDataLocked reads a record's personal data by key. Caller holds
// the read-path lock, which is shared: the engine Get, the policy check
// (decision cache included), the decrypt and the audit record are all
// safe for concurrent readers, so reads scale instead of queueing
// behind one mutex.
func (db *DB) readDataLocked(entity core.EntityID, purpose core.Purpose, key string) ([]byte, error) {
	now := db.clock.Tick()
	row, ok := db.data.Get([]byte(key))
	if !ok {
		db.counters.notFound.Add(1)
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	unit := core.UnitID(key)
	d := db.policies.Allow(policy.Request{
		Unit: unit, Subject: core.EntityID(metaSubject(row)),
		Entity: entity, Purpose: purpose, Action: core.ActionRead, At: now,
	})
	if !d.Allowed {
		db.counters.denials.Add(1)
		return nil, fmt.Errorf("%w: %s", ErrDenied, d.Reason)
	}
	rec, err := decodeRecord(row)
	if err != nil {
		return nil, err
	}
	payload, err := db.unprotect(rec.Blob)
	if err != nil {
		return nil, err
	}
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: purpose, Entity: entity,
		Action: core.Action{Kind: core.ActionRead, SystemAction: "SELECT"}, At: now,
	}
	db.logRead(tuple, "SELECT data", payload, unit, &d)
	if db.history != nil {
		db.history.MustAppend(tuple)
	}
	db.counters.dataReads.Add(1)
	db.noteSubjectLoad(string(metaSubject(row)))
	return payload, nil
}

// updateDataLocked overwrites a record's personal data; caller holds mu.
func (db *DB) updateDataLocked(entity core.EntityID, purpose core.Purpose, key string, payload []byte) error {
	now := db.clock.Tick()
	row, ok := db.data.Get([]byte(key))
	if !ok {
		db.counters.notFound.Add(1)
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	unit := core.UnitID(key)
	d := db.policies.Allow(policy.Request{
		Unit: unit, Subject: core.EntityID(metaSubject(row)),
		Entity: entity, Purpose: purpose, Action: core.ActionWrite, At: now,
	})
	if !d.Allowed {
		db.counters.denials.Add(1)
		return fmt.Errorf("%w: %s", ErrDenied, d.Reason)
	}
	rec, err := decodeRecord(row)
	if err != nil {
		return err
	}
	oldPayload, err := db.unprotect(rec.Blob)
	if err != nil {
		return err
	}
	blob, err := db.protect(payload)
	if err != nil {
		return err
	}
	rec.Blob = blob
	if err := db.data.Update([]byte(key), encodeRecord(rec)); err != nil {
		return err
	}
	db.personalBytes += int64(len(payload)) - int64(len(oldPayload))
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: purpose, Entity: entity,
		Action: core.Action{Kind: core.ActionWrite, SystemAction: "UPDATE"}, At: now,
	}
	db.logOp(tuple, "UPDATE data", payload, unit, &d)
	if db.modelDB != nil {
		if u, ok := db.modelDB.Lookup(unit); ok {
			u.SetValue(payload, now)
		}
		db.history.MustAppend(tuple)
	}
	db.counters.dataUpdates.Add(1)
	db.noteDirtyLocked(key)
	db.noteSubjectLoad(string(metaSubject(row)))
	db.afterMutation()
	return nil
}

// deleteDataLocked erases a record per the profile's erasure grounding.
// The action is required by regulation (right to erasure / retention
// expiry), so it needs no authorizing policy, but it must be recorded.
// Caller holds mu (EraseSubject erases a whole subject under one lock
// acquisition).
func (db *DB) deleteDataLocked(entity core.EntityID, key string) error {
	now := db.clock.Tick()
	// The subject is needed for the strong grounding's cascade; read it
	// before the row disappears.
	row, ok := db.data.Get([]byte(key))
	if !ok {
		db.counters.notFound.Add(1)
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	subject := append([]byte(nil), metaSubject(row)...)
	if db.profile.CascadeDependents {
		// A strong delete with dependents is a multi-record compound:
		// log the full key set as a durable erase intent before the
		// first physical delete, so a crash between the parent's and a
		// dependent's delete frames recovers to the finished cascade
		// instead of leaving identifiable derived records alive.
		if deps := db.cascadeTargets(core.UnitID(key), subject); len(deps) > 0 {
			db.data.Log().Append(wal.RecErase, subject,
				encodeEraseIntent(append([]string{key}, deps...)))
		}
	}
	if err := db.data.Delete([]byte(key)); err != nil {
		db.counters.notFound.Add(1)
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	// On purge-capable backends (LSM), a regulation-mandated delete is
	// not done with the tombstone: register the obligation that bounds
	// how long the shadowed versions may stay physically resident.
	if pg, ok := db.data.(storage.Purger); ok {
		pg.RegisterPurge([]byte(key))
	}
	if db.onDelete != nil {
		db.onDelete(key)
	}
	unit := core.UnitID(key)
	db.policies.RevokePolicies(unit)
	sysAction := db.deleteSysAction()
	if db.profile.EraseLogsOnDelete {
		// Erase log entries of the unit first, then log the erasure
		// itself — the surviving record demonstrates compliance.
		// Loggers used by erase-capable profiles support EraseUnit.
		_, _ = db.logger.EraseUnit(unit)
	}
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: core.PurposeComplianceErase, Entity: entity,
		Action: core.Action{Kind: core.ActionErase, SystemAction: sysAction, RequiredByRegulation: true},
		At:     now,
	}
	db.logOp(tuple, "DELETE FROM data", nil, unit, nil)
	if db.modelDB != nil {
		if u, ok := db.modelDB.Lookup(unit); ok {
			u.RevokeAllPolicies(now)
			u.MarkErased(now)
		}
		db.history.MustAppend(tuple)
	}
	db.counters.deletes.Add(1)
	db.noteDeletedLocked(key)
	db.noteSubjectLoad(string(subject))
	// The strong-delete grounding cascades to derived records in which
	// the subject remains identifiable (§3.1's strong deletion).
	if db.profile.CascadeDependents {
		db.cascadeDependents(unit, subject, entity, now)
	}
	// Forced clock note: the tick that made this erasure due (e.g. a
	// passed retention deadline) must survive the crash with it. Inside
	// an EraseSubject compound the note is deferred to the compound's
	// end (suppressCheckpoints doubles as the in-compound marker), so a
	// K-record erasure pays one note, not K.
	if !db.suppressCheckpoints {
		db.noteClockLocked(true)
	}
	db.afterMutation()
	return nil
}

// readMetaLocked answers a keyed metadata query for one record (the
// customer workload's "reads of metadata": a subject inspecting their
// own record's policies and TTL). Caller holds the read-path lock, like
// readDataLocked.
func (db *DB) readMetaLocked(entity core.EntityID, purpose core.Purpose, key string) (Metadata, error) {
	now := db.clock.Tick()
	row, ok := db.data.Get([]byte(key))
	if !ok {
		db.counters.notFound.Add(1)
		return Metadata{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	unit := core.UnitID(key)
	d := db.policies.Allow(policy.Request{
		Unit: unit, Subject: core.EntityID(metaSubject(row)),
		Entity: entity, Purpose: purpose, Action: core.ActionReadMetadata, At: now,
	})
	if !d.Allowed {
		db.counters.denials.Add(1)
		return Metadata{}, fmt.Errorf("%w: %s", ErrDenied, d.Reason)
	}
	rec, err := decodeRecord(row)
	if err != nil {
		return Metadata{}, err
	}
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: purpose, Entity: entity,
		Action: core.Action{Kind: core.ActionReadMetadata, SystemAction: "SELECT meta"}, At: now,
	}
	db.logRead(tuple, "SELECT meta", encodeMetadata(rec.Meta), unit, &d)
	if db.history != nil {
		db.history.MustAppend(tuple)
	}
	db.counters.metaReads.Add(1)
	db.noteSubjectLoad(rec.Meta.Subject)
	return rec.Meta, nil
}

// updateMetaLocked changes a record's metadata: sets a new TTL and
// consents to an additional purpose. Caller holds mu.
func (db *DB) updateMetaLocked(entity core.EntityID, purpose core.Purpose, key, newPurpose string, newTTL int64) error {
	now := db.clock.Tick()
	row, ok := db.data.Get([]byte(key))
	if !ok {
		db.counters.notFound.Add(1)
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	unit := core.UnitID(key)
	subject := core.EntityID(metaSubject(row))
	d := db.policies.Allow(policy.Request{
		Unit: unit, Subject: subject,
		Entity: entity, Purpose: purpose, Action: core.ActionWriteMetadata, At: now,
	})
	if !d.Allowed {
		db.counters.denials.Add(1)
		return fmt.Errorf("%w: %s", ErrDenied, d.Reason)
	}
	rec, err := decodeRecord(row)
	if err != nil {
		return err
	}
	oldLen := int64(len(row) - len(rec.Blob))
	rec.Meta.TTL = newTTL
	if newPurpose != "" && !hasString(rec.Meta.Purposes, newPurpose) {
		rec.Meta.Purposes = append(rec.Meta.Purposes, newPurpose)
	}
	if newPurpose != "" && !hasString(rec.Meta.Consented, newPurpose) {
		// Recorded in the row so crash recovery can re-grant exactly the
		// post-collection consents (the policy attached below would
		// otherwise exist only in engine memory for engines that cannot
		// enumerate their policies).
		rec.Meta.Consented = append(rec.Meta.Consented, newPurpose)
	}
	newRow := encodeRecord(rec)
	if err := db.data.Update([]byte(key), newRow); err != nil {
		return err
	}
	db.metaBytes += int64(len(newRow)-len(rec.Blob)) - oldLen
	if newPurpose != "" {
		p := core.Policy{
			Purpose: core.Purpose(newPurpose), Entity: EntityController,
			Begin: now, End: core.Time(int64(now) + newTTL),
		}
		if err := db.policies.AttachPolicy(unit, subject, p); err != nil {
			return err
		}
		if db.modelDB != nil {
			if u, ok := db.modelDB.Lookup(unit); ok {
				_ = u.Grant(p, now)
			}
		}
	}
	tuple := core.HistoryTuple{
		Unit: unit, Purpose: purpose, Entity: entity,
		Action: core.Action{Kind: core.ActionWriteMetadata, SystemAction: "UPDATE meta"}, At: now,
	}
	db.logOp(tuple, "UPDATE meta", encodeMetadata(rec.Meta), unit, &d)
	if db.history != nil {
		db.history.MustAppend(tuple)
	}
	db.counters.metaUpdates.Add(1)
	db.noteDirtyLocked(key)
	db.afterMutation()
	return nil
}

// ReadByMeta reads data using metadata on this shard: scan for records
// collected for the purpose and read up to limit of them
// (policy-checked and decrypted individually, as FGAC demands). It is a
// fan-out target: api.Local walks the shards through it, checking the
// caller's context between them.
func (db *DB) ReadByMeta(entity core.EntityID, purpose core.Purpose, metaPurpose string, limit int) (int, error) {
	var budget atomic.Int64
	budget.Store(int64(limit))
	return db.readByMetaBudget(entity, purpose, metaPurpose, &budget)
}

// readByMetaBudget is ReadByMeta drawing match slots from a shared
// budget, so the sharded fan-out can bound its merged result at the
// caller's limit. A slot is consumed when a row matches the metadata
// predicate (denied rows keep their slot: the limit bounds the scan,
// not the successful reads).
func (db *DB) readByMetaBudget(entity core.EntityID, purpose core.Purpose, metaPurpose string, budget *atomic.Int64) (int, error) {
	defer db.rlock()()
	now := db.clock.Tick()
	type match struct {
		key []byte
		row []byte
	}
	var matches []match
	db.data.SeqScan(func(k, v []byte) bool {
		if metaHasPurpose(v, metaPurpose) {
			left := budget.Add(-1)
			if left < 0 {
				budget.Add(1)
				return false
			}
			matches = append(matches, match{
				key: append([]byte(nil), k...),
				row: append([]byte(nil), v...),
			})
			// Stop as soon as the last slot is taken — don't walk the
			// rest of the table hunting for a match we couldn't keep.
			return left > 0
		}
		return true
	})
	read := 0
	for _, m := range matches {
		unit := core.UnitID(m.key)
		d := db.policies.Allow(policy.Request{
			Unit: unit, Subject: core.EntityID(metaSubject(m.row)),
			Entity: entity, Purpose: purpose, Action: core.ActionRead, At: now,
		})
		if !d.Allowed {
			db.counters.denials.Add(1)
			continue
		}
		rec, err := decodeRecord(m.row)
		if err != nil {
			return read, err
		}
		if _, err := db.unprotect(rec.Blob); err != nil {
			return read, err
		}
		tuple := core.HistoryTuple{
			Unit: unit, Purpose: purpose, Entity: entity,
			Action: core.Action{Kind: core.ActionRead, SystemAction: "SELECT by-meta"}, At: now,
		}
		if db.profile.LogPolicySnapshots {
			// Demonstrable accountability logs every row-level access
			// with its policy snapshot, not just the query (§4.2: "all
			// policies are logged at the time of all the operations").
			db.logRead(tuple, "SELECT by-meta (row)", nil, unit, &d)
		}
		if db.history != nil {
			db.history.MustAppend(tuple)
		}
		read++
	}
	// One audit entry for the query itself.
	db.logRead(core.HistoryTuple{
		Unit: core.UnitID("query:" + metaPurpose), Purpose: purpose, Entity: entity,
		Action: core.Action{Kind: core.ActionRead, SystemAction: "SELECT by-meta"}, At: now,
	}, "SELECT data WHERE purpose", []byte(fmt.Sprintf("%d rows", read)), "", nil)
	db.counters.metaScans.Add(1)
	return read, nil
}

// buildEntry renders one audit entry per the profile's logging
// grounding. d, when non-nil, is the adjudication that authorized the
// operation: cache-served decisions are recorded with their grounding
// in the policy snapshot — demonstrable accountability must show not
// just that an access was allowed but how the allow was produced.
func (db *DB) buildEntry(tuple core.HistoryTuple, query string, response []byte,
	snapshotUnit core.UnitID, d *policy.Decision) audit.Entry {
	e := audit.Entry{Tuple: tuple, Query: query}
	if db.profile.LogResponses {
		e.Response = response
	}
	if db.profile.LogPolicySnapshots && snapshotUnit != "" {
		// Demonstrable accountability: serialize the unit's policies in
		// force into the entry (P_SYS logs all policies at the time of
		// all operations).
		snap := fmt.Sprintf("unit=%s entity=%s purpose=%s at=%d engine=%s",
			snapshotUnit, tuple.Entity, tuple.Purpose, tuple.At, db.policies.Name())
		if d != nil && d.CacheHit {
			snap += fmt.Sprintf(" decision=cached(valid-through=%s)", d.ValidThrough)
		}
		if lister, ok := db.policies.(policy.PolicyLister); ok {
			for _, p := range lister.PoliciesOf(snapshotUnit) {
				snap += " " + p.String()
			}
		}
		e.PolicySnapshot = []byte(snap)
	}
	return e
}

// logOp writes a synchronous audit entry: mutations, denials-of-record
// and regulation-required actions land in the log before the operation
// returns.
func (db *DB) logOp(tuple core.HistoryTuple, query string, response []byte,
	snapshotUnit core.UnitID, d *policy.Decision) {
	// Logger failures are programming errors in this in-memory stack.
	if err := db.logger.Log(db.buildEntry(tuple, query, response, snapshotUnit, d)); err != nil {
		panic(err)
	}
}

// logRead records a hot-path read: through the bounded async sink when
// the profile has one (the default), synchronously otherwise. The sink
// never drops — a full queue applies backpressure — and flushes at
// every audit, checkpoint, log inspection, log erasure and close.
func (db *DB) logRead(tuple core.HistoryTuple, query string, response []byte,
	snapshotUnit core.UnitID, d *policy.Decision) {
	e := db.buildEntry(tuple, query, response, snapshotUnit, d)
	if db.asink != nil {
		db.asink.LogAsync(e)
		return
	}
	if err := db.logger.Log(e); err != nil {
		panic(err)
	}
}

// deleteSysAction names the physical grounding a delete actually runs
// under on this deployment's backend — the audit trail is compliance
// evidence and must not claim a vacuum that the engine cannot perform.
func (db *DB) deleteSysAction() string {
	switch db.data.(type) {
	case storage.Vacuumer:
		return map[VacuumStyle]string{
			VacuumNone: "DELETE", VacuumLazy: "DELETE+VACUUM", VacuumFull: "DELETE+VACUUM FULL",
		}[db.profile.Vacuum]
	case storage.Purger:
		return "DELETE+purge compaction"
	default:
		return "DELETE"
	}
}

// afterMutation runs the autovacuum policy, the clock-note schedule and
// the checkpointer. The vacuum grounding only applies to backends with
// the Vacuumer capability; on the LSM backend reclamation is driven by
// the purge obligations the deletes registered.
func (db *DB) afterMutation() {
	db.noteClockLocked(false)
	db.maybeCheckpointLocked()
	db.mutationsSinceCheck++
	if db.profile.Vacuum == VacuumNone {
		return
	}
	if db.mutationsSinceCheck < db.profile.VacuumCheckEvery {
		return
	}
	db.mutationsSinceCheck = 0
	v, ok := db.data.(storage.Vacuumer)
	if !ok {
		return
	}
	if v.DeadRatio() < db.profile.VacuumThreshold {
		return
	}
	switch db.profile.Vacuum {
	case VacuumLazy:
		v.VacuumLazy()
		db.counters.vacuums.Add(1)
	case VacuumFull:
		v.VacuumFullRewrite()
		db.counters.vacuumFulls.Add(1)
	}
}

func hasString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
