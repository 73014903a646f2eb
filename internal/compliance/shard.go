package compliance

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/fanout"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/wal"
)

// ErrExists is returned when a record key is already taken somewhere in
// a sharded deployment.
var ErrExists = errors.New("compliance: key already exists")

// SubjectShard returns the opening-time home shard of a data subject:
// an FNV-1a hash of the subject identifier modulo the shard count. The
// placement is the load-bearing invariant of the sharded engine — every
// record of a subject, and every cascade-relevant derived record (which
// by §3.1 carries the same subject), lives on one shard, so
// subject-scoped operations (subject access, portability, right to
// erasure, dependent cascades) touch exactly one lock. Elastic
// deployments refine this hash placement with an epoch-versioned
// directory (see directory.go); the invariant itself never changes.
func SubjectShard(subject string, shards int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(subject))
	return int(h.Sum32() % uint32(shards))
}

// ShardedDB is a subject-sharded deployment of a compliance profile: N
// independent DB shards, each with its own mutex, heap table, WAL
// segment, policy engine, audit logger, provenance graph and model
// mirror. Records are placed on the home shard of their data subject
// per the epoch-versioned directory (static hash placement at open;
// splits and merges patch it), a directory maps record keys to shards,
// and cross-shard operations — global audits, breach-aware audits,
// metadata scans, retention sweeps, batched erasures — fan out over a
// bounded worker pool and merge their results.
//
// Lock ordering: the directory lock is a leaf — it is only ever
// acquired while holding at most shard mutexes, never the reverse.
// Shards call back into the directory (onDelete, dirSnapshot) while
// holding their own mutex, and the routed facade operations revalidate
// the directory after acquiring their shard, both legal under that
// rule. Operations that lock several shards (cross-shard derivations,
// merges) take them in ascending index order.
//
// Routing protocol (elastic resharding): every routed operation
// resolves its shard under the directory lock, acquires that shard's
// mutex (shared for the read path), then revalidates the routing.
// A migration holds the source shard's mutex exclusively across the
// whole move — copy, commit, directory flip, source cleanup — so once
// an operation has validated its route under the shard lock, no flip
// can move its key or subject before the operation finishes; if the
// revalidation sees a changed route, the operation retries against the
// new home. In-flight requests therefore drain against the epoch they
// validated, and new requests route to the new epoch.
type ShardedDB struct {
	profile Profile
	workers int

	dirMu sync.RWMutex
	// shards is replaced wholesale (copy-on-grow) under dirMu when a
	// split publishes its destination; readers snapshot it via view.
	shards []*DB
	// dir maps record key -> shard index.
	dir map[string]uint32
	// subjects is the epoch-versioned subject placement; swapped
	// atomically under dirMu at a migration's directory flip.
	subjects *directory

	// dirMisses counts keyed operations the key directory answered
	// ErrNotFound before any shard was consulted; Counters folds it into
	// NotFound, so the deployment's tally is the one its clients observe.
	dirMisses atomic.Uint64

	// reshardMu serializes migrations: one split or merge at a time.
	reshardMu sync.Mutex
	// hooks are test-only migration cut points (reshard_test.go).
	hooks reshardHooks

	// barrierMu guards barrier.
	barrierMu sync.RWMutex
	// barrier, when set (SetReplicationBarrier), runs after a
	// compliance barrier record — a consent revocation or a subject
	// erasure — has committed on a shard, with that shard's lock
	// already released so replica pulls against it can drain.
	// Replication uses it to hold the caller until every live replica
	// acked the record's LSN or was fenced out.
	barrier func(shard int, lsn wal.LSN)
}

// shardTableName names shard i's data table (and WAL segment).
func shardTableName(p Profile, i int) string {
	return fmt.Sprintf("%s:data/shard-%02d", p.Name, i)
}

// OpenSharded builds a sharded deployment with the given shard count.
// The fan-out width for cross-shard operations defaults to the number
// of schedulable CPUs.
func OpenSharded(p Profile, shards int) (*ShardedDB, error) {
	return OpenShardedWorkers(p, shards, 0)
}

// OpenShardedWorkers is OpenSharded with an explicit fan-out width
// (workers <= 0 selects the default).
func OpenShardedWorkers(p Profile, shards, workers int) (*ShardedDB, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("compliance: shard count must be positive, got %d", shards)
	}
	// One at-rest key for the whole deployment, drawn here when the
	// profile did not bring one: every shard must seal with the same
	// KMS-held secret or recovery could not reopen their blobs.
	if err := materializePayloadKey(&p); err != nil {
		return nil, err
	}
	s := &ShardedDB{
		profile:  p,
		shards:   make([]*DB, shards),
		workers:  workers,
		dir:      make(map[string]uint32),
		subjects: newStaticDirectory(shards),
	}
	// One logical clock for the whole deployment: deadline invariants
	// (retention, breach notification) must advance with traffic on any
	// shard, or an idle shard would never see its deadlines pass.
	clock := &core.Clock{}
	for i := range s.shards {
		db, err := openNamed(p, shardTableName(p, i), clock)
		if err != nil {
			return nil, err
		}
		db.onDelete = s.forget
		db.dirSnapshot = s.dirBlob
		s.shards[i] = db
	}
	return s, nil
}

// Profile returns the profile the deployment was opened with.
func (s *ShardedDB) Profile() Profile { return s.profile }

// view snapshots the shard slice under the directory lock. The slice
// is replaced, never mutated in place, so holders may iterate it
// without further locking; a split published after the snapshot is
// simply not visited (its rows were on a snapshotted shard until the
// flip, and the flip holds the source exclusively).
func (s *ShardedDB) view() []*DB {
	s.dirMu.RLock()
	v := s.shards
	s.dirMu.RUnlock()
	return v
}

// NumShards returns the shard count.
func (s *ShardedDB) NumShards() int { return len(s.view()) }

// Shard exposes one shard (reports, tests).
func (s *ShardedDB) Shard(i int) *DB { return s.view()[i] }

// Epoch returns the directory epoch (0 until the first migration).
func (s *ShardedDB) Epoch() uint64 {
	s.dirMu.RLock()
	defer s.dirMu.RUnlock()
	return s.subjects.epoch
}

// ShardIndexOf returns the shard currently holding the key; ok is false
// when the key is unknown.
func (s *ShardedDB) ShardIndexOf(key string) (int, bool) {
	s.dirMu.RLock()
	idx, ok := s.dir[key]
	s.dirMu.RUnlock()
	return int(idx), ok
}

// SubjectHome returns the shard index the directory currently routes
// the subject to.
func (s *ShardedDB) SubjectHome(subject string) int {
	s.dirMu.RLock()
	defer s.dirMu.RUnlock()
	return int(s.subjects.route(subject))
}

// dirBlob encodes the directory in force; shards call it (via
// dirSnapshot, holding their own mutex) to embed the topology in their
// checkpoints. Shard-then-directory is the legal lock order.
func (s *ShardedDB) dirBlob() []byte {
	s.dirMu.RLock()
	defer s.dirMu.RUnlock()
	return encodeDirectory(s.subjects)
}

// reserve claims a key for a shard before the record is inserted, so
// two creates racing on the same key cannot land on different shards.
func (s *ShardedDB) reserve(key string, idx uint32) error {
	s.dirMu.Lock()
	defer s.dirMu.Unlock()
	if _, dup := s.dir[key]; dup {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	s.dir[key] = idx
	return nil
}

// forget drops a key from the directory (failed creates, deletions and
// cascades; shards invoke it through onDelete).
func (s *ShardedDB) forget(key string) {
	s.dirMu.Lock()
	delete(s.dir, key)
	s.dirMu.Unlock()
}

// withKey runs f against the shard holding key, with that shard's lock
// held (exclusive, or the profile's read-path mode) and the routing
// revalidated under it. A migration that moved the key between the
// route and the lock is detected by the revalidation and the operation
// retries against the new home; a key that vanished entirely returns
// ErrNotFound.
func (s *ShardedDB) withKey(key string, exclusive bool, f func(db *DB) error) error {
	for {
		s.dirMu.RLock()
		idx, ok := s.dir[key]
		var sh *DB
		if ok {
			sh = s.shards[idx]
		}
		s.dirMu.RUnlock()
		if !ok {
			s.dirMisses.Add(1)
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		}
		var unlock func()
		if exclusive {
			sh.mu.Lock()
			unlock = sh.mu.Unlock
		} else {
			unlock = sh.rlock()
		}
		s.dirMu.RLock()
		idx2, ok2 := s.dir[key]
		valid := ok2 && s.shards[idx2] == sh
		s.dirMu.RUnlock()
		if valid {
			err := f(sh)
			unlock()
			return err
		}
		unlock()
		if !ok2 {
			s.dirMisses.Add(1)
			return fmt.Errorf("%w: %s", ErrNotFound, key)
		}
	}
}

// withSubject is withKey for subject-routed operations (subject access,
// erasure, breach pseudo-units): it validates the directory's subject
// placement instead of a key entry.
func (s *ShardedDB) withSubject(name string, exclusive bool, f func(db *DB) error) error {
	for {
		s.dirMu.RLock()
		sh := s.shards[s.subjects.route(name)]
		s.dirMu.RUnlock()
		var unlock func()
		if exclusive {
			sh.mu.Lock()
			unlock = sh.mu.Unlock
		} else {
			unlock = sh.rlock()
		}
		s.dirMu.RLock()
		valid := s.shards[s.subjects.route(name)] == sh
		s.dirMu.RUnlock()
		if valid {
			err := f(sh)
			unlock()
			return err
		}
		unlock()
	}
}

// Create collects a new record on the home shard of its subject. The
// shard lock is taken before the key is reserved and the routing is
// revalidated under it, so a split flipping the subject between the
// route and the insert cannot strand the record on the old shard.
func (s *ShardedDB) Create(rec gdprbench.Record) error {
	for {
		s.dirMu.RLock()
		sh := s.shards[s.subjects.route(rec.Subject)]
		s.dirMu.RUnlock()
		sh.mu.Lock()
		s.dirMu.RLock()
		idx := s.subjects.route(rec.Subject)
		valid := s.shards[idx] == sh
		s.dirMu.RUnlock()
		if !valid {
			sh.mu.Unlock()
			continue
		}
		if err := s.reserve(rec.Key, idx); err != nil {
			sh.mu.Unlock()
			return err
		}
		err := sh.createLocked(rec)
		if err != nil {
			s.forget(rec.Key)
		}
		sh.mu.Unlock()
		return err
	}
}

// CreateBatch collects many records in one pass: the records are
// binned by their subjects' home shards and each bin is admitted under
// a single acquisition of its shard's lock (DB.createBatchLocked — one
// clock tick, one policy adjudication per distinct TTL, one engine-lock
// acquisition and one WAL group submission per bin). Records whose
// route a concurrent migration moved between binning and the shard lock
// retry against their new home, exactly like Create.
//
// Each bin is all-or-nothing, but bins commit independently: on a
// duplicate key (or any shard-level failure) the records already
// admitted on other shards remain — they are valid records — and the
// call returns how many were created alongside the error. A batch is
// one commit unit per shard: it occupies its shard's lock from first
// reservation to WAL durability, so a RevokeConsent or EraseSubject on
// that shard lands entirely before or entirely after it, never inside.
func (s *ShardedDB) CreateBatch(recs []gdprbench.Record) (int, error) {
	created := 0
	pending := recs
	for len(pending) > 0 {
		s.dirMu.RLock()
		bins := make(map[*DB][]gdprbench.Record)
		indexes := make(map[*DB]uint32)
		for _, rec := range pending {
			idx := s.subjects.route(rec.Subject)
			sh := s.shards[idx]
			bins[sh] = append(bins[sh], rec)
			indexes[sh] = idx
		}
		s.dirMu.RUnlock()
		var retry []gdprbench.Record
		for sh, bin := range bins {
			sh.mu.Lock()
			// Revalidate every record's route under the shard lock; a
			// migration may have moved some subjects (or split this
			// shard), so moved records go back for re-binning.
			s.dirMu.RLock()
			idx := indexes[sh]
			valid := make([]gdprbench.Record, 0, len(bin))
			var moved []gdprbench.Record
			for _, rec := range bin {
				i := s.subjects.route(rec.Subject)
				if int(i) < len(s.shards) && s.shards[i] == sh {
					idx = i
					valid = append(valid, rec)
				} else {
					moved = append(moved, rec)
				}
			}
			s.dirMu.RUnlock()
			reserved := make([]string, 0, len(valid))
			var err error
			for _, rec := range valid {
				if rerr := s.reserve(rec.Key, idx); rerr != nil {
					err = rerr
					break
				}
				reserved = append(reserved, rec.Key)
			}
			if err == nil && len(valid) > 0 {
				err = sh.createBatchLocked(valid)
			}
			if err != nil {
				for _, k := range reserved {
					s.forget(k)
				}
				sh.mu.Unlock()
				return created, err
			}
			created += len(valid)
			sh.mu.Unlock()
			retry = append(retry, moved...)
		}
		pending = retry
	}
	return created, nil
}

// IngestBatch is CreateBatch under its ingestion-pipeline name.
func (s *ShardedDB) IngestBatch(recs []gdprbench.Record) (int, error) {
	return s.CreateBatch(recs)
}

// ReadData reads a record's personal data by key.
func (s *ShardedDB) ReadData(entity core.EntityID, purpose core.Purpose, key string) ([]byte, error) {
	var out []byte
	err := s.withKey(key, false, func(db *DB) error {
		var err error
		out, err = db.readDataLocked(entity, purpose, key)
		return err
	})
	return out, err
}

// UpdateData overwrites a record's personal data.
func (s *ShardedDB) UpdateData(entity core.EntityID, purpose core.Purpose, key string, payload []byte) error {
	return s.withKey(key, true, func(db *DB) error {
		return db.updateDataLocked(entity, purpose, key, payload)
	})
}

// DeleteData erases a record per the profile's erasure grounding.
func (s *ShardedDB) DeleteData(entity core.EntityID, key string) error {
	return s.withKey(key, true, func(db *DB) error {
		return db.deleteDataLocked(entity, key)
	})
}

// ReadMeta answers a keyed metadata query.
func (s *ShardedDB) ReadMeta(entity core.EntityID, purpose core.Purpose, key string) (Metadata, error) {
	var out Metadata
	err := s.withKey(key, false, func(db *DB) error {
		var err error
		out, err = db.readMetaLocked(entity, purpose, key)
		return err
	})
	return out, err
}

// UpdateMeta changes a record's metadata.
func (s *ShardedDB) UpdateMeta(entity core.EntityID, purpose core.Purpose, key, newPurpose string, newTTL int64) error {
	return s.withKey(key, true, func(db *DB) error {
		return db.updateMetaLocked(entity, purpose, key, newPurpose, newTTL)
	})
}

// RevokeConsent withdraws consent for one (purpose, entity) pair. The
// route is validated under the shard's exclusive lock, so a revocation
// racing a split either lands before the subject's state is copied
// (and migrates with it) or retries against the destination — never
// against a stale copy the flip abandoned.
func (s *ShardedDB) RevokeConsent(key string, purpose core.Purpose, entity core.EntityID) error {
	var bsh *DB
	var blsn wal.LSN
	err := s.withKey(key, true, func(db *DB) error {
		err := db.revokeConsentLocked(key, purpose, entity)
		if err == nil {
			bsh, blsn = db, db.data.Log().Durable()
		}
		return err
	})
	if err == nil {
		s.barrierWait(bsh, blsn)
	}
	return err
}

// SetReplicationBarrier installs (or, with nil, removes) the hook a
// replication primary uses to make revocations and erasures
// synchronous across replicas: after one commits on a shard, the
// caller does not get its acknowledgement back until the hook returns.
func (s *ShardedDB) SetReplicationBarrier(fn func(shard int, lsn wal.LSN)) {
	s.barrierMu.Lock()
	s.barrier = fn
	s.barrierMu.Unlock()
}

// barrierWait runs the replication barrier, if any, for a barrier
// record committed on shard db at or before lsn. It runs outside the
// shard's lock — a barrier that blocked the shard would deadlock
// against the very replica pulls it is waiting on.
func (s *ShardedDB) barrierWait(db *DB, lsn wal.LSN) {
	s.barrierMu.RLock()
	fn := s.barrier
	s.barrierMu.RUnlock()
	if fn == nil || db == nil {
		return
	}
	for i, sh := range s.view() {
		if sh == db {
			fn(i, lsn)
			return
		}
	}
}

// Object records the subject's objection to processing.
func (s *ShardedDB) Object(key string) error {
	return s.withKey(key, true, func(db *DB) error {
		return db.objectLocked(key)
	})
}

// SubjectAccess answers a subject-access request. The subject's records
// all live on one shard, so the request takes exactly one lock.
func (s *ShardedDB) SubjectAccess(subject string) ([]SubjectRecord, error) {
	var out []SubjectRecord
	err := s.withSubject(subject, false, func(db *DB) error {
		var err error
		out, err = db.subjectAccessLocked(subject)
		return err
	})
	return out, err
}

// ExportPortable implements data portability for one subject.
func (s *ShardedDB) ExportPortable(subject string) ([]byte, error) {
	var out []byte
	err := s.withSubject(subject, false, func(db *DB) error {
		var err error
		out, err = db.exportPortableLocked(subject)
		return err
	})
	return out, err
}

// EraseSubject erases every record of the subject (right to erasure at
// account granularity) on the subject's home shard. Racing a split of
// that subject, the erase either runs first (and the migration copies
// the post-erase state) or revalidates onto the destination after the
// flip — on neither side can an erased record stay readable.
func (s *ShardedDB) EraseSubject(entity core.EntityID, subject string) (int, error) {
	n := 0
	var bsh *DB
	var blsn wal.LSN
	err := s.withSubject(subject, true, func(db *DB) error {
		var err error
		n, err = db.eraseSubjectLocked(entity, subject)
		if err == nil {
			bsh, blsn = db, db.data.Log().Durable()
		}
		return err
	})
	if err == nil {
		s.barrierWait(bsh, blsn)
	}
	return n, err
}

// EraseBatch erases many records at once: the keys are binned by shard
// and the bins execute in parallel over the worker pool, so
// right-to-be-forgotten throughput scales with cores. The bins are a
// scheduling hint only — each delete revalidates its own routing — so
// keys moved by a concurrent migration are still erased, on whichever
// shard they ended up. Keys that are already gone are tolerated; the
// count of records actually erased is returned alongside the first
// hard error.
func (s *ShardedDB) EraseBatch(entity core.EntityID, keys []string) (int, error) {
	bins := len(s.view())
	batches := make([][]string, bins)
	s.dirMu.RLock()
	for _, k := range keys {
		if idx, ok := s.dir[k]; ok {
			b := int(idx) % bins
			batches[b] = append(batches[b], k)
		}
	}
	s.dirMu.RUnlock()
	erased := make([]int, bins)
	err := fanout.Run(s.workers, bins, func(i int) error {
		for _, k := range batches[i] {
			if err := s.DeleteData(entity, k); err != nil {
				if errors.Is(err, ErrNotFound) {
					continue // erased concurrently (cascade, sweep, racer)
				}
				return err
			}
			erased[i]++
		}
		return nil
	})
	total := 0
	for _, n := range erased {
		total += n
	}
	return total, err
}

// ReadByMeta scans for records collected for the purpose and reads up
// to limit of them in total: the shards scan in parallel over the pool
// and draw match slots from one shared budget, so the merged count
// never exceeds the caller's limit (which shard's matches win under
// contention is scheduling-dependent, as with any partitioned scan).
func (s *ShardedDB) ReadByMeta(entity core.EntityID, purpose core.Purpose, metaPurpose string, limit int) (int, error) {
	shards := s.view()
	var budget atomic.Int64
	budget.Store(int64(limit))
	counts := make([]int, len(shards))
	errs := make([]error, len(shards))
	_ = fanout.Run(s.workers, len(shards), func(i int) error {
		counts[i], errs[i] = shards[i].readByMetaBudget(entity, purpose, metaPurpose, &budget)
		return errs[i]
	})
	total := 0
	for i := range counts {
		if errs[i] != nil {
			return total, errs[i]
		}
		total += counts[i]
	}
	return total, nil
}

// Derive creates a derived record from parent records, which may live
// on different shards. Parents sharing a shard and a subject are
// derived under that shard's single lock (DB.deriveLocked), and the
// derived record stays on that subject's
// home shard. Cross-subject derivations carry the subject "aggregate"
// (no single person is identifiable) and are placed by record key;
// the §3.1 cascade — which only follows same-subject dependents —
// never needs to cross a shard boundary either way. Both paths
// revalidate every parent's routing (and the target placement) after
// taking their locks and retry if a migration moved any of them.
func (s *ShardedDB) Derive(entity core.EntityID, purpose core.Purpose, newKey string,
	parentKeys []string, f Transform, invertible bool, description string) error {
	if len(parentKeys) == 0 {
		return fmt.Errorf("compliance: derivation needs at least one parent")
	}
	for {
		s.dirMu.RLock()
		shards := s.shards
		idxs := make([]uint32, len(parentKeys))
		colocated := true
		for i, pk := range parentKeys {
			idx, ok := s.dir[pk]
			if !ok {
				s.dirMu.RUnlock()
				return fmt.Errorf("%w: parent %s", ErrNotFound, pk)
			}
			idxs[i] = idx
			if idx != idxs[0] {
				colocated = false
			}
		}
		target := s.subjects.route(newKey)
		s.dirMu.RUnlock()

		// Colocated parents with distinct subjects (a hash collision)
		// still produce an "aggregate" record, which is placed by key like
		// every other aggregate — peek the subjects and fall through to
		// the cross-shard path when they differ. The peek holds the
		// shard's lock: Get returns slices aliasing page memory that a
		// concurrent lazy vacuum (always run under the shard lock)
		// compacts in place. A delete or migration racing the later
		// delegate surfaces there as ErrNotFound or a revalidation retry.
		if colocated && len(parentKeys) > 1 {
			first := shards[idxs[0]]
			first.mu.Lock()
			var firstSubject []byte
			for i, pk := range parentKeys {
				row, ok := first.data.Get([]byte(pk))
				if !ok {
					break // let the delegate report the missing parent
				}
				if i == 0 {
					firstSubject = append([]byte(nil), metaSubject(row)...)
				} else if !bytes.Equal(metaSubject(row), firstSubject) {
					colocated = false
					break
				}
			}
			first.mu.Unlock()
		}

		if colocated {
			sh := shards[idxs[0]]
			sh.mu.Lock()
			if !s.parentsStillOn(parentKeys, sh) {
				sh.mu.Unlock()
				continue
			}
			// The parents' rows are pinned on sh for as long as we hold
			// its lock, and a same-subject derived record routes with
			// them, so the parents' validated index is the reservation.
			idx := idxs[0]
			if err := s.reserve(newKey, idx); err != nil {
				sh.mu.Unlock()
				return err
			}
			err := sh.deriveLocked(entity, purpose, newKey, parentKeys, f, invertible, description)
			sh.mu.Unlock()
			if err != nil {
				s.forget(newKey)
			}
			return err
		}

		// Cross-shard: parents on different shards necessarily carry
		// different subjects (same-subject records are always co-located),
		// so the derived subject is "aggregate". Aggregates are not a real
		// data subject — no subject-scoped right legitimately targets
		// them — so they are placed by record key instead of subject,
		// spreading derivation-heavy workloads over all shards rather than
		// funneling every aggregate onto one. Lock every involved shard in
		// index order — parents' plus the target — for the whole
		// fetch/combine/insert, so the derivation is atomic against
		// concurrent erasure of a parent, as in the single-lock engine.
		// The parents' model units stay owned by their shards, so the
		// derived model unit is built standalone (model == nil).
		if err := s.reserve(newKey, target); err != nil {
			return err
		}
		lockSet := map[uint32]bool{target: true}
		for _, idx := range idxs {
			lockSet[idx] = true
		}
		locked := make([]uint32, 0, len(lockSet))
		for idx := range lockSet {
			locked = append(locked, idx)
		}
		sort.Slice(locked, func(i, j int) bool { return locked[i] < locked[j] })
		for _, idx := range locked {
			shards[idx].mu.Lock()
		}
		unlock := func() {
			for _, idx := range locked {
				shards[idx].mu.Unlock()
			}
		}

		// Revalidate the whole plan under the locks: every parent still
		// on the shard we locked for it, and the aggregate target
		// unmoved. A migration that slipped in between re-routes us.
		s.dirMu.RLock()
		valid := len(s.shards) >= len(shards) && s.subjects.route(newKey) == target
		for i, pk := range parentKeys {
			idx, ok := s.dir[pk]
			if !ok || idx != idxs[i] {
				valid = false
				break
			}
		}
		s.dirMu.RUnlock()
		if !valid {
			unlock()
			s.forget(newKey)
			continue
		}

		parents := make([]derivedParent, 0, len(parentKeys))
		payloads := make([][]byte, 0, len(parentKeys))
		abort := func(err error) error {
			unlock()
			s.forget(newKey)
			return err
		}
		for i, pk := range parentKeys {
			sh := shards[idxs[i]]
			p, err := sh.fetchParentLocked(entity, purpose, pk, sh.clock.Tick())
			if err != nil {
				return abort(err)
			}
			p.model = nil
			parents = append(parents, p)
			payloads = append(payloads, p.payload)
		}
		subject, purposes, minTTL := combineParents(parents)
		derived := f(payloads)
		sh := shards[target]
		err := sh.insertDerivedLocked(entity, purpose, newKey, parents,
			subject, purposes, minTTL, derived, invertible, description, sh.clock.Tick())
		unlock()
		if err != nil {
			s.forget(newKey)
		}
		return err
	}
}

// parentsStillOn reports whether every parent key still routes to sh
// (caller holds sh's mutex, pinning the answer until release).
func (s *ShardedDB) parentsStillOn(parentKeys []string, sh *DB) bool {
	s.dirMu.RLock()
	defer s.dirMu.RUnlock()
	for _, pk := range parentKeys {
		idx, ok := s.dir[pk]
		if !ok || s.shards[idx] != sh {
			return false
		}
	}
	return true
}

// SweepExpired runs the retention sweeper on every shard in parallel —
// each shard drains its own retention queue — and merges the reports.
func (s *ShardedDB) SweepExpired() (SweepReport, error) {
	shards := s.view()
	reps := make([]SweepReport, len(shards))
	errs := make([]error, len(shards))
	_ = fanout.Run(s.workers, len(shards), func(i int) error {
		reps[i], errs[i] = shards[i].SweepExpired()
		return errs[i]
	})
	var merged SweepReport
	for i := range reps {
		if errs[i] != nil {
			return merged, errs[i]
		}
		merged.Scanned += reps[i].Scanned
		merged.Erased += reps[i].Erased
		merged.Cascaded += reps[i].Cascaded
	}
	return merged, nil
}

// RecordBreach records a breach detection. Breach pseudo-units are
// placed like subjects, keyed by breach id, so the detection and its
// notification land on the same shard and the notification-deadline
// invariant sees both tuples in one history. (A merge redirects the
// id's slot with everything else in it; the detection's history stays
// on the retired shard, a documented limitation of shard-local
// histories — see ARCHITECTURE.md §7.)
func (s *ShardedDB) RecordBreach(id string, affectedKeys []string) error {
	return s.withSubject(id, true, func(db *DB) error {
		return db.recordBreachLocked(id, affectedKeys)
	})
}

// NotifyBreach records that authority and subjects were notified.
func (s *ShardedDB) NotifyBreach(id string) error {
	return s.withSubject(id, true, func(db *DB) error {
		return db.notifyBreachLocked(id)
	})
}

// Audit evaluates the invariant set against every shard's model mirror
// in parallel and merges the violations (the global audit of the
// deployment). Each shard is checked under its own lock, so the merged
// report is a union of per-shard consistent snapshots.
func (s *ShardedDB) Audit(invs *core.InvariantSet) (Report, error) {
	shards := s.view()
	reps := make([]Report, len(shards))
	errs := make([]error, len(shards))
	_ = fanout.Run(s.workers, len(shards), func(i int) error {
		reps[i], errs[i] = shards[i].Audit(invs)
		return errs[i]
	})
	merged := Report{
		Profile:    s.profile.Name,
		Checked:    invs.IDs(),
		Groundings: s.profile.Groundings(),
	}
	for i := range reps {
		if errs[i] != nil {
			return merged, errs[i]
		}
		if reps[i].Now > merged.Now {
			merged.Now = reps[i].Now
		}
		merged.Violations = append(merged.Violations, reps[i].Violations...)
	}
	return merged, nil
}

// AuditWithBreaches is Audit plus the breach notification invariant
// (the global breach scan).
func (s *ShardedDB) AuditWithBreaches(invs *core.InvariantSet) (Report, error) {
	full, err := withBreachInvariant(invs)
	if err != nil {
		return Report{}, err
	}
	return s.Audit(full)
}

// Counters merges the op counters of every shard, plus the not-founds
// the key directory answered on their behalf.
func (s *ShardedDB) Counters() Counters {
	out := Counters{NotFound: s.dirMisses.Load()}
	for _, db := range s.view() {
		c := db.Counters()
		out.Creates += c.Creates
		out.DataReads += c.DataReads
		out.DataUpdates += c.DataUpdates
		out.Deletes += c.Deletes
		out.MetaReads += c.MetaReads
		out.MetaUpdates += c.MetaUpdates
		out.MetaScans += c.MetaScans
		out.Denials += c.Denials
		out.NotFound += c.NotFound
		out.Vacuums += c.Vacuums
		out.VacuumFulls += c.VacuumFulls
		out.CascadeDeletes += c.CascadeDeletes
		out.Checkpoints += c.Checkpoints
		out.DeltaCheckpoints += c.DeltaCheckpoints
		out.FullCheckpointBytes += c.FullCheckpointBytes
		out.DeltaCheckpointBytes += c.DeltaCheckpointBytes
	}
	return out
}

// Space merges the Table-2 space report across shards.
func (s *ShardedDB) Space() SpaceReport {
	merged := SpaceReport{Profile: s.profile.Name}
	for _, db := range s.view() {
		r := db.Space()
		merged.PersonalBytes += r.PersonalBytes
		merged.MetadataBytes += r.MetadataBytes
		merged.IndexBytes += r.IndexBytes
		merged.LogBytes += r.LogBytes
		merged.TotalBytes += r.TotalBytes
	}
	if merged.PersonalBytes > 0 {
		merged.Factor = float64(merged.TotalBytes) / float64(merged.PersonalBytes)
	}
	return merged
}

// WALStats merges the commit-work counters of every shard's WAL
// segment: appends and syncs sum, MaxBatch is the largest batch any
// segment committed, and GroupCommit reflects the shared protocol.
func (s *ShardedDB) WALStats() wal.Stats {
	var out wal.Stats
	for i, db := range s.view() {
		st := db.WALStats()
		out.Appends += st.Appends
		out.Syncs += st.Syncs
		if st.MaxBatch > out.MaxBatch {
			out.MaxBatch = st.MaxBatch
		}
		if i == 0 {
			out.GroupCommit = st.GroupCommit
		}
	}
	return out
}

// Len returns the number of live records across all shards.
func (s *ShardedDB) Len() int {
	n := 0
	for _, db := range s.view() {
		n += db.Len()
	}
	return n
}

// AdvanceClock moves the deployment's shared logical clock forward.
func (s *ShardedDB) AdvanceClock(d int64) core.Time {
	return s.view()[0].AdvanceClock(d)
}

// Close flushes every shard's async audit sink and stops its drainer
// (goroutine hygiene; the deployment stays usable, with hot-path audit
// records degrading to synchronous logging). The first error wins.
func (s *ShardedDB) Close() error {
	var first error
	for _, db := range s.view() {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
