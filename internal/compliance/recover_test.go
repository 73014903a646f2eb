package compliance

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/erasure"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/wal"
)

// recTestKey and recTestSubject name the deterministic mini-dataset the
// recovery tests use: key i belongs to subject i%5, so every subject
// owns several records and subjects spread across shards.
func recTestKey(i int) string     { return fmt.Sprintf("user%03d", i) }
func recTestSubject(i int) string { return fmt.Sprintf("subject-%d", i%5) }

func recTestRecord(i int) gdprbench.Record {
	return gdprbench.Record{
		Key:        recTestKey(i),
		Subject:    recTestSubject(i),
		Payload:    []byte(fmt.Sprintf("payload-%03d", i)),
		Purposes:   []string{"analytics"},
		TTL:        1 << 40,
		Processors: []string{"processor-a"},
	}
}

// stateDigest hashes the durable-comparable state of a deployment:
// every shard's live rows (sorted by key, so physical layout does not
// matter) plus the key->shard directory.
func stateDigest(t *testing.T, s *ShardedDB) string {
	t.Helper()
	h := sha256.New()
	for i := 0; i < s.NumShards(); i++ {
		type kv struct{ k, v []byte }
		var rows []kv
		s.Shard(i).data.SeqScan(func(k, v []byte) bool {
			rows = append(rows, kv{append([]byte(nil), k...), append([]byte(nil), v...)})
			return true
		})
		sort.Slice(rows, func(a, b int) bool { return bytes.Compare(rows[a].k, rows[b].k) < 0 })
		fmt.Fprintf(h, "shard %d (%d rows)\n", i, len(rows))
		for _, r := range rows {
			h.Write(r.k)
			h.Write([]byte{0})
			h.Write(r.v)
			h.Write([]byte{1})
		}
	}
	s.dirMu.RLock()
	dir := make([]string, 0, len(s.dir))
	for k, idx := range s.dir {
		dir = append(dir, fmt.Sprintf("%s=%d", k, idx))
	}
	s.dirMu.RUnlock()
	sort.Strings(dir)
	for _, d := range dir {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// matrixScript is the WCon-flavored deterministic op sequence the
// crash-point matrix sweeps: creates, data/meta updates, objections,
// consent revocations, deletes, an erasure batch and a full
// right-to-erasure, then fresh collections (for subjects that were
// never erased) after it. The returned index is the position of the
// EraseSubject op. batchedErase selects EraseBatch for the key-level
// deletions; the byte-granular torn-tail sweep passes false because a
// batch is durable per key, not per op, so its intermediate states are
// valid crash states that match no op boundary.
func matrixScript(s *ShardedDB, batchedErase bool) ([]func() error, int) {
	var ops []func() error
	for i := 0; i < 20; i++ {
		rec := recTestRecord(i)
		ops = append(ops, func() error { return s.Create(rec) })
	}
	for i := 0; i < 10; i++ {
		key, i := recTestKey(i), i
		ops = append(ops, func() error {
			return s.UpdateData(EntityController, PurposeService, key, []byte(fmt.Sprintf("updated-%03d", i)))
		})
	}
	ops = append(ops,
		func() error {
			return s.UpdateMeta(EntityController, PurposeService, recTestKey(3), "marketing", 1<<41)
		},
		func() error { return s.Object(recTestKey(4)) },
		func() error { return s.RevokeConsent(recTestKey(5), PurposeService, EntityController) },
		func() error { return s.DeleteData(EntityController, recTestKey(6)) },
	)
	if batchedErase {
		ops = append(ops, func() error {
			_, err := s.EraseBatch(EntityController, []string{recTestKey(7), recTestKey(8), recTestKey(6)})
			return err
		})
	} else {
		ops = append(ops,
			func() error { return s.DeleteData(EntityController, recTestKey(7)) },
			func() error { return s.DeleteData(EntityController, recTestKey(8)) },
		)
	}
	eraseAt := len(ops)
	ops = append(ops, func() error {
		_, err := s.EraseSubject(EntitySystem, recTestSubject(2))
		return err
	})
	for i := 20; i < 26; i++ {
		rec := recTestRecord(i)
		rec.Subject = fmt.Sprintf("late-subject-%d", i)
		ops = append(ops, func() error { return s.Create(rec) })
	}
	return ops, eraseAt
}

// TestCrashPointMatrix runs the script once against a checkpointing
// sharded deployment, capturing a digest and the durable segment images
// after every op, then recovers from each capture and asserts the
// rebuilt deployment is state-equal to the reference at that point —
// and that erased subjects stay erased.
func TestCrashPointMatrix(t *testing.T) {
	p := PBase()
	p.CheckpointEveryOps = 7 // several checkpoints + truncations inside the sweep
	runCrashPointMatrix(t, p)
}

// recoverCaptured recovers a crash capture through the entry point its
// backend requires: region-backed captures (the mmap backend) carry the
// per-shard byte regions alongside the segment images, everything else
// recovers from images alone.
func recoverCaptured(p Profile, images, regions [][]byte) (*ShardedDB, RecoveryStats, error) {
	if regions != nil {
		return RecoverShardedWithRegions(p, images, regions)
	}
	return RecoverSharded(p, images)
}

// runCrashPointMatrix is the matrix body, shared with the LSM- and
// mmap-backed variants in backend_test.go: the crash-consistency
// guarantee is a property of the WAL protocol, not of one storage
// engine.
func runCrashPointMatrix(t *testing.T, p Profile) {
	t.Helper()
	s, err := OpenShardedWorkers(p, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ops, eraseAt := matrixScript(s, true)
	type capture struct {
		digest  string
		images  [][]byte
		regions [][]byte
		erased  bool // subject-2 fully erased at this point
	}
	var caps []capture
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		// Images before regions — the capture order crash recovery
		// assumes (region state covers every imaged op).
		images := s.SegmentImages()
		caps = append(caps, capture{
			digest: stateDigest(t, s), images: images,
			regions: s.RegionSnapshots(), erased: i >= eraseAt,
		})
	}

	for i, c := range caps {
		r, st, err := recoverCaptured(s.Profile(), c.images, c.regions)
		if err != nil {
			t.Fatalf("recover at op %d: %v", i, err)
		}
		if got := stateDigest(t, r); got != c.digest {
			t.Fatalf("op %d: recovered digest %s != reference %s (stats %v)", i, got, c.digest, st)
		}
		if c.erased {
			recs, err := r.SubjectAccess(recTestSubject(2))
			if err != nil {
				t.Fatalf("op %d: subject access: %v", i, err)
			}
			if len(recs) != 0 {
				t.Fatalf("op %d: erased subject has %d readable records after recovery", i, len(recs))
			}
		}
	}

	// Spot-check that the final recovered deployment still serves reads:
	// present where live, gone where deleted.
	last := caps[len(caps)-1]
	r, _, err := recoverCaptured(s.Profile(), last.images, last.regions)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadData(EntityController, PurposeService, recTestKey(0)); err != nil {
		t.Fatalf("recovered read: %v", err)
	}
	if _, err := r.ReadData(EntityController, PurposeService, recTestKey(6)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted record resurrected: err=%v", err)
	}
}

// TestRecoveryPreservesPolicyDecisions requires decision equivalence
// across a crash for every profile: the recovered deployment must
// allow and deny exactly what the crashed one did, including withdrawn
// consents and objections (which only the per-unit-precise engines can
// deny — RBAC's role-level imprecision must survive recovery too, in
// both directions).
func TestRecoveryPreservesPolicyDecisions(t *testing.T) {
	type probe struct {
		entity  core.EntityID
		purpose core.Purpose
		key     string
	}
	for _, p := range Profiles() {
		t.Run(p.Name, func(t *testing.T) {
			// Checkpoint mid-stream so the snapshot path carries the
			// policy state: exactly (via PolicyLister) for Sieve and
			// MetaStore, re-derived for RBAC.
			p.CheckpointEveryOps = 5
			s, err := OpenSharded(p, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := s.Create(recTestRecord(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.UpdateMeta(EntityController, PurposeService, recTestKey(1), "marketing", 1<<41); err != nil {
				t.Fatal(err)
			}
			if err := s.Object(recTestKey(2)); err != nil {
				t.Fatal(err)
			}
			if err := s.RevokeConsent(recTestKey(3), PurposeSubjectAccess, EntitySubjectSvc); err != nil {
				t.Fatal(err)
			}
			// Force a snapshot on every shard so all of the above reaches
			// recovery through the checkpoint path (truncating the tail):
			// the snapshot, not replay, must carry the consented purpose,
			// the objection and the revocation.
			for i := 0; i < s.NumShards(); i++ {
				s.Shard(i).Checkpoint()
			}
			var probes []probe
			for i := 0; i < 8; i++ {
				probes = append(probes,
					probe{EntityController, PurposeService, recTestKey(i)},
					probe{EntityProcessor, PurposeProcessing, recTestKey(i)},
					probe{EntitySubjectSvc, PurposeSubjectAccess, recTestKey(i)},
					probe{EntityProcessor, PurposeService, recTestKey(i)}, // never granted
					// The UpdateMeta-consented purpose: granted on key 1
					// only, and only after collection — the checkpoint
					// snapshot is its sole carrier for engines that
					// cannot enumerate policies.
					probe{EntityController, core.Purpose("marketing"), recTestKey(i)},
				)
			}
			decide := func(d *ShardedDB) []bool {
				out := make([]bool, len(probes))
				for i, pr := range probes {
					_, err := d.ReadData(pr.entity, pr.purpose, pr.key)
					out[i] = err == nil
				}
				return out
			}
			before := decide(s)
			r, _, err := s.Recover()
			if err != nil {
				t.Fatal(err)
			}
			after := decide(r)
			for i := range probes {
				if before[i] != after[i] {
					t.Errorf("probe %+v: decision flipped across recovery (before=%v after=%v)",
						probes[i], before[i], after[i])
				}
			}
		})
	}
}

// TestCrashPointMatrixTornTail cuts a checkpoint-free single-shard
// deployment's image at every byte offset (sampled) — including mid-
// record, where the torn tail must be discarded — and asserts the
// recovered state equals the reference state at some op boundary, with
// all-or-nothing erasure.
func TestCrashPointMatrixTornTail(t *testing.T) {
	p := PBase() // checkpointing off: the log is append-only, so every
	// byte prefix of the final image is a reachable crash state.
	s, err := OpenShardedWorkers(p, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops, eraseAt := matrixScript(s, false)
	digests := map[string]bool{stateDigest(t, s): true}
	var marks []int
	for i, op := range ops {
		if err := op(); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		digests[stateDigest(t, s)] = true
		marks = append(marks, int(s.Shard(0).data.Log().SegmentSize()))
	}
	image := s.SegmentImages()[0]

	// subject-2's records among the pre-erase keys (user007 goes earlier,
	// via its own delete op).
	eraseKeys := []string{recTestKey(2), recTestKey(7), recTestKey(12), recTestKey(17)}
	for cut := 0; cut <= len(image); cut += 11 {
		img := wal.CrashPoint{Bytes: cut, FlipBit: -1}.Apply(image)
		r, _, err := RecoverSharded(s.Profile(), [][]byte{img})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Mid-erase cuts land between op boundaries; the intent redo
		// must snap the state back onto an op boundary, so every
		// recovered digest appears in the reference set.
		if got := stateDigest(t, r); !digests[got] {
			t.Fatalf("cut %d: recovered digest %s matches no reference op state", cut, got)
		}
		// All-or-nothing right to erasure: subject-2's records are
		// either all live or all gone, never a partial cascade.
		live := 0
		for _, k := range eraseKeys {
			if _, ok := r.ShardIndexOf(k); ok {
				live++
			}
		}
		if live != 0 && cut >= marks[eraseAt] {
			t.Fatalf("cut %d past the erase: %d subject-2 records resurrected", cut, live)
		}
		for _, k := range eraseKeys {
			if _, ok := r.ShardIndexOf(k); !ok {
				sh := r.Shard(0)
				if err := erasure.Verify(sh.data, sh.data.Log(), []byte(k)); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
			}
		}
	}

	// Bit flips in the tail must degrade to truncation, never damage
	// the recovered prefix.
	for flip := len(image) / 2; flip < len(image); flip += len(image) / 8 {
		img := wal.CrashPoint{Bytes: len(image), FlipBit: flip}.Apply(image)
		r, _, err := RecoverSharded(s.Profile(), [][]byte{img})
		if err != nil {
			t.Fatalf("flip %d: %v", flip, err)
		}
		if got := stateDigest(t, r); !digests[got] {
			t.Fatalf("flip %d: recovered digest matches no reference op state", flip)
		}
	}
}

// TestCrashDuringEraseNeverResurrects is the erasure-atomicity property
// test: while concurrent writers hammer other subjects, a subject is
// erased; for every crash point across the home shard's log, recovery
// must leave that subject either fully present (intent not yet durable)
// or fully erased (intent redone) — never partially resurrected — and
// erasure.Verify must pass for every erased record. Run with -race: the
// writers, the erasure and the image capture race by design.
func TestCrashDuringEraseNeverResurrects(t *testing.T) {
	runCrashDuringErase(t, PBase())
}

// runCrashDuringErase is the erase-atomicity body, shared with the
// LSM-backed variant in backend_test.go.
func runCrashDuringErase(t *testing.T, p Profile) {
	t.Helper()
	const subjects = 6
	s, err := OpenShardedWorkers(p, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	perSubject := make(map[string][]string)
	for i := 0; i < 30; i++ {
		rec := recTestRecord(i)
		rec.Subject = fmt.Sprintf("subject-%d", i%subjects)
		if err := s.Create(rec); err != nil {
			t.Fatal(err)
		}
		perSubject[rec.Subject] = append(perSubject[rec.Subject], rec.Key)
	}
	victim := "subject-1"
	home := SubjectShard(victim, s.NumShards())

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			subj := fmt.Sprintf("subject-%d", (w+2)%subjects) // never the victim
			for j := 0; j < 40; j++ {
				key := perSubject[subj][j%len(perSubject[subj])]
				_ = s.UpdateData(EntityController, PurposeService, key, []byte(fmt.Sprintf("w%d-%d", w, j)))
			}
		}()
	}
	if _, err := s.EraseSubject(EntitySystem, victim); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	images := s.SegmentImages()
	regions := s.RegionSnapshots() // after images: region state covers every imaged op
	homeImage := images[home]
	stride := len(homeImage)/64 + 1
	for cut := 0; cut <= len(homeImage); cut += stride {
		crashed := make([][]byte, len(images))
		copy(crashed, images)
		crashed[home] = wal.CrashPoint{Bytes: cut, FlipBit: -1}.Apply(homeImage)
		r, _, err := recoverCaptured(s.Profile(), crashed, regions)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		live := 0
		for _, k := range perSubject[victim] {
			if _, ok := r.ShardIndexOf(k); ok {
				live++
			}
		}
		// The durable erase intent is the commit point of the right to
		// erasure: once it survives the crash, recovery must finish the
		// cascade — zero live records, whatever the cut took out of the
		// delete tail. Before the intent, any create prefix is a
		// legitimate pre-erasure state.
		intentDurable := false
		wal.Recover(crashed[home], 0, func(rec wal.Record) bool {
			if rec.Type == wal.RecErase && string(rec.Key) == victim {
				intentDurable = true
				return false
			}
			return true
		})
		if intentDurable && live != 0 {
			t.Fatalf("cut %d: erase intent durable but %d/%d records of %s resurrected",
				cut, live, len(perSubject[victim]), victim)
		}
		if intentDurable {
			for _, k := range perSubject[victim] {
				sh := r.Shard(home)
				if err := erasure.Verify(sh.data, sh.data.Log(), []byte(k)); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
			}
			recs, err := r.SubjectAccess(victim)
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			if len(recs) != 0 {
				t.Fatalf("cut %d: erased subject readable after recovery", cut)
			}
		}
	}
}

// TestRecoverOneImage exercises a one-shard deployment's recovery,
// including vacuum records in the log and checkpoint-free recovery.
func TestRecoverOneImage(t *testing.T) {
	p := PBase()
	p.VacuumCheckEvery = 1
	p.VacuumThreshold = 0 // vacuum after every mutation: RecVacuum records land in the WAL
	db, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := db.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := db.UpdateData(EntityController, PurposeService, recTestKey(i), []byte("rewritten")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteData(EntityController, recTestKey(7)); err != nil {
		t.Fatal(err)
	}

	r, st, err := RecoverSharded(db.Profile(), db.SegmentImages())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 || st.RecordsReplayed == 0 || st.CheckpointRows != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if r.Len() != db.Len() {
		t.Fatalf("recovered %d records, want %d", r.Len(), db.Len())
	}
	got, err := r.ReadData(EntityController, PurposeService, recTestKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "rewritten" {
		t.Fatalf("recovered payload = %q", got)
	}
	if _, err := r.ReadData(EntityController, PurposeService, recTestKey(7)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted record after recovery: err=%v", err)
	}
}

// TestRecoverBlockDevProfile recovers a P_GBench deployment through
// ShardedDB.Recover, which carries the surviving block devices across:
// sector-stored payloads must stay readable, and fresh writes must not
// overwrite live sectors.
func TestRecoverBlockDevProfile(t *testing.T) {
	s, err := OpenSharded(PGBench(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	r, st, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < 10; i++ {
		got, err := r.ReadData(EntityController, PurposeService, recTestKey(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if want := fmt.Sprintf("payload-%03d", i); string(got) != want {
			t.Fatalf("payload %d = %q, want %q", i, got, want)
		}
	}
	// New collections land on fresh sectors, not on recovered ones.
	if err := r.Create(recTestRecord(50)); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.ReadData(EntityController, PurposeService, recTestKey(0)); string(got) != "payload-000" {
		t.Fatalf("new write clobbered a recovered sector: %q", got)
	}
	// The recovered deployment runs on a snapshot of the devices: the
	// crashed instance can keep writing without either side corrupting
	// the other's sectors.
	if err := s.Create(recTestRecord(60)); err != nil {
		t.Fatal(err)
	}
	if err := r.Create(recTestRecord(61)); err != nil {
		t.Fatal(err)
	}
	if got, err := r.ReadData(EntityController, PurposeService, recTestKey(61)); err != nil || string(got) != "payload-061" {
		t.Fatalf("cross-deployment sector corruption: %q, %v", got, err)
	}
	if got, err := s.ReadData(EntityController, PurposeService, recTestKey(60)); err != nil || string(got) != "payload-060" {
		t.Fatalf("receiver corrupted by recovered instance: %q, %v", got, err)
	}
}

// TestRecoverBlockDevCursorPastDeletedRows: the allocation cursor must
// clear every sector the WAL history ever referenced, including rows
// deleted before the crash — otherwise a post-recovery write would
// reuse an orphaned sector (and, with the devices snapshotted at
// different cursors, could collide with the crashed instance's next
// allocation).
func TestRecoverBlockDevCursorPastDeletedRows(t *testing.T) {
	s, err := OpenSharded(PGBench(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Delete the last-allocated rows so max-live-sector < cursor.
	for i := 3; i < 6; i++ {
		if err := s.DeleteData(EntityController, recTestKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	r, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Shard(0).nextSector, s.Shard(0).nextSector; got < want {
		t.Fatalf("recovered allocation cursor regressed: %d < %d", got, want)
	}
	// A fresh write must not clobber surviving payloads.
	if err := r.Create(recTestRecord(70)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := r.ReadData(EntityController, PurposeService, recTestKey(i))
		if err != nil || string(got) != fmt.Sprintf("payload-%03d", i) {
			t.Fatalf("sector reuse corrupted record %d: %q, %v", i, got, err)
		}
	}
}

// TestCheckpointerTriggersAndTruncates checks the periodic checkpointer
// wiring: ops-triggered checkpoints bound the log, and recovery from a
// checkpointed log replays only the tail.
func TestCheckpointerTriggersAndTruncates(t *testing.T) {
	p := PBase()
	p.CheckpointEveryOps = 10
	s, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 35; i++ {
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Counters().Checkpoints; c < 3 {
		t.Fatalf("Checkpoints = %d, want >= 3", c)
	}
	log := s.Shard(0).data.Log()
	if _, ok := log.LastCheckpoint(); !ok {
		t.Fatal("no durable checkpoint recorded")
	}
	if log.Len() >= 35 {
		t.Fatalf("log not truncated: %d records", log.Len())
	}
	r, st, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointRows == 0 {
		t.Fatalf("recovery ignored the checkpoint: %+v", st)
	}
	if st.RecordsReplayed >= 35 {
		t.Fatalf("checkpointed recovery replayed the whole history: %+v", st)
	}
	if r.Len() != 35 {
		t.Fatalf("recovered %d records", r.Len())
	}
	// Bytes trigger too.
	p2 := PBase()
	p2.CheckpointEveryBytes = 2048
	s2, err := OpenSharded(p2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s2.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c := s2.Counters().Checkpoints; c == 0 {
		t.Fatal("bytes-triggered checkpointer never fired")
	}
}

// TestRecoverTrackModelRebuildsMirror recovers a TrackModel deployment
// and audits it: the mirror must be structurally consistent (units,
// values, policies) even though the action history restarts.
func TestRecoverTrackModelRebuildsMirror(t *testing.T) {
	p := PBase()
	p.TrackModel = true
	db, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := db.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	r, _, err := RecoverSharded(db.Profile(), db.SegmentImages())
	if err != nil {
		t.Fatal(err)
	}
	model, _ := r.Shard(0).Model()
	if model == nil {
		t.Fatal("model mirror missing after recovery")
	}
	for i := 0; i < 6; i++ {
		u, ok := model.Lookup(core.UnitID(recTestKey(i)))
		if !ok {
			t.Fatalf("model unit %d missing", i)
		}
		subs := u.Subjects()
		if len(subs) != 1 || subs[0] != core.EntityID(recTestSubject(i)) {
			t.Fatalf("model unit %d subjects = %v", i, subs)
		}
	}
}

// frameBoundaries returns every byte offset of a segment image that
// ends exactly on a record frame — the durable states an append-only
// suffix passes through.
func frameBoundaries(image []byte) []int {
	var offs []int
	off := 0
	for off+4 <= len(image) {
		n := int(binary.BigEndian.Uint32(image[off : off+4]))
		if off+4+n > len(image) {
			break
		}
		off += 4 + n
		offs = append(offs, off)
	}
	return offs
}

// TestCheckpointerNeverSplitsErasure is the regression test for the
// checkpoint/erasure interaction: an aggressive periodic checkpointer
// must not fire between an erase intent and its deletes. If it did, the
// snapshot would capture a half-erased subject and truncation would
// drop the intent, so a crash at the next frame boundary (a real sync
// point) would partially resurrect the subject.
func TestCheckpointerNeverSplitsErasure(t *testing.T) {
	p := PBase()
	p.CheckpointEveryOps = 3
	s, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 13 victim records: with the 19-create preload this leaves the
	// final deletes misaligned with the checkpoint interval, so a
	// checkpoint that (wrongly) fired inside the delete loop would
	// survive as the head of the final image with deletes dangling
	// after it — exactly the partial-resurrection crash state.
	victim := "victim"
	var victimKeys []string
	for i := 0; i < 13; i++ {
		rec := recTestRecord(i)
		rec.Subject = victim
		if err := s.Create(rec); err != nil {
			t.Fatal(err)
		}
		victimKeys = append(victimKeys, rec.Key)
	}
	for i := 20; i < 26; i++ { // bystanders
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.EraseSubject(EntitySystem, victim); err != nil {
		t.Fatal(err)
	}

	image := s.SegmentImages()[0]
	for _, cut := range append([]int{0}, frameBoundaries(image)...) {
		img := wal.CrashPoint{Bytes: cut}.Apply(image)
		r, _, err := RecoverSharded(s.Profile(), [][]byte{img})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		live := 0
		for _, k := range victimKeys {
			if _, ok := r.ShardIndexOf(k); ok {
				live++
			}
		}
		if live != 0 && live != len(victimKeys) {
			t.Fatalf("cut %d: checkpoint split the erasure: %d/%d victim records live",
				cut, live, len(victimKeys))
		}
	}
}

// TestRecoverRejectsBlockDevWithoutDevices: rebuilding a block-device
// profile from images alone would leave every row's sector reference
// dangling in a fresh empty device; the image-only entry points must
// refuse rather than "succeed" into garbage.
func TestRecoverRejectsBlockDevWithoutDevices(t *testing.T) {
	s, err := OpenSharded(PGBench(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(recTestRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverSharded(PGBench(), s.SegmentImages()); err == nil {
		t.Fatal("RecoverSharded accepted a block-device profile without devices")
	}
	if _, _, err := RecoverSharded(PGBench(), s.SegmentImages()[:1]); err == nil {
		t.Fatal("RecoverSharded accepted one image of a block-device profile")
	}
	// The supported path still works.
	if _, _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMidCascadeFinishes: a strong delete with dependents logs a
// cascade intent before the first physical delete, so a crash between
// the parent's and a dependent's delete frames recovers to the finished
// cascade — a derived record in which the erased subject is
// identifiable can never outlive its parent's erasure.
func TestCrashMidCascadeFinishes(t *testing.T) {
	p := PBase()
	p.CascadeDependents = true
	s, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	recA := recTestRecord(0)
	if err := s.Create(recA); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(recTestRecord(1)); err != nil { // bystander
		t.Fatal(err)
	}
	concat := func(parents [][]byte) []byte { return bytes.Join(parents, nil) }
	if err := s.Derive(EntityController, PurposeService, "derived-B",
		[]string{recA.Key}, concat, true, "copy"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteData(EntityController, recA.Key); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ShardIndexOf("derived-B"); ok {
		t.Fatal("cascade did not delete the dependent in the live run")
	}

	image := s.SegmentImages()[0]
	for _, cut := range append([]int{0}, frameBoundaries(image)...) {
		img := wal.CrashPoint{Bytes: cut}.Apply(image)
		r, _, err := RecoverSharded(s.Profile(), [][]byte{img})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		_, aLive := r.ShardIndexOf(recA.Key)
		_, bLive := r.ShardIndexOf("derived-B")
		if !aLive && bLive {
			t.Fatalf("cut %d: parent erased but identifiable dependent survived recovery", cut)
		}
	}
}

// TestRecoverClockDoesNotRewind: recovery must restore the logical
// clock to at least its last durable note, so a policy window that had
// expired before the crash cannot reopen afterwards.
func TestRecoverClockDoesNotRewind(t *testing.T) {
	s, err := OpenSharded(PSYS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := recTestRecord(0)
	rec.TTL = 10
	if err := s.Create(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadData(EntityController, PurposeService, rec.Key); err != nil {
		t.Fatalf("fresh read: %v", err)
	}
	s.AdvanceClock(1000)
	if _, err := s.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
		t.Fatalf("expired read before crash: err=%v", err)
	}
	r, _, err := RecoverSharded(s.Profile(), s.SegmentImages())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
		t.Fatalf("recovery rewound the clock: expired consent window reopened (err=%v)", err)
	}
}

// TestRecoverTTLExtensionDoesNotReopenConsent: UpdateMeta moves the
// retention deadline but never extends the standard consent bundle, so
// recovery — including the checkpoint-snapshot fallback for engines
// that cannot enumerate policies (RBAC) — must rebuild the bundle from
// the collection-time TTL. Before BaseTTL was recorded, a crashed
// deployment whose consent window had expired came back allowing the
// reads it had been denying.
func TestRecoverTTLExtensionDoesNotReopenConsent(t *testing.T) {
	s, err := OpenSharded(PBase(), 1) // RBAC: no PolicyLister, fallback path
	if err != nil {
		t.Fatal(err)
	}
	rec := recTestRecord(0)
	rec.TTL = 10
	if err := s.Create(rec); err != nil {
		t.Fatal(err)
	}
	// Extend the retention TTL far past the consent window's end.
	if err := s.UpdateMeta(EntityController, PurposeService, rec.Key, "", 100000); err != nil {
		t.Fatal(err)
	}
	s.Shard(0).Checkpoint() // snapshot carries the extended TTL row
	s.AdvanceClock(1000)
	if _, err := s.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
		t.Fatalf("consent window should have expired before the crash: err=%v", err)
	}
	r, _, err := RecoverSharded(s.Profile(), s.SegmentImages())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrDenied) {
		t.Fatalf("TTL extension reopened the expired consent window across recovery: err=%v", err)
	}
}

// TestRecoverRequiresMaterializedKey: a freshly constructed profile has
// no at-rest key (the KMS issues one at open), so image-only recovery
// with it must refuse instead of rebuilding blobs it cannot decrypt.
func TestRecoverRequiresMaterializedKey(t *testing.T) {
	s, err := OpenSharded(PBase(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(recTestRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverSharded(PBase(), s.SegmentImages()); err == nil {
		t.Fatal("recovery accepted a profile without the deployment's payload key")
	}
	if len(s.Profile().PayloadKey) == 0 {
		t.Fatal("open did not materialize the payload key into the profile")
	}
}

// TestRecoveryStatsString keeps the human rendering stable enough for
// the bench output.
func TestRecoveryStatsString(t *testing.T) {
	s := RecoveryStats{Shards: 2, RecordsReplayed: 10}
	if s.String() == "" {
		t.Fatal("empty stats rendering")
	}
}

// TestDecodeCheckpointStateVersions pins the version check: the decoder
// accepts exactly the two payload versions encodeCheckpointState writes
// (row-bearing and region) and refuses every other tag.
func TestDecodeCheckpointStateVersions(t *testing.T) {
	payload := func(p Profile) []byte {
		db, err := OpenSharded(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Create(recTestRecord(0)); err != nil {
			t.Fatal(err)
		}
		sh := db.Shard(0)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return encodeCheckpointState(sh)
	}
	rows, region := payload(PBase()), payload(mmapTestProfile())
	retag := func(buf []byte, ver byte) []byte {
		out := append([]byte(nil), buf...)
		out[0] = ver
		return out
	}
	cases := []struct {
		name    string
		buf     []byte
		wantErr bool
		rows    int
	}{
		{"version 0", retag(rows, 0), true, 0},
		{"version 1", retag(rows, 1), true, 0},
		{"version 2 (rows)", rows, false, 1},
		{"version 3 (region)", region, false, 0},
		{"version 4", retag(region, 4), true, 0},
	}
	for _, c := range cases {
		cs, err := decodeCheckpointState(c.buf)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, want error %v", c.name, err, c.wantErr)
		}
		if err == nil && len(cs.rows) != c.rows {
			t.Errorf("%s: decoded %d rows, want %d", c.name, len(cs.rows), c.rows)
		}
	}
	if rows[0] != checkpointVersion || region[0] != checkpointVersionRegion {
		t.Fatalf("writers emit versions %d and %d, want %d and %d",
			rows[0], region[0], checkpointVersion, checkpointVersionRegion)
	}
}
