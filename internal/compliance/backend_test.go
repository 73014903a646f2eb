package compliance

import (
	"fmt"
	"strings"
	"testing"

	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/erasure"
	"github.com/datacase/datacase/internal/storage"
)

// lsmTestProfile grounds P_Base on the LSM backend with a memtable
// small enough that the test datasets actually reach sstable runs (the
// tombstone retention hazard needs flushed data to exist) and a tight
// purge window so the erase-aware compaction runs inside the tests.
func lsmTestProfile() Profile {
	p := PBase()
	p.Backend = BackendLSM
	p.LSMFlushEntries = 8
	p.PurgeWithinOps = 32
	return p
}

// mmapTestProfile grounds P_Base on the mmap durable-heap backend: the
// byte region is the row store, checkpoints snapshot the page table
// instead of encoding rows, and recovery attaches the region rather
// than replaying row images.
func mmapTestProfile() Profile {
	p := PBase()
	p.Backend = BackendMmap
	return p
}

// TestOpenRejectsUnknownBackend pins the Profile.Backend validation:
// a typo'd backend must fail Open with a descriptive error naming the
// supported set, never fall back silently to the default engine.
func TestOpenRejectsUnknownBackend(t *testing.T) {
	p := PBase()
	p.Backend = "rocksdb"
	_, err := OpenSharded(p, 1)
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	for _, want := range []string{"rocksdb", BackendHeap, BackendLSM, BackendMmap} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	if _, err := OpenSharded(p, 2); err == nil {
		t.Fatal("unknown backend accepted by OpenSharded")
	}
	// The mmap region is itself the durable byte store; pairing it with
	// a block device has no meaning and must be refused up front.
	p = mmapTestProfile()
	p.UseBlockDev = true
	if _, err := OpenSharded(p, 1); err == nil {
		t.Fatal("mmap+blockdev accepted")
	}
}

// TestLSMBackendServesWorkload: basic CRUD plus subject rights on an
// LSM-backed sharded deployment.
func TestLSMBackendServesWorkload(t *testing.T) {
	s, err := OpenSharded(lsmTestProfile(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadData(EntityController, PurposeService, recTestKey(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateData(EntityController, PurposeService, recTestKey(3), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteData(EntityController, recTestKey(4)); err != nil {
		t.Fatal(err)
	}
	recs, err := s.SubjectAccess(recTestSubject(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("subject access returned nothing")
	}
	if got := s.Len(); got != 29 {
		t.Fatalf("Len = %d, want 29", got)
	}
	// The LSM shards run the LSM engine, and deletes registered purge
	// obligations.
	var registered uint64
	for i := 0; i < s.NumShards(); i++ {
		if _, ok := s.Shard(i).Engine().(*storage.LSM); !ok {
			t.Fatalf("shard %d engine is %T", i, s.Shard(i).Engine())
		}
		registered += s.Shard(i).Engine().Stats().PurgesRegistered
	}
	if registered == 0 {
		t.Fatal("no purge obligation registered for the delete")
	}
}

// TestCrashPointMatrixLSM: an LSM-backed ShardedDB passes the existing
// crash-point matrix unchanged — op-boundary digest equality, erased
// subjects staying erased, reads after recovery.
func TestCrashPointMatrixLSM(t *testing.T) {
	p := lsmTestProfile()
	p.CheckpointEveryOps = 7
	runCrashPointMatrix(t, p)
}

// TestCrashDuringEraseNeverResurrectsLSM: the erase-atomicity property
// holds on the LSM backend too. Run with -race: writers, erasure and
// image capture race by design.
func TestCrashDuringEraseNeverResurrectsLSM(t *testing.T) {
	runCrashDuringErase(t, lsmTestProfile())
}

// TestMmapBackendServesWorkload: basic CRUD plus subject rights on an
// mmap-backed sharded deployment, with the shards actually running the
// region engine.
func TestMmapBackendServesWorkload(t *testing.T) {
	s, err := OpenSharded(mmapTestProfile(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ReadData(EntityController, PurposeService, recTestKey(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateData(EntityController, PurposeService, recTestKey(3), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteData(EntityController, recTestKey(4)); err != nil {
		t.Fatal(err)
	}
	recs, err := s.SubjectAccess(recTestSubject(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("subject access returned nothing")
	}
	if got := s.Len(); got != 29 {
		t.Fatalf("Len = %d, want 29", got)
	}
	for i := 0; i < s.NumShards(); i++ {
		if _, ok := s.Shard(i).Engine().(*storage.Mmap); !ok {
			t.Fatalf("shard %d engine is %T", i, s.Shard(i).Engine())
		}
	}
	if s.RegionSnapshots() == nil {
		t.Fatal("mmap deployment reports no durable regions")
	}
}

// TestCrashPointMatrixMmap: an mmap-backed ShardedDB passes the crash-
// point matrix unchanged — its captures carry the byte regions, and
// recovery combines region attach with WAL-tail replay.
func TestCrashPointMatrixMmap(t *testing.T) {
	p := mmapTestProfile()
	p.CheckpointEveryOps = 7
	runCrashPointMatrix(t, p)
}

// TestCrashDuringEraseNeverResurrectsMmap: erase atomicity on the mmap
// backend. Run with -race: writers, erasure and capture race by design.
func TestCrashDuringEraseNeverResurrectsMmap(t *testing.T) {
	runCrashDuringErase(t, mmapTestProfile())
}

// TestRecoverRejectsMmapWithoutRegions: the segment images of an mmap
// deployment carry the logical tail, not the rows — rebuilding from
// images alone would silently come up near-empty. The image-only entry
// points must refuse; the region-carrying ones must work.
func TestRecoverRejectsMmapWithoutRegions(t *testing.T) {
	p := mmapTestProfile()
	s, err := OpenSharded(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Create(recTestRecord(0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverSharded(s.Profile(), s.SegmentImages()); err == nil {
		t.Fatal("RecoverSharded accepted an mmap profile without regions")
	}
	if _, _, err := RecoverSharded(s.Profile(), s.SegmentImages()[:1]); err == nil {
		t.Fatal("RecoverSharded accepted one image of an mmap profile")
	}
	heap, err := OpenSharded(PBase(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverShardedWithRegions(heap.Profile(), heap.SegmentImages(), [][]byte{{1}}); err == nil {
		t.Fatal("RecoverShardedWithRegions accepted a non-region backend")
	}
	if _, _, err := RecoverShardedWithRegions(s.Profile(), s.SegmentImages(), make([][]byte, 2)); err == nil {
		t.Fatal("RecoverShardedWithRegions accepted nil regions")
	}
	// The supported paths still work.
	if _, _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	images := s.SegmentImages()
	if _, _, err := RecoverShardedWithRegions(s.Profile(), images, s.RegionSnapshots()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverShardedWithRegions(s.Profile(), images, s.RegionSnapshots()[:1]); err == nil {
		t.Fatal("mismatched images/regions accepted")
	}
}

// TestRecoverWithRegionsOneImage exercises the region entry point on a
// one-shard deployment end to end: checkpoint mid-stream, crash, recover
// from (image, region), serve reads, and survive a second crash cycle.
func TestRecoverWithRegionsOneImage(t *testing.T) {
	p := mmapTestProfile()
	p.CheckpointEveryOps = 5
	db, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := db.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.UpdateData(EntityController, PurposeService, recTestKey(2), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteData(EntityController, recTestKey(5)); err != nil {
		t.Fatal(err)
	}
	r, st, err := RecoverShardedWithRegions(db.Profile(), db.SegmentImages(), db.RegionSnapshots())
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 1 || st.CheckpointRows == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if got := r.Len(); got != 11 {
		t.Fatalf("recovered Len = %d, want 11", got)
	}
	if v, err := r.ReadData(EntityController, PurposeService, recTestKey(2)); err != nil || string(v) != "v2" {
		t.Fatalf("recovered update: %q, %v", v, err)
	}
	if _, err := r.ReadData(EntityController, PurposeService, recTestKey(5)); err == nil {
		t.Fatal("deleted record resurrected")
	}
	// Second crash cycle: the recovered deployment's own durable state
	// must recover again (re-anchored checkpoint + region round-trip).
	if err := r.Create(recTestRecord(20)); err != nil {
		t.Fatal(err)
	}
	r2, _, err := RecoverShardedWithRegions(r.Profile(), r.SegmentImages(), r.RegionSnapshots())
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Len(); got != 12 {
		t.Fatalf("second recovery Len = %d, want 12", got)
	}
}

// TestMmapRecoveryPreservesPolicyDecisions: decision equivalence across
// a crash on the mmap backend — the region scan re-derives the same
// conservative policy bundle the row-checkpoint path attaches, so every
// allow/deny must survive recovery, including post-collection consents,
// objections and revocations.
func TestMmapRecoveryPreservesPolicyDecisions(t *testing.T) {
	p := mmapTestProfile()
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
	// Checkpoint every shard so the WAL tail truncates: the region and
	// the logical records that survive truncation — not row replay —
	// must carry the consent, the objection and the revocation.
	for i := 0; i < s.NumShards(); i++ {
		s.Shard(i).Checkpoint()
	}
	type probe struct {
		entity  core.EntityID
		purpose core.Purpose
		key     string
	}
	var probes []probe
	for i := 0; i < 8; i++ {
		probes = append(probes,
			probe{EntityController, PurposeService, recTestKey(i)},
			probe{EntityProcessor, PurposeProcessing, recTestKey(i)},
			probe{EntitySubjectSvc, PurposeSubjectAccess, recTestKey(i)},
			probe{EntityProcessor, PurposeService, recTestKey(i)}, // never granted
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
}

// TestMmapShardSplitMergeLive: elastic resharding on the mmap backend.
// A split bulk-loads the moving rows into the destination's region and
// commits with a region checkpoint (no row section); a merge re-inserts
// through the WAL'd path. Both topologies must serve reads and survive
// a crash-recovery round trip.
func TestMmapShardSplitMergeLive(t *testing.T) {
	s, err := OpenSharded(mmapTestProfile(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Move two subjects off their current home shard.
	src := s.SubjectHome(recTestSubject(0))
	moving := []string{recTestSubject(0)}
	if s.SubjectHome(recTestSubject(1)) == src {
		moving = append(moving, recTestSubject(1))
	}
	dest, err := s.SplitShard(src, moving)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Shard(dest).Engine().(*storage.Mmap); !ok {
		t.Fatalf("split destination engine is %T", s.Shard(dest).Engine())
	}
	if got := s.Len(); got != 30 {
		t.Fatalf("post-split Len = %d, want 30", got)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.ReadData(EntityController, PurposeService, recTestKey(i)); err != nil {
			t.Fatalf("post-split read %d: %v", i, err)
		}
	}
	want := stateDigest(t, s)
	r, _, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := stateDigest(t, r); got != want {
		t.Fatalf("post-split recovery digest mismatch")
	}
	// Merge the destination back into its source.
	if err := s.MergeShards(dest, src); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 30 {
		t.Fatalf("post-merge Len = %d, want 30", got)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.ReadData(EntityController, PurposeService, recTestKey(i)); err != nil {
			t.Fatalf("post-merge read %d: %v", i, err)
		}
	}
	want = stateDigest(t, s)
	r, _, err = s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got := stateDigest(t, r); got != want {
		t.Fatalf("post-merge recovery digest mismatch")
	}
}

// TestEraseSubjectForensicallyCleanAllBackends is the acceptance pin
// for physical erasure at the compliance level: after EraseSubject plus
// the bounded purge window, a forensic scan of the subject's bytes
// finds nothing — no memtable entry, no sstable run, no heap page, no
// mmap page or redo entry — and erasure.Verify passes for every erased
// key on every backend.
func TestEraseSubjectForensicallyCleanAllBackends(t *testing.T) {
	profiles := map[string]Profile{
		BackendHeap: PBase(),
		BackendLSM:  lsmTestProfile(),
		BackendMmap: mmapTestProfile(),
	}
	for name, p := range profiles {
		t.Run(name, func(t *testing.T) {
			// Tight vacuum policy so the heap reclaims inside the same
			// bounded window the LSM purge obligations get.
			p.VacuumCheckEvery = 8
			p.VacuumThreshold = 0.01
			s, err := OpenSharded(p, 2)
			if err != nil {
				t.Fatal(err)
			}
			const victim = "forensic-victim-zq9"
			var victimKeys []string
			for i := 0; i < 48; i++ {
				rec := recTestRecord(i)
				if i%3 == 0 {
					rec.Subject = victim
					victimKeys = append(victimKeys, rec.Key)
				}
				if err := s.Create(rec); err != nil {
					t.Fatal(err)
				}
			}
			home := SubjectShard(victim, s.NumShards())
			engine := s.Shard(home).Engine()
			if !engine.ForensicScan([]byte(victim)) {
				t.Fatal("setup: subject bytes should be resident before erasure")
			}
			// The purge window is per engine, so the post-erasure traffic
			// must land on the victim's home shard: pick a surviving
			// bystander key co-located with it.
			tickKey := ""
			for i := 0; i < 48; i++ {
				k := recTestKey(i)
				if idx, ok := s.ShardIndexOf(k); ok && idx == home && i%3 != 0 {
					tickKey = k
					break
				}
			}
			if tickKey == "" {
				t.Fatal("setup: no bystander record on the victim's home shard")
			}
			erased, err := s.EraseSubject(EntitySystem, victim)
			if err != nil {
				t.Fatal(err)
			}
			if erased != len(victimKeys) {
				t.Fatalf("erased %d of %d records", erased, len(victimKeys))
			}
			// Bounded window: ordinary traffic on other subjects. 64
			// driver ops is several engine-level purge windows; the
			// scan runs before each update and once after the last.
			clean := -1
			for ops := 0; ops <= 64; ops++ {
				if !engine.ForensicScan([]byte(victim)) {
					clean = ops
					break
				}
				if ops == 64 {
					break
				}
				err := s.UpdateData(EntityController, PurposeService,
					tickKey, []byte(fmt.Sprintf("tick-%d", ops)))
				if err != nil {
					t.Fatal(err)
				}
			}
			if clean < 0 {
				t.Fatal("subject bytes still physically resident after the bounded purge window")
			}
			for _, k := range victimKeys {
				if err := erasure.Verify(engine, engine.Log(), []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			if pg, ok := engine.(storage.Purger); ok {
				if pg.PendingPurges() != 0 {
					t.Fatalf("%d purge obligations still pending", pg.PendingPurges())
				}
				if engine.Stats().PurgesDischarged == 0 {
					t.Fatal("no purge obligation was discharged")
				}
			}
		})
	}
}

// TestLSMRecoveryReRegistersPurges: a crash between a delete and its
// purge compaction must not lose the bounded-residency obligation —
// recovery re-registers it from the replayed delete.
func TestLSMRecoveryReRegistersPurges(t *testing.T) {
	p := lsmTestProfile()
	p.PurgeWithinOps = 1 << 30 // never self-discharge: the obligation must survive as such
	s, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteData(EntityController, recTestKey(2)); err != nil {
		t.Fatal(err)
	}
	r, _, err := RecoverSharded(s.Profile(), s.SegmentImages())
	if err != nil {
		t.Fatal(err)
	}
	pg, ok := r.Shard(0).Engine().(storage.Purger)
	if !ok {
		t.Fatalf("recovered engine is %T", r.Shard(0).Engine())
	}
	if pg.PendingPurges() == 0 {
		t.Fatal("recovery dropped the purge obligation of the replayed delete")
	}
	if n := pg.ForcePurge(); n == 0 {
		t.Fatal("recovered obligation does not discharge")
	}
	if r.Shard(0).Engine().ForensicScan([]byte(recTestKey(2))) {
		t.Fatal("deleted key physically resident after recovered purge")
	}
}

// TestLSMSpaceReportsShadowedVersions: the Table-2 path works on the
// LSM backend and its dead entries surface the retention hazard.
func TestLSMSpaceReportsShadowedVersions(t *testing.T) {
	p := lsmTestProfile()
	p.PurgeWithinOps = 1 << 30 // keep the hazard visible
	db, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if err := db.Create(recTestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := db.DeleteData(EntityController, recTestKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := db.Space()
	if rep.TotalBytes <= 0 || rep.PersonalBytes <= 0 {
		t.Fatalf("space report: %+v", rep)
	}
	sp := db.Shard(0).Engine().Space()
	if sp.DeadEntries == 0 || sp.DeadBytes == 0 {
		t.Fatalf("no shadowed/tombstoned entries visible: %+v", sp)
	}
}
