package compliance

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/gdprbench"
)

func testRecord(i int) gdprbench.Record {
	return gdprbench.Record{
		Key:        gdprbench.KeyFor(i),
		Subject:    fmt.Sprintf("person-%05d", i),
		Payload:    []byte(fmt.Sprintf("dev-%05d|person-%05d|sensor-001|atrium|%d|42", i, i, i)),
		Purposes:   []string{"billing", "analytics"},
		TTL:        1 << 30,
		Processors: []string{"processor-a"},
	}
}

func openProfile(t *testing.T, p Profile, trackModel bool) *ShardedDB {
	t.Helper()
	p.TrackModel = trackModel
	db, err := OpenSharded(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// profileContract exercises behaviour all three profiles must share.
func profileContract(t *testing.T, mk func(t *testing.T) *ShardedDB) {
	t.Helper()

	t.Run("create_read_roundtrip", func(t *testing.T) {
		db := mk(t)
		rec := testRecord(1)
		if err := db.Create(rec); err != nil {
			t.Fatal(err)
		}
		got, err := db.ReadData(EntityController, PurposeService, rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, rec.Payload) {
			t.Fatalf("read = %q, want %q", got, rec.Payload)
		}
	})

	t.Run("payload_never_plaintext_at_rest", func(t *testing.T) {
		db := mk(t)
		rec := testRecord(2)
		if err := db.Create(rec); err != nil {
			t.Fatal(err)
		}
		// The heap row must not contain the plaintext payload: it is
		// sealed or lives encrypted on the block device.
		if db.Shard(0).data.ForensicScan(rec.Payload) {
			t.Fatal("plaintext payload at rest in heap pages")
		}
	})

	t.Run("denied_wrong_purpose", func(t *testing.T) {
		db := mk(t)
		rec := testRecord(3)
		if err := db.Create(rec); err != nil {
			t.Fatal(err)
		}
		_, err := db.ReadData(EntityController, "never-consented", rec.Key)
		if !errors.Is(err, ErrDenied) {
			t.Fatalf("err = %v, want ErrDenied", err)
		}
		if db.Counters().Denials != 1 {
			t.Fatalf("Denials = %d", db.Counters().Denials)
		}
	})

	t.Run("processor_access", func(t *testing.T) {
		db := mk(t)
		rec := testRecord(4)
		if err := db.Create(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReadData(EntityProcessor, PurposeProcessing, rec.Key); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("update_data", func(t *testing.T) {
		db := mk(t)
		rec := testRecord(5)
		if err := db.Create(rec); err != nil {
			t.Fatal(err)
		}
		if err := db.UpdateData(EntityController, PurposeService, rec.Key, []byte("new-payload")); err != nil {
			t.Fatal(err)
		}
		got, err := db.ReadData(EntityController, PurposeService, rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "new-payload" {
			t.Fatalf("read = %q", got)
		}
	})

	t.Run("delete_then_not_found", func(t *testing.T) {
		db := mk(t)
		rec := testRecord(6)
		if err := db.Create(rec); err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteData(EntitySubjectSvc, rec.Key); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReadData(EntityController, PurposeService, rec.Key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("read after delete err = %v", err)
		}
		if err := db.DeleteData(EntitySubjectSvc, rec.Key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("double delete err = %v", err)
		}
	})

	t.Run("meta_read_and_update", func(t *testing.T) {
		db := mk(t)
		rec := testRecord(7)
		if err := db.Create(rec); err != nil {
			t.Fatal(err)
		}
		meta, err := db.ReadMeta(EntitySubjectSvc, PurposeSubjectAccess, rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Subject != rec.Subject || len(meta.Purposes) != 2 {
			t.Fatalf("meta = %+v", meta)
		}
		if err := db.UpdateMeta(EntitySubjectSvc, PurposeSubjectAccess, rec.Key, "research", 999); err != nil {
			t.Fatal(err)
		}
		meta, err = db.ReadMeta(EntitySubjectSvc, PurposeSubjectAccess, rec.Key)
		if err != nil {
			t.Fatal(err)
		}
		if meta.TTL != 999 || !hasString(meta.Purposes, "research") {
			t.Fatalf("meta after update = %+v", meta)
		}
		// The new consent is enforceable.
		if _, err := db.ReadData(EntityController, "research", rec.Key); err != nil {
			t.Fatalf("newly consented purpose denied: %v", err)
		}
	})

	t.Run("read_by_meta", func(t *testing.T) {
		db := mk(t)
		for i := 10; i < 20; i++ {
			if err := db.Create(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		n, err := db.ReadByMeta(EntityProcessor, PurposeProcessing, "billing", 5)
		if err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("ReadByMeta = %d rows, want 5 (limit)", n)
		}
		if n, err := db.ReadByMeta(EntityProcessor, PurposeProcessing, "no-such-purpose", 5); err != nil || n != 0 {
			t.Fatalf("phantom purpose matched %d rows, err=%v", n, err)
		}
	})

	t.Run("audit_log_grows", func(t *testing.T) {
		db := mk(t)
		rec := testRecord(30)
		if err := db.Create(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
			t.Fatal(err)
		}
		if db.Shard(0).Logger().Count() < 2 {
			t.Fatalf("log entries = %d, want >= 2", db.Shard(0).Logger().Count())
		}
	})
}

func TestPBaseContract(t *testing.T) {
	profileContract(t, func(t *testing.T) *ShardedDB { return openProfile(t, PBase(), false) })
}

func TestPGBenchContract(t *testing.T) {
	profileContract(t, func(t *testing.T) *ShardedDB { return openProfile(t, PGBench(), false) })
}

func TestPSYSContract(t *testing.T) {
	profileContract(t, func(t *testing.T) *ShardedDB { return openProfile(t, PSYS(), false) })
}

func TestPSYSLogErasureOnDelete(t *testing.T) {
	db := openProfile(t, PSYS(), false)
	rec := testRecord(1)
	if err := db.Create(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteData(EntitySubjectSvc, rec.Key); err != nil {
		t.Fatal(err)
	}
	// Only the erase record survives for the unit.
	h, err := db.Shard(0).Logger().ReconstructHistory()
	if err != nil {
		t.Fatal(err)
	}
	tuples := h.Of(core.UnitID(rec.Key))
	if len(tuples) != 1 || tuples[0].Action.Kind != core.ActionErase {
		t.Fatalf("surviving tuples = %v", tuples)
	}
}

func TestPBaseKeepsLogsOnDelete(t *testing.T) {
	db := openProfile(t, PBase(), false)
	rec := testRecord(1)
	if err := db.Create(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteData(EntitySubjectSvc, rec.Key); err != nil {
		t.Fatal(err)
	}
	h, err := db.Shard(0).Logger().ReconstructHistory()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(h.Of(core.UnitID(rec.Key))); got != 3 {
		t.Fatalf("P_Base should retain all %d entries, got %d", 3, got)
	}
}

func TestVacuumStyles(t *testing.T) {
	// Drive enough delete churn to trigger the autovacuum policy and
	// observe each profile's grounding.
	run := func(t *testing.T, p Profile) Counters {
		db := openProfile(t, p, false)
		const n = 2000
		for i := 0; i < n; i++ {
			if err := db.Create(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			if err := db.DeleteData(EntitySubjectSvc, gdprbench.KeyFor(i)); err != nil {
				t.Fatal(err)
			}
		}
		return db.Counters()
	}
	if c := run(t, PBase()); c.Vacuums == 0 || c.VacuumFulls != 0 {
		t.Fatalf("P_Base counters = %+v, want lazy vacuums only", c)
	}
	if c := run(t, PGBench()); c.Vacuums != 0 || c.VacuumFulls != 0 {
		t.Fatalf("P_GBench counters = %+v, want no vacuums", c)
	}
	if c := run(t, PSYS()); c.VacuumFulls == 0 || c.Vacuums != 0 {
		t.Fatalf("P_SYS counters = %+v, want full vacuums only", c)
	}
}

func TestPGBenchRetainsDeletedPayloadOnDevice(t *testing.T) {
	// P_GBench's plain DELETE leaves the payload sector orphaned on the
	// encrypted device — physically retained (though key-protected).
	db := openProfile(t, PGBench(), false)
	rec := testRecord(1)
	if err := db.Create(rec); err != nil {
		t.Fatal(err)
	}
	sectors := db.Shard(0).blockdev.Sectors()
	if err := db.DeleteData(EntitySubjectSvc, rec.Key); err != nil {
		t.Fatal(err)
	}
	if db.Shard(0).blockdev.Sectors() != sectors {
		t.Fatal("delete should not reclaim device sectors (plain DELETE)")
	}
}

func TestSpaceReportOrdering(t *testing.T) {
	// Load the same dataset into the three profiles and compare space
	// factors: P_Base < P_GBench < P_SYS, with P_SYS far ahead (Table 2).
	const n = 1500
	factors := make(map[string]float64)
	for _, p := range Profiles() {
		db := openProfile(t, p, false)
		for i := 0; i < n; i++ {
			if err := db.Create(testRecord(i)); err != nil {
				t.Fatal(err)
			}
		}
		// A little traffic so logs have weight.
		for i := 0; i < n/2; i++ {
			if _, err := db.ReadData(EntityController, PurposeService, gdprbench.KeyFor(i)); err != nil {
				t.Fatal(err)
			}
		}
		rep := db.Space()
		if rep.PersonalBytes <= 0 || rep.TotalBytes <= rep.PersonalBytes {
			t.Fatalf("%s space report nonsense: %+v", p.Name, rep)
		}
		factors[p.Name] = rep.Factor
	}
	if !(factors["P_Base"] < factors["P_GBench"]) {
		t.Fatalf("factor ordering wrong: %+v", factors)
	}
	if !(factors["P_GBench"] < factors["P_SYS"]) {
		t.Fatalf("factor ordering wrong: %+v", factors)
	}
	if factors["P_SYS"] < 2*factors["P_GBench"] {
		t.Fatalf("P_SYS should dominate (Table 2's 17x vs 3.7x): %+v", factors)
	}
}

func TestAuditCompliantRun(t *testing.T) {
	db := openProfile(t, PBase(), true)
	for i := 0; i < 50; i++ {
		if err := db.Create(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := db.ReadData(EntityController, PurposeService, gdprbench.KeyFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.Audit(core.DefaultGDPRInvariants())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant() {
		t.Fatalf("compliant run reported violations:\n%s", rep)
	}
}

func TestAuditCatchesDeadlineViolation(t *testing.T) {
	db := openProfile(t, PBase(), true)
	rec := testRecord(1)
	rec.TTL = 3 // expires almost immediately
	if err := db.Create(rec); err != nil {
		t.Fatal(err)
	}
	// Let the clock pass the deadline without erasing.
	for i := 0; i < 50; i++ {
		if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
			// Reads start failing once the policy window closes — keep
			// ticking the clock regardless.
			continue
		}
	}
	rep, err := db.Audit(core.DefaultGDPRInvariants())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant() {
		t.Fatal("missed erasure deadline not flagged")
	}
	foundG17 := false
	for _, v := range rep.Violations {
		if v.Invariant == "G17" && v.Unit == core.UnitID(rec.Key) {
			foundG17 = true
		}
	}
	if !foundG17 {
		t.Fatalf("no G17 violation in report:\n%s", rep)
	}
}

func TestAuditRequiresModel(t *testing.T) {
	db := openProfile(t, PBase(), false)
	if _, err := db.Audit(core.DefaultGDPRInvariants()); err == nil {
		t.Fatal("audit without model accepted")
	}
}

func TestGroundingsInspectable(t *testing.T) {
	for _, p := range Profiles() {
		g := p.Groundings()
		if ok, missing := g.FullyGrounded(); p.Name == "P_GBench" {
			// P_GBench's erasure maps to an unsupported action (the
			// orphaned device sector) — deliberately not fully grounded.
			if ok {
				t.Fatalf("%s should not be fully grounded", p.Name)
			}
		} else if !ok {
			t.Fatalf("%s not fully grounded: missing %v", p.Name, missing)
		}
		if _, ok := g.Chosen(core.ConceptErasure); !ok {
			t.Fatalf("%s has no erasure grounding", p.Name)
		}
		if _, ok := g.Chosen(core.ConceptPolicy); !ok {
			t.Fatalf("%s has no policy grounding", p.Name)
		}
		if _, ok := g.Chosen(core.ConceptHistory); !ok {
			t.Fatalf("%s has no history grounding", p.Name)
		}
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	r := storedRecord{
		Meta: Metadata{
			Subject:    "person-00042",
			Purposes:   []string{"billing", "analytics"},
			TTL:        12345,
			Processors: []string{"processor-a", "processor-b"},
			Objected:   true,
		},
		Blob: []byte{1, 2, 3, 4},
	}
	got, err := decodeRecord(encodeRecord(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Subject != r.Meta.Subject || got.Meta.TTL != r.Meta.TTL ||
		!got.Meta.Objected || len(got.Meta.Purposes) != 2 ||
		len(got.Meta.Processors) != 2 || !bytes.Equal(got.Blob, r.Blob) {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeRecord([]byte{0}); err == nil {
		t.Fatal("truncated record decoded")
	}
}

func TestMetaPredicatesOnEncodedRow(t *testing.T) {
	row := encodeRecord(storedRecord{
		Meta: Metadata{Subject: "person-7", Purposes: []string{"billing", "research"}, TTL: 1},
		Blob: []byte("blob"),
	})
	if !metaHasPurpose(row, "billing") || !metaHasPurpose(row, "research") {
		t.Fatal("purpose predicate missed")
	}
	if metaHasPurpose(row, "bill") || metaHasPurpose(row, "ads") {
		t.Fatal("purpose predicate false positive")
	}
	if string(metaSubject(row)) != "person-7" {
		t.Fatalf("metaSubject = %q", metaSubject(row))
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := OpenSharded(Profile{}, 1); err == nil {
		t.Fatal("empty profile accepted")
	}
	p := PBase()
	p.VacuumThreshold = 2
	if _, err := OpenSharded(p, 1); err == nil {
		t.Fatal("bad threshold accepted")
	}
}
