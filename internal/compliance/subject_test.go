package compliance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"github.com/datacase/datacase/internal/core"
)

// subjectRightsContract runs the subject-rights behaviour shared by all
// profiles.
func subjectRightsContract(t *testing.T, mk func(t *testing.T) *ShardedDB) {
	t.Helper()

	t.Run("subject_access_returns_all_records", func(t *testing.T) {
		db := mk(t)
		// Two records for person-7, one for person-8.
		for i, rec := range []struct {
			key     string
			subject string
		}{
			{"rec-a", "person-7"}, {"rec-b", "person-7"}, {"rec-c", "person-8"},
		} {
			r := testRecord(i)
			r.Key, r.Subject = rec.key, rec.subject
			if err := db.Create(r); err != nil {
				t.Fatal(err)
			}
		}
		got, err := db.SubjectAccess("person-7")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("SAR returned %d records, want 2", len(got))
		}
		for _, r := range got {
			if r.Meta.Subject != "person-7" || len(r.Payload) == 0 {
				t.Fatalf("bad SAR record: %+v", r)
			}
		}
		if got, _ := db.SubjectAccess("person-ghost"); len(got) != 0 {
			t.Fatalf("SAR for unknown subject returned %d records", len(got))
		}
	})

	t.Run("portability_export_is_json", func(t *testing.T) {
		db := mk(t)
		r := testRecord(1)
		r.Subject = "person-7"
		if err := db.Create(r); err != nil {
			t.Fatal(err)
		}
		blob, err := db.ExportPortable("person-7")
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			Subject string          `json:"subject"`
			Records []SubjectRecord `json:"records"`
		}
		if err := json.Unmarshal(blob, &parsed); err != nil {
			t.Fatalf("export is not valid JSON: %v", err)
		}
		if parsed.Subject != "person-7" || len(parsed.Records) != 1 {
			t.Fatalf("export = %+v", parsed)
		}
		if !bytes.Equal(parsed.Records[0].Payload, r.Payload) {
			t.Fatal("payload lost in export")
		}
	})

	t.Run("objection_blocks_processing", func(t *testing.T) {
		db := mk(t)
		r := testRecord(1)
		if err := db.Create(r); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReadData(EntityProcessor, PurposeProcessing, r.Key); err != nil {
			t.Fatalf("pre-objection processing read failed: %v", err)
		}
		if err := db.Object(r.Key); err != nil {
			t.Fatal(err)
		}
		meta, err := db.ReadMeta(EntitySubjectSvc, PurposeSubjectAccess, r.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !meta.Objected {
			t.Fatal("objection flag not set")
		}
		if err := db.Object(r.Key); err != nil {
			t.Fatalf("double objection: %v", err)
		}
		if err := db.Object("ghost"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("objection on missing record: %v", err)
		}
	})
}

func TestSubjectRightsPBase(t *testing.T) {
	subjectRightsContract(t, func(t *testing.T) *ShardedDB { return openProfile(t, PBase(), false) })
}

func TestSubjectRightsPGBench(t *testing.T) {
	subjectRightsContract(t, func(t *testing.T) *ShardedDB { return openProfile(t, PGBench(), false) })
}

func TestSubjectRightsPSYS(t *testing.T) {
	subjectRightsContract(t, func(t *testing.T) *ShardedDB { return openProfile(t, PSYS(), false) })
}

func TestObjectionDeniesProcessorFineGrained(t *testing.T) {
	// Fine-grained engines enforce objection per record; RBAC cannot
	// (role-level coarseness) — the grounding difference made visible.
	for _, p := range []Profile{PGBench(), PSYS()} {
		db := openProfile(t, p, false)
		a, b := testRecord(1), testRecord(2)
		if err := db.Create(a); err != nil {
			t.Fatal(err)
		}
		if err := db.Create(b); err != nil {
			t.Fatal(err)
		}
		if err := db.Object(a.Key); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReadData(EntityProcessor, PurposeProcessing, a.Key); !errors.Is(err, ErrDenied) {
			t.Fatalf("%s: processing after objection not denied: %v", p.Name, err)
		}
		if _, err := db.ReadData(EntityProcessor, PurposeProcessing, b.Key); err != nil {
			t.Fatalf("%s: objection leaked to another record: %v", p.Name, err)
		}
	}
}

func TestRevokeConsent(t *testing.T) {
	for _, p := range []Profile{PGBench(), PSYS()} {
		db := openProfile(t, p, true)
		r := testRecord(1)
		if err := db.Create(r); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReadData(EntityController, PurposeService, r.Key); err != nil {
			t.Fatal(err)
		}
		if err := db.RevokeConsent(r.Key, PurposeService, EntityController); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReadData(EntityController, PurposeService, r.Key); !errors.Is(err, ErrDenied) {
			t.Fatalf("%s: read after consent withdrawal not denied: %v", p.Name, err)
		}
		// The withdrawal is policy-consistent history (required by
		// regulation): the audit stays clean except for the denial-free
		// trace.
		rep, err := db.Audit(core.DefaultGDPRInvariants())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Compliant() {
			t.Fatalf("%s: consent withdrawal broke compliance:\n%s", p.Name, rep)
		}
		if err := db.RevokeConsent("ghost", PurposeService, EntityController); !errors.Is(err, ErrNotFound) {
			t.Fatalf("revoke on missing record: %v", err)
		}
	}
}

func TestDeriveBasics(t *testing.T) {
	db := openProfile(t, PBase(), true)
	a, b := testRecord(1), testRecord(2)
	a.Subject, b.Subject = "person-7", "person-7"
	if err := db.Create(a); err != nil {
		t.Fatal(err)
	}
	if err := db.Create(b); err != nil {
		t.Fatal(err)
	}
	concat := func(parents [][]byte) []byte { return bytes.Join(parents, []byte("+")) }
	err := db.Derive(EntityController, PurposeService, "derived-1",
		[]string{a.Key, b.Key}, concat, true, "concat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.ReadData(EntityController, PurposeService, "derived-1")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Join([][]byte{a.Payload, b.Payload}, []byte("+"))
	if !bytes.Equal(got, want) {
		t.Fatalf("derived payload = %q, want %q", got, want)
	}
	// Provenance is recorded.
	d, ok := db.Shard(0).Provenance().DerivationOf("derived-1")
	if !ok || len(d.Parents) != 2 || !d.Invertible {
		t.Fatalf("derivation = %+v, %v", d, ok)
	}
	// Derived metadata: same subject, intersected purposes, min TTL.
	meta, err := db.ReadMeta(EntitySubjectSvc, PurposeSubjectAccess, "derived-1")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Subject != "person-7" {
		t.Fatalf("derived subject = %q", meta.Subject)
	}
	// Model mirror has a derived unit.
	model, _ := db.Shard(0).Model()
	u, ok := model.Lookup("derived-1")
	if !ok || u.Kind() != core.KindDerived {
		t.Fatalf("model derived unit missing or wrong kind")
	}
}

func TestDeriveValidation(t *testing.T) {
	db := openProfile(t, PBase(), false)
	id := func(parents [][]byte) []byte { return parents[0] }
	if err := db.Derive(EntityController, PurposeService, "d", nil, id, false, "x"); err == nil {
		t.Fatal("derivation without parents accepted")
	}
	if err := db.Derive(EntityController, PurposeService, "d", []string{"ghost"}, id, false, "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing parent: %v", err)
	}
	r := testRecord(1)
	if err := db.Create(r); err != nil {
		t.Fatal(err)
	}
	if err := db.Derive(EntityController, "never-consented", "d", []string{r.Key}, id, false, "x"); !errors.Is(err, ErrDenied) {
		t.Fatalf("unauthorized derivation: %v", err)
	}
}

func TestStrongDeleteCascadesToIdentifiableDependents(t *testing.T) {
	db := openProfile(t, PSYS(), true)
	base := testRecord(1)
	base.Subject = "person-7"
	other := testRecord(2)
	other.Subject = "person-8"
	if err := db.Create(base); err != nil {
		t.Fatal(err)
	}
	if err := db.Create(other); err != nil {
		t.Fatal(err)
	}
	first := func(parents [][]byte) []byte { return parents[0] }
	// Identifiable dependent (same subject).
	if err := db.Derive(EntityController, PurposeService, "profile-7",
		[]string{base.Key}, first, true, "projection"); err != nil {
		t.Fatal(err)
	}
	// Aggregate over two subjects: not identifiable.
	if err := db.Derive(EntityController, PurposeService, "cohort",
		[]string{base.Key, other.Key},
		func(parents [][]byte) []byte { return []byte("agg") }, false, "cohort"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteData(EntitySubjectSvc, base.Key); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReadData(EntityController, PurposeService, "profile-7"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("identifiable dependent survived strong delete: %v", err)
	}
	if _, err := db.ReadData(EntityController, PurposeService, "cohort"); err != nil {
		t.Fatalf("aggregate wrongly cascaded: %v", err)
	}
	if db.Counters().CascadeDeletes != 1 {
		t.Fatalf("CascadeDeletes = %d", db.Counters().CascadeDeletes)
	}
	// The dependent's log entries are erased too (P_SYS grounding);
	// only its erase record survives.
	h, err := db.Shard(0).Logger().ReconstructHistory()
	if err != nil {
		t.Fatal(err)
	}
	tuples := h.Of("profile-7")
	if len(tuples) != 1 || tuples[0].Action.Kind != core.ActionErase {
		t.Fatalf("dependent log entries = %v", tuples)
	}
}

func TestPlainDeleteDoesNotCascade(t *testing.T) {
	db := openProfile(t, PBase(), false)
	base := testRecord(1)
	base.Subject = "person-7"
	if err := db.Create(base); err != nil {
		t.Fatal(err)
	}
	first := func(parents [][]byte) []byte { return parents[0] }
	if err := db.Derive(EntityController, PurposeService, "profile-7",
		[]string{base.Key}, first, true, "projection"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteData(EntitySubjectSvc, base.Key); err != nil {
		t.Fatal(err)
	}
	// P_Base's grounding is plain deletion: the derived record stays —
	// the measurable II hazard of Table 1.
	if _, err := db.ReadData(EntityController, PurposeService, "profile-7"); err != nil {
		t.Fatalf("P_Base cascade should not happen: %v", err)
	}
	if db.Counters().CascadeDeletes != 0 {
		t.Fatalf("CascadeDeletes = %d", db.Counters().CascadeDeletes)
	}
}

func TestSubjectAccessAfterErasure(t *testing.T) {
	db := openProfile(t, PSYS(), false)
	r := testRecord(1)
	r.Subject = "person-7"
	if err := db.Create(r); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteData(EntitySubjectSvc, r.Key); err != nil {
		t.Fatal(err)
	}
	got, err := db.SubjectAccess("person-7")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("SAR after erasure returned %d records", len(got))
	}
}

func TestWorldRegulationTaxonomies(t *testing.T) {
	for _, reg := range core.Regulations() {
		if reg.Len() == 0 {
			t.Errorf("%s has no articles", reg.Name)
		}
		for _, a := range reg.Articles() {
			if !a.Category.Valid() || a.Title == "" {
				t.Errorf("%s article %d malformed: %+v", reg.Name, a.Number, a)
			}
		}
	}
	ccpa := core.CCPA()
	if got := ccpa.InCategory(core.CatErasure); len(got) != 1 || got[0].Number != 105 {
		t.Fatalf("CCPA erasure articles = %v", got)
	}
	pipeda := core.PIPEDA()
	if got := pipeda.InCategory(core.CatErasure); len(got) != 1 || got[0].Number != 5 {
		t.Fatalf("PIPEDA retention articles = %v", got)
	}
}

func TestSARIsLoggedAsRequiredAction(t *testing.T) {
	db := openProfile(t, PBase(), false)
	r := testRecord(1)
	r.Subject = "person-7"
	if err := db.Create(r); err != nil {
		t.Fatal(err)
	}
	before := db.Shard(0).Logger().Count()
	if _, err := db.SubjectAccess("person-7"); err != nil {
		t.Fatal(err)
	}
	if db.Shard(0).Logger().Count() <= before {
		t.Fatal("SAR not logged")
	}
}

func TestDeriveChainCascade(t *testing.T) {
	// base -> d1 -> d2 (all same subject): strong delete of base removes
	// the whole chain.
	db := openProfile(t, PSYS(), false)
	base := testRecord(1)
	base.Subject = "person-7"
	if err := db.Create(base); err != nil {
		t.Fatal(err)
	}
	first := func(parents [][]byte) []byte { return parents[0] }
	if err := db.Derive(EntityController, PurposeService, "d1", []string{base.Key}, first, true, "p1"); err != nil {
		t.Fatal(err)
	}
	if err := db.Derive(EntityController, PurposeService, "d2", []string{"d1"}, first, true, "p2"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteData(EntitySubjectSvc, base.Key); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"d1", "d2"} {
		if _, err := db.ReadData(EntityController, PurposeService, key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s survived chain cascade: %v", key, err)
		}
	}
	if db.Counters().CascadeDeletes != 2 {
		t.Fatalf("CascadeDeletes = %d", db.Counters().CascadeDeletes)
	}
}

var _ = fmt.Sprintf // reserved for debugging helpers
