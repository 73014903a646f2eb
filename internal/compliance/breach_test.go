package compliance

import (
	"testing"

	"github.com/datacase/datacase/internal/core"
)

func TestBreachLifecycleCompliant(t *testing.T) {
	db := openProfile(t, PBase(), true)
	if err := db.Create(testRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordBreach("incident-1", []string{testRecord(1).Key}); err != nil {
		t.Fatal(err)
	}
	if err := db.NotifyBreach("incident-1"); err != nil {
		t.Fatal(err)
	}
	rep, err := db.AuditWithBreaches(core.DefaultGDPRInvariants())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant() {
		t.Fatalf("notified breach flagged:\n%s", rep)
	}
}

func TestBreachUnnotifiedViolates(t *testing.T) {
	db := openProfile(t, PBase(), true)
	rec := testRecord(1)
	if err := db.Create(rec); err != nil {
		t.Fatal(err)
	}
	if err := db.RecordBreach("incident-1", []string{rec.Key}); err != nil {
		t.Fatal(err)
	}
	// Let the logical clock pass the 72-tick window.
	for i := 0; i < 100; i++ {
		if _, err := db.ReadData(EntityController, PurposeService, rec.Key); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.AuditWithBreaches(core.DefaultGDPRInvariants())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant() {
		t.Fatal("unnotified breach not flagged")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == "G33" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no G33 violation:\n%s", rep)
	}
}

func TestBreachValidation(t *testing.T) {
	db := openProfile(t, PBase(), false)
	if err := db.RecordBreach("", nil); err == nil {
		t.Fatal("empty breach id accepted")
	}
	if err := db.NotifyBreach(""); err == nil {
		t.Fatal("empty breach id accepted")
	}
}

func TestBreachIsLogged(t *testing.T) {
	db := openProfile(t, PBase(), false)
	before := db.Shard(0).Logger().Count()
	if err := db.RecordBreach("incident-1", []string{"k1", "k2"}); err != nil {
		t.Fatal(err)
	}
	if db.Shard(0).Logger().Count() != before+1 {
		t.Fatal("breach detection not logged")
	}
}
