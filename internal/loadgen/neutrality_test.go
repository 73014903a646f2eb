package loadgen

import (
	"context"
	"errors"
	"sort"
	"testing"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
)

// stranger holds no consent on any record: its reads and updates are
// denied, which a benchmark actor's never are.
var stranger = Actor{Entity: "stranger", Purpose: "marketing"}

// outcome classifies what a client observed for one op.
func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, compliance.ErrDenied):
		return "denied"
	case errors.Is(err, compliance.ErrNotFound):
		return "not-found"
	case errors.Is(err, compliance.ErrExists):
		return "exists"
	default:
		return "error: " + err.Error()
	}
}

// neutralityStream is one op stream touching every op kind and every
// tolerated outcome: the three workloads under their own actors, the
// customer mix again as the stranger (denials), and re-creates of
// keys the stream created (exists).
func neutralityStream(t *testing.T, records int) (ops []gdprbench.Op, actors []Actor) {
	t.Helper()
	add := func(w gdprbench.WorkloadName, a Actor, n int, seed int64) {
		gen, err := gdprbench.NewGenerator(w, records, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range gen.Ops(n) {
			ops, actors = append(ops, op), append(actors, a)
		}
	}
	for i, w := range gdprbench.Workloads() {
		add(w, ActorFor(w), 150, 11+int64(i))
	}
	add(gdprbench.Customer, stranger, 100, 29)
	// A recycled key: the same create issued again, as two racing
	// clients would (same key, so same subject and home).
	for i, n := 0, len(ops); i < n && len(ops) < n+5; i++ {
		if ops[i].Kind == gdprbench.OpCreate {
			ops, actors = append(ops, ops[i]), append(actors, actors[i])
		}
	}
	return ops, actors
}

// replayTally preloads the dataset and applies the stream through one
// client, returning the per-kind outcome tallies and the sampled
// subject's surviving records (key -> payload).
func replayTally(t *testing.T, dial Dial, records int, subject string) (map[string]int, map[string]string) {
	t.Helper()
	ctx := context.Background()
	if _, _, err := Prepare(ctx, dial, gdprbench.Customer, records, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	c, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tally := map[string]int{}
	ops, actors := neutralityStream(t, records)
	for i, op := range ops {
		tally[op.Kind.String()+"/"+outcome(Apply(ctx, c, op, actors[i]))]++
	}
	resp, err := c.SubjectAccess(ctx, api.SubjectAccessRequest{Subject: subject})
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]string{}
	for _, r := range resp.Records {
		owned[r.Key] = string(r.Payload)
	}
	return tally, owned
}

// TestApplyIsTransportNeutral replays one seeded op stream through
// api.Local and through the self-hosted servers+gateway topology: the
// client-observed outcome of every op kind, the final record count and
// a sampled subject's records must not depend on the transport.
func TestApplyIsTransportNeutral(t *testing.T) {
	const records, subject = 300, "person-00007"
	db, err := compliance.OpenSharded(compliance.PBase(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	localTally, localOwned := replayTally(t, Local(db), records, subject)

	addr, backends, cleanup, err := selfHost(NetworkConfig{Servers: 2, ShardsPerServer: 2}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	wireTally, wireOwned := replayTally(t, Wire(addr), records, subject)

	kinds := make([]string, 0, len(localTally))
	for k := range localTally {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		if localTally[k] != wireTally[k] {
			t.Errorf("%s: local %d, wire %d", k, localTally[k], wireTally[k])
		}
	}
	if len(wireTally) != len(localTally) {
		t.Errorf("outcome classes differ: local %v, wire %v", localTally, wireTally)
	}
	for _, want := range []string{"read-data/denied", "delete-data/not-found", "create/exists", "read-by-meta/ok"} {
		if localTally[want] == 0 {
			t.Errorf("stream never produced %s: %v", want, localTally)
		}
	}
	wireLen := 0
	for _, b := range backends {
		wireLen += b.DB().Len()
	}
	if db.Len() != wireLen {
		t.Errorf("final Len: local %d, wire %d", db.Len(), wireLen)
	}
	if len(localOwned) == 0 || len(localOwned) != len(wireOwned) {
		t.Fatalf("%s owns %d records locally, %d over the wire", subject, len(localOwned), len(wireOwned))
	}
	for k, v := range localOwned {
		if wireOwned[k] != v {
			t.Errorf("%s record %s differs across transports", subject, k)
		}
	}
}

// TestClientTallyMatchesEngineCounters: with one client, the denied and
// not-found counts Drive tallies from the errors its client observed
// equal the deltas of the engine's own Counters.
func TestClientTallyMatchesEngineCounters(t *testing.T) {
	const records = 300
	db, err := compliance.OpenSharded(compliance.PSYS(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, dial := context.Background(), Local(db)
	ops, _, err := Prepare(ctx, dial, gdprbench.Customer, records, 400, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Actor{ActorFor(gdprbench.Customer), stranger} {
		before := db.Counters()
		m, err := Drive(ctx, dial, 1, ops, a)
		if err != nil {
			t.Fatal(err)
		}
		after := db.Counters()
		if got := after.Denials - before.Denials; m.Denied != got {
			t.Errorf("%+v: clients observed %d denials, engine counted %d", a, m.Denied, got)
		}
		if got := after.NotFound - before.NotFound; m.NotFound != got {
			t.Errorf("%+v: clients observed %d not-founds, engine counted %d", a, m.NotFound, got)
		}
		if m.NotFound == 0 {
			t.Errorf("%+v: stream with deletes observed no not-found", a)
		}
	}
	if c := db.Counters(); c.Denials == 0 {
		t.Error("the stranger was never denied")
	}
}
