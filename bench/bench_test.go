package main

import (
	"testing"
)

// smallSpec shrinks a workload's dataset so generator tests run in
// milliseconds; the mix, ratios and placement rules are the real ones.
func smallSpec(t *testing.T, name string) spec {
	t.Helper()
	sp, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := *sp
	s.records /= 10
	return s
}

func streamsOf(t *testing.T, sp *spec, seed int64, draws int) [nClients]*stream {
	t.Helper()
	var out [nClients]*stream
	for c := range out {
		st, err := generate(sp, seed, c, draws)
		if err != nil {
			t.Fatal(err)
		}
		out[c] = st
	}
	return out
}

func TestStreamDeterministicPerSeed(t *testing.T) {
	for i := range specs {
		sp := smallSpec(t, specs[i].name)
		a, b, other := streamsOf(t, &sp, 7, 20_000), streamsOf(t, &sp, 7, 20_000), streamsOf(t, &sp, 8, 20_000)
		for c := 0; c < nClients; c++ {
			if a[c].digest() != b[c].digest() {
				t.Errorf("%s client %d: same seed, different stream", sp.name, c)
			}
			if a[c].digest() == other[c].digest() {
				t.Errorf("%s client %d: different seeds, same stream", sp.name, c)
			}
		}
		if a[0].digest() == a[1].digest() {
			t.Errorf("%s: both clients replay the same stream", sp.name)
		}
	}
}

// TestStreamStationary checks the full-size streams of a default
// (15 s) run: drift is a property of the real dataset size.
func TestStreamStationary(t *testing.T) {
	for i := range specs {
		sp := specs[i]
		for c, st := range streamsOf(t, &sp, 3, sp.opsPerSecond*15/nClients) {
			if st.liveStart != sp.records/nClients-len(vacantOf(st, &sp)) {
				t.Errorf("%s client %d: preload holds %d records", sp.name, c, st.liveStart)
			}
			drift := st.driftFrac()
			switch {
			case sp.grows && st.liveEnd <= st.liveStart:
				t.Errorf("%s client %d: the growing workload did not grow", sp.name, c)
			case !sp.grows && drift > 0.02:
				t.Errorf("%s client %d: live set drifts %.4f, more than 2%%", sp.name, c, drift)
			}
			rights := sp.opsPerSecond * 15 / nClients / sp.rightsIn
			if st.revokes+st.erases != rights || st.erases != rights/5 {
				t.Errorf("%s client %d: %d revokes and %d erases, want %d rights ops at 4:1",
					sp.name, c, st.revokes, st.erases, rights)
			}
			if timed := 1 - warmupFrac; float64(nClients*st.revokes)*timed < 1000 || float64(nClients*st.erases)*timed < 250 {
				t.Errorf("%s: a default run times fewer than 1000 revokes or 250 erases", sp.name)
			}
		}
	}
}

// vacantOf lists the record positions the preload left empty.
func vacantOf(st *stream, sp *spec) []int {
	var out []int
	for _, o := range st.preload {
		for k := int(o.n); k < sp.perSubj; k++ {
			out = append(out, k)
		}
	}
	return out
}

// TestStreamModelIsConsistent replays a stream against a plain map and
// checks every expectation the generator baked in: reads and updates
// hit live keys, creates hit fresh ones, an erase removes exactly the
// subject's live records.
func TestStreamModelIsConsistent(t *testing.T) {
	for i := range specs {
		sp := smallSpec(t, specs[i].name)
		for c, st := range streamsOf(t, &sp, 11, 40_000) {
			live := map[[2]uint32]uint32{} // (sid, serial) -> payload
			apply := func(o op) {
				switch o.kind {
				case kCreateBatch:
					for k := 0; k < int(o.n); k++ {
						key := [2]uint32{o.sid + uint32(k/int(o.per))*nClients, uint32(k%int(o.per)) + 1}
						if _, dup := live[key]; dup {
							t.Fatalf("%s client %d: batch re-creates %v", sp.name, c, key)
						}
						live[key] = (o.payload + uint32(k)) % payloadPoolSize
					}
				case kCreate:
					if _, dup := live[[2]uint32{o.sid, o.serial}]; dup {
						t.Fatalf("%s client %d: create of a live key", sp.name, c)
					}
					live[[2]uint32{o.sid, o.serial}] = o.payload
				case kReadData:
					if o.onReplica && o.expect == expectAny {
						return // may name the other client's record
					}
					p, ok := live[[2]uint32{o.sid, o.serial}]
					if !ok || (o.expect == expectOK && p != o.payload) {
						t.Fatalf("%s client %d: read expects payload %d, model has %d (live %v)", sp.name, c, o.payload, p, ok)
					}
				case kReadMeta, kUpdateMeta, kRevoke:
					if _, ok := live[[2]uint32{o.sid, o.serial}]; !ok {
						t.Fatalf("%s client %d: %s of a dead key", sp.name, c, o.kind)
					}
				case kUpdateData:
					if _, ok := live[[2]uint32{o.sid, o.serial}]; !ok {
						t.Fatalf("%s client %d: update of a dead key", sp.name, c)
					}
					live[[2]uint32{o.sid, o.serial}] = o.payload
				case kDelete:
					if _, ok := live[[2]uint32{o.sid, o.serial}]; !ok {
						t.Fatalf("%s client %d: delete of a dead key", sp.name, c)
					}
					delete(live, [2]uint32{o.sid, o.serial})
				case kErase:
					n := 0
					for key := range live {
						if key[0] == o.sid {
							delete(live, key)
							n++
						}
					}
					if n != int(o.n) {
						t.Fatalf("%s client %d: erase expects %d records, model has %d", sp.name, c, o.n, n)
					}
				case kSubjectAccess:
					for key := range live {
						if key[0] == o.sid {
							t.Fatalf("%s client %d: access probe of a live subject", sp.name, c)
						}
					}
				}
				if o.sid%nClients != uint32(c) && !(o.onReplica && o.expect == expectAny) {
					t.Fatalf("%s client %d: op on subject %d of another client", sp.name, c, o.sid)
				}
			}
			for _, o := range st.preload {
				apply(o)
			}
			for _, o := range st.ops {
				apply(o)
			}
			if len(live) != st.liveEnd {
				t.Errorf("%s client %d: model ends with %d records, stream says %d", sp.name, c, len(live), st.liveEnd)
			}
		}
	}
}

func TestNamesRoundTrip(t *testing.T) {
	if got := subjectName(42); got != "person-0000042" {
		t.Errorf("subjectName = %q", got)
	}
	if got := keyName(1234567, 89); got != "user1234567.89" {
		t.Errorf("keyName = %q", got)
	}
	for _, sid := range []uint32{0, 1, 2, 3, 9_999_998, 9_999_999} {
		if got := ownerOf(subjectName(sid)); got != int(sid%nClients) {
			t.Errorf("ownerOf(subject %d) = %d", sid, got)
		}
		if got := ownerOf(keyName(sid, 17)); got != int(sid%nClients) {
			t.Errorf("ownerOf(key %d) = %d", sid, got)
		}
	}
}

func TestQuantileExact(t *testing.T) {
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample")
	}
	s := sortedCopy([]int64{50, 10, 40, 20, 30})
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.8, 40}, {0.95, 50}, {1, 50}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	hundred := make([]int64, 100)
	for i := range hundred {
		hundred[i] = int64(i + 1)
	}
	if got := quantile(hundred, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %d", got)
	}
	if got := quantile(hundred, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %d", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if _, m, _ := quartiles([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median of four = %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	sp := func(req uint64, l layer, start, end int64) span {
		return span{req: req, layer: l, start: start, end: end}
	}
	spans := []span{
		// Request 1: nested chain client > gateway > backend.
		sp(1, layerClient, 0, 100), sp(1, layerGateway, 10, 90), sp(1, layerBackend, 30, 50),
		// Request 2: two overlapping children, one reaching past the parent.
		sp(2, layerClient, 0, 100), sp(2, layerGateway, 10, 60), sp(2, layerGateway, 40, 120),
		// Request 3: the child span is missing.
		sp(3, layerClient, 5, 25),
		// Request 4: two disjoint children (a fan-out), grandchild under one.
		sp(4, layerGateway, 0, 50), sp(4, layerBackend, 5, 15), sp(4, layerBackend, 20, 45),
	}
	self := selfTimes(spans)
	want := map[[2]int64]int64{
		{1, int64(layerClient)}: 20, {1, int64(layerGateway)}: 60, {1, int64(layerBackend)}: 20,
		{2, int64(layerClient)}:  10, // children cover [10,100): 90
		{3, int64(layerClient)}:  20,
		{4, int64(layerGateway)}: 15, // children cover 10 + 25
	}
	for i, s := range spans {
		if w, ok := want[[2]int64{int64(s.req), int64(s.layer)}]; ok && self[i] != w {
			t.Errorf("request %d %s [%d,%d): self %d, want %d", s.req, layerNames[s.layer], s.start, s.end, self[i], w)
		}
	}
	// Leaves keep their whole duration.
	for i, s := range spans {
		if s.req == 2 && s.layer == layerGateway && self[i] != s.end-s.start {
			t.Errorf("leaf span lost time: %d of %d", self[i], s.end-s.start)
		}
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the names and units
// the program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in specs", i, w.Name, specs[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer",
			len(bf.EndToEnd), len(endToEnd), len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] printed", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] printed", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestMixIsDealt: the mix comes off a shuffled deck, so two seeds issue
// each kind the same number of times, give or take the part of the last
// deck the draw count cuts off.
func TestMixIsDealt(t *testing.T) {
	sp := smallSpec(t, "local-ingest")
	count := func(seed int64) (n [numKinds]int) {
		for _, o := range streamsOf(t, &sp, seed, 20_050)[0].ops {
			n[o.kind]++
		}
		return n
	}
	a, b := count(1), count(2)
	for _, m := range sp.mix {
		if m.kind == kCreateBatch {
			continue // erasures re-collect with CreateBatch too
		}
		if d := a[m.kind] - b[m.kind]; d > m.weight || -d > m.weight {
			t.Errorf("%s: %d ops under seed 1, %d under seed 2", m.kind, a[m.kind], b[m.kind])
		}
	}
}

func TestDerivedBound(t *testing.T) {
	for _, c := range []struct {
		metric string
		spread float64
		want   float64
	}{
		{"ops_per_s", 0.004, 0.03},          // floor
		{"ops_per_s", 0.0301, 0.10},         // 3 x spread, rounded up
		{"ops_per_s", 0.12, 0.25},           // the contract's cap
		{"space_factor", 0.002, 0.01},       // the count metrics' floor
		{"audit_bytes_per_op", 0.008, 0.03}, // 0.024 rounded up
		{"setup_s", 0.01, 0.25},             // the contract's choice
	} {
		if got := derivedBound(c.metric, c.spread); got != c.want {
			t.Errorf("derivedBound(%s, %v) = %v, want %v", c.metric, c.spread, got, c.want)
		}
	}
}
