package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"

	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
	"github.com/datacase/datacase/internal/mall"
)

// opKind is one api.Client call the stream can issue.
type opKind uint8

const (
	kReadData opKind = iota
	kReadMeta
	kCreate
	kCreateBatch
	kUpdateData
	kUpdateMeta
	kDelete
	kRevoke
	kErase
	kSubjectAccess
	// kReplicaRead is ReadData against the read replica; it exists as
	// its own kind only inside a mix and is emitted as kReadData with
	// onReplica set.
	kReplicaRead
	numKinds
)

var kindNames = [numKinds]string{
	"ReadData", "ReadMeta", "Create", "CreateBatch", "UpdateData", "UpdateMeta",
	"DeleteData", "Revoke", "EraseSubject", "SubjectAccess", "ReplicaRead",
}

func (k opKind) String() string { return kindNames[k] }

// What an op must return for the run to count it as succeeded.
const (
	expectOK     uint8 = iota // no error, response matches the generator's model
	expectDenied              // compliance.ErrDenied: consent for the pair was revoked
	expectEmpty               // no error and no records: the subject was erased
	// expectAny: no error and a payload some client wrote. Replica reads
	// of records another client updates asynchronously cannot know which
	// version they see.
	expectAny
)

// op is one pre-generated request. It is pointer-free on purpose: a
// million of them must cost the collector nothing during the timed
// phase. Names are rendered from the numbers when the op is issued.
type op struct {
	kind      opKind
	expect    uint8
	onReplica bool
	// n is the record count of a CreateBatch and the erased-record
	// count an EraseSubject must report.
	n uint8
	// per is the records per subject of a CreateBatch (n/per subjects
	// with consecutive ids of one client, serials 1..per).
	per     uint8
	sid     uint32 // subject id
	serial  uint32 // record serial within the subject
	payload uint32 // payload-pool index written, or expected on a read
}

// rec is the generator's model of one live record.
type rec struct {
	serial  uint32 // 0: the slot is vacant
	payload uint32
}

const maxPerSubj = 8

// slot is one subject position of a client's key space. Erasure
// replaces the subject in place, so slot popularity (the Zipf rank) is
// stationary while subjects come and go.
type slot struct {
	sid  uint32
	next uint32 // next unused serial of the subject
	recs [maxPerSubj]rec
}

type recRef struct {
	slot int32
	j    uint8
}

// payloadPoolSize bounds the distinct personal-data payloads; ops name
// them by index.
const payloadPoolSize = 1024

// farTTL keeps every retention deadline beyond any run's logical clock,
// which ticks once per operation.
const farTTL = int64(1) << 40

// world is what both clients and the generator share: names and payloads.
type world struct {
	payloads [][]byte
	known    map[string]struct{} // payload membership, for expectAny
}

func newWorld(seed int64) (*world, error) {
	g, err := mall.NewGenerator(seed, payloadPoolSize, 64)
	if err != nil {
		return nil, err
	}
	w := &world{known: make(map[string]struct{}, payloadPoolSize)}
	for i := 0; i < payloadPoolSize; i++ {
		p := g.PayloadFor(i)
		w.payloads = append(w.payloads, p)
		w.known[string(p)] = struct{}{}
	}
	return w, nil
}

// Subject and key names are fixed-width, so no name is a prefix of
// another and a subject's name can serve as its forensic pattern.
func subjectName(sid uint32) string {
	var b [24]byte
	return string(appendPadded(append(b[:0], "person-"...), sid))
}

func keyName(sid, serial uint32) string {
	var b [32]byte
	buf := append(appendPadded(append(b[:0], "user"...), sid), '.')
	return string(strconv.AppendUint(buf, uint64(serial), 10))
}

// appendPadded appends sid as seven zero-padded digits. Names are
// rendered once per op on the clients' hot path, hence no fmt.
func appendPadded(buf []byte, sid uint32) []byte {
	var d [7]byte
	for i := len(d) - 1; i >= 0; i-- {
		d[i] = byte('0' + sid%10)
		sid /= 10
	}
	return append(buf, d[:]...)
}

// ownerOf recovers the client that owns a subject or key name: subject
// ids are dealt round-robin, so ownership is sid mod nClients. The
// trace decorators use it to attribute server-side spans.
func ownerOf(name string) int {
	digits := name
	switch {
	case len(name) > 7 && name[:7] == "person-":
		digits = name[7:]
	case len(name) > 4 && name[:4] == "user":
		digits = name[4:]
	}
	sid := 0
	for i := 0; i < len(digits) && digits[i] >= '0' && digits[i] <= '9'; i++ {
		sid = sid*10 + int(digits[i]-'0')
	}
	return sid % nClients
}

func (w *world) record(sid, serial, payload uint32) gdprbench.Record {
	i := int(sid+serial) % len(gdprbench.Purposes)
	return gdprbench.Record{
		Key:        keyName(sid, serial),
		Subject:    subjectName(sid),
		Payload:    w.payloads[payload],
		Purposes:   purposePairs[i],
		TTL:        farTTL,
		Processors: processorSets[int(sid)%len(gdprbench.Processors)],
	}
}

var (
	purposePairs  [][]string
	processorSets [][]string
)

func init() {
	for i := range gdprbench.Purposes {
		purposePairs = append(purposePairs, []string{
			gdprbench.Purposes[i], gdprbench.Purposes[(i+1)%len(gdprbench.Purposes)],
		})
	}
	for _, p := range gdprbench.Processors {
		processorSets = append(processorSets, []string{p})
	}
}

// generator builds one client's preload and op stream. Every mutation
// targets the client's own subjects, so the outcome of each op is a
// function of the client's own earlier ops and nothing the other
// client does concurrently can make an expectation wrong.
type generator struct {
	sp     *spec
	client int
	rng    *rand.Rand

	slots   []slot
	stable  int // slots[:stable] are never erased
	vacant  []recRef
	tail    int // grows: slot currently being filled by single creates
	nextSID uint32

	zipf  *loadgen.Zipf
	perm  []int32
	draws uint64

	// deck is the mix dealt like cards: every kind as many times as its
	// weight, reshuffled when it runs out. Each run of len(deck) draws
	// holds the mix exactly, so two seeds differ in the order of their
	// ops and not in how many of each kind they issue — a CreateBatch
	// costs thirty creates, and its share must not ride on the seed.
	deck  []opKind
	dealt int

	ops     []op
	rights  int
	live    int
	minLive int
	maxLive int
}

// stream is one client's generated input.
type stream struct {
	preload []op // kCreateBatch ops, one subject each
	ops     []op
	// liveStart/minLive/maxLive bound the live-record count the stream
	// implies, from preload to last op.
	liveStart, minLive, maxLive, liveEnd int
	revokes, erases                      int
}

// driftFrac is the largest excursion of the live set from its preload
// size, as a share of it.
func (s *stream) driftFrac() float64 {
	d := s.maxLive - s.liveStart
	if e := s.liveStart - s.minLive; e > d {
		d = e
	}
	return float64(d) / float64(s.liveStart)
}

// generate builds the stream of one client: preload of records/nClients
// records, then `draws` mix draws with rights ops woven in every
// rightsIn-th draw. Follow-up ops (post-revoke denial probes,
// post-erase access probes, re-collection) ride along, so the stream is
// a little longer than draws.
func generate(sp *spec, seed int64, client, draws int) (*stream, error) {
	g := &generator{
		sp: sp, client: client,
		rng:     rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1)),
		nextSID: uint32(client),
	}
	for _, m := range sp.mix {
		for i := 0; i < m.weight; i++ {
			g.deck = append(g.deck, m.kind)
		}
	}
	nslots := sp.records / (sp.perSubj * nClients)
	g.slots = make([]slot, nslots, nslots+draws/sp.perSubj+1)
	g.stable = int(float64(nslots) * sp.stableFrac)
	st := &stream{}
	for i := range g.slots {
		s := &g.slots[i]
		s.sid = g.newSID()
		payload := g.newPayload()
		keep := 0
		for j := 0; j < sp.perSubj; j++ {
			if i >= g.stable && g.rng.Float64() < sp.vacantFrac/(1-sp.stableFrac) {
				g.vacant = append(g.vacant, recRef{int32(i), uint8(j)})
				continue
			}
			s.recs[j] = rec{serial: uint32(keep + 1), payload: (payload + uint32(keep)) % payloadPoolSize}
			keep++
		}
		s.next = uint32(keep + 1)
		if keep > 0 {
			st.preload = append(st.preload, op{
				kind: kCreateBatch, n: uint8(keep), per: uint8(keep), sid: s.sid, payload: payload,
			})
		}
		g.live += keep
	}
	g.tail = -1
	st.liveStart, g.minLive, g.maxLive = g.live, g.live, g.live
	if sp.zipf {
		z, err := loadgen.NewZipf(nslots, 0.99, seed+int64(client))
		if err != nil {
			return nil, err
		}
		g.zipf = z
		g.perm = make([]int32, nslots)
		for i := range g.perm {
			g.perm[i] = int32(i)
		}
		g.rng.Shuffle(nslots, func(a, b int) { g.perm[a], g.perm[b] = g.perm[b], g.perm[a] })
	}
	g.ops = make([]op, 0, draws+draws/sp.rightsIn*4+16)
	for i := 1; i <= draws; i++ {
		if i%sp.rightsIn == 0 {
			g.rights++
			if g.rights%5 == 0 {
				g.erase()
				st.erases++
			} else {
				g.revoke()
				st.revokes++
			}
		} else {
			g.draw()
		}
		if g.live < g.minLive {
			g.minLive = g.live
		}
		if g.live > g.maxLive {
			g.maxLive = g.live
		}
	}
	st.ops, st.minLive, st.maxLive, st.liveEnd = g.ops, g.minLive, g.maxLive, g.live
	return st, nil
}

func (g *generator) newSID() uint32 {
	sid := g.nextSID
	g.nextSID += nClients
	return sid
}

func (g *generator) newPayload() uint32 { return uint32(g.rng.Intn(payloadPoolSize)) }

// pickSlot draws a slot by the workload's popularity law from
// slots[lo:hi).
func (g *generator) pickSlot(lo, hi int) int {
	if g.zipf != nil && lo == 0 && hi >= len(g.perm) {
		g.draws++
		return int(g.perm[g.zipf.Rank(g.draws)])
	}
	return lo + g.rng.Intn(hi-lo)
}

// pickLive draws a live record from slots[lo:hi).
func (g *generator) pickLive(lo, hi int) (*slot, *rec) {
	for {
		s := &g.slots[g.pickSlot(lo, hi)]
		r := &s.recs[g.rng.Intn(g.sp.perSubj)]
		if r.serial != 0 {
			return s, r
		}
	}
}

// draw emits one op of the workload mix.
func (g *generator) draw() {
	if g.dealt%len(g.deck) == 0 {
		g.rng.Shuffle(len(g.deck), func(a, b int) { g.deck[a], g.deck[b] = g.deck[b], g.deck[a] })
	}
	kind := g.deck[g.dealt%len(g.deck)]
	g.dealt++
	all := len(g.slots)
	switch kind {
	case kReadData, kReadMeta:
		s, r := g.pickLive(0, all)
		g.ops = append(g.ops, op{kind: kind, sid: s.sid, serial: r.serial, payload: r.payload})
	case kReplicaRead:
		// Any client's stable record, not only this client's: sids are
		// dealt round-robin over one shared slot layout.
		s, r := g.pickLive(0, g.stable)
		sid := s.sid - uint32(g.client) + uint32(g.rng.Intn(nClients))
		g.ops = append(g.ops, op{kind: kReadData, expect: expectAny, onReplica: true, sid: sid, serial: r.serial})
	case kUpdateData:
		s, r := g.pickLive(0, all)
		r.payload = g.newPayload()
		g.ops = append(g.ops, op{kind: kUpdateData, sid: s.sid, serial: r.serial, payload: r.payload})
	case kUpdateMeta:
		s, r := g.pickLive(0, all)
		g.ops = append(g.ops, op{kind: kUpdateMeta, sid: s.sid, serial: r.serial, payload: g.newPayload()})
	case kDelete:
		g.deleteOne()
	case kCreate:
		g.createOne()
	case kCreateBatch:
		g.createSubjects(batchSubjects, g.sp.perSubj)
	}
}

func (g *generator) deleteOne() {
	for {
		i := g.pickSlot(g.stable, len(g.slots))
		j := g.rng.Intn(g.sp.perSubj)
		s := &g.slots[i]
		if s.recs[j].serial == 0 {
			continue
		}
		g.ops = append(g.ops, op{kind: kDelete, sid: s.sid, serial: s.recs[j].serial})
		s.recs[j] = rec{}
		g.live--
		if !g.sp.grows {
			g.vacant = append(g.vacant, recRef{int32(i), uint8(j)})
		}
		return
	}
}

// createOne collects one record: into a vacancy on stationary
// workloads (falling back to a delete when none is open, which opens
// one), into the subject currently being filled on the growing one.
func (g *generator) createOne() {
	if g.sp.grows {
		j := g.sp.perSubj
		if g.tail >= 0 {
			for j = 0; j < g.sp.perSubj && g.slots[g.tail].recs[j].serial != 0; j++ {
			}
		}
		if j == g.sp.perSubj {
			g.slots = append(g.slots, slot{sid: g.newSID(), next: 1})
			g.tail, j = len(g.slots)-1, 0
		}
		s := &g.slots[g.tail]
		r := rec{serial: s.next, payload: g.newPayload()}
		s.recs[j] = r
		s.next++
		g.live++
		g.ops = append(g.ops, op{kind: kCreate, sid: s.sid, serial: r.serial, payload: r.payload})
		return
	}
	if len(g.vacant) == 0 {
		g.deleteOne()
		return
	}
	k := g.rng.Intn(len(g.vacant))
	ref := g.vacant[k]
	g.vacant[k] = g.vacant[len(g.vacant)-1]
	g.vacant = g.vacant[:len(g.vacant)-1]
	s := &g.slots[ref.slot]
	r := rec{serial: s.next, payload: g.newPayload()}
	s.next++
	s.recs[ref.j] = r
	g.live++
	g.ops = append(g.ops, op{kind: kCreate, sid: s.sid, serial: r.serial, payload: r.payload})
}

// createSubjects opens n fresh subjects of per records each in one
// CreateBatch (the growing workload's bulk admission).
func (g *generator) createSubjects(n, per int) {
	payload := g.newPayload()
	first := g.nextSID
	for i := 0; i < n; i++ {
		s := slot{sid: g.newSID(), next: uint32(per + 1)}
		for j := 0; j < per; j++ {
			s.recs[j] = rec{serial: uint32(j + 1), payload: (payload + uint32(i*per+j)) % payloadPoolSize}
		}
		g.slots = append(g.slots, s)
	}
	g.live += n * per
	g.ops = append(g.ops, op{kind: kCreateBatch, n: uint8(n * per), per: uint8(per), sid: first, payload: payload})
}

// revoke withdraws the processor's consent on one record and, where
// the grounding adjudicates per unit, probes that the withdrawal holds:
// a read under the revoked pair right after Revoke returned must be
// denied — on the replica too, which is what the barrier promises.
func (g *generator) revoke() {
	hi := len(g.slots)
	if g.stable > 0 {
		hi = g.stable
	}
	s, r := g.pickLive(0, hi)
	g.ops = append(g.ops, op{kind: kRevoke, sid: s.sid, serial: r.serial})
	if !g.sp.revokeDenies {
		return
	}
	g.ops = append(g.ops, op{kind: kReadData, expect: expectDenied, sid: s.sid, serial: r.serial})
	if g.sp.topo == topoRepl {
		g.ops = append(g.ops, op{kind: kReadData, expect: expectDenied, onReplica: true, sid: s.sid, serial: r.serial})
	}
}

// erase exercises the right to erasure on one subject, probes that a
// subject-access request now finds nothing, and re-collects a fresh
// subject of the same size into the slot so the live set holds.
func (g *generator) erase() {
	i := g.stable + g.rng.Intn(len(g.slots)-g.stable)
	s := &g.slots[i]
	n := 0
	for j := 0; j < g.sp.perSubj; j++ {
		if s.recs[j].serial != 0 {
			n++
		}
	}
	g.ops = append(g.ops, op{kind: kErase, sid: s.sid, n: uint8(n)})
	g.ops = append(g.ops, op{kind: kSubjectAccess, expect: expectEmpty, sid: s.sid})
	if g.sp.topo == topoRepl {
		g.ops = append(g.ops, op{kind: kSubjectAccess, expect: expectEmpty, onReplica: true, sid: s.sid})
	}
	s.sid = g.newSID()
	if n == 0 {
		s.next = 1
		return
	}
	payload := g.newPayload()
	k := 0
	for j := 0; j < g.sp.perSubj; j++ {
		if s.recs[j].serial != 0 {
			k++
			s.recs[j] = rec{serial: uint32(k), payload: (payload + uint32(k-1)) % payloadPoolSize}
		}
	}
	s.next = uint32(n + 1)
	g.ops = append(g.ops, op{kind: kCreateBatch, n: uint8(n), per: uint8(n), sid: s.sid, payload: payload})
}

// digest fingerprints a stream (preload and ops), for the determinism
// tests and the environment stamp.
func (s *stream) digest() uint64 {
	h := fnv.New64a()
	var b [16]byte
	put := func(o op) {
		b[0], b[1], b[2], b[3] = byte(o.kind), o.expect, o.n, o.per
		if o.onReplica {
			b[1] |= 0x80
		}
		for i, v := range [3]uint32{o.sid, o.serial, o.payload} {
			b[4+4*i], b[5+4*i], b[6+4*i], b[7+4*i] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		_, _ = h.Write(b[:]) // hash.Hash never fails
	}
	for _, o := range s.preload {
		put(o)
	}
	for _, o := range s.ops {
		put(o)
	}
	return h.Sum64()
}
