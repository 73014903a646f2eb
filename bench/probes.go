package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/audit"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/cryptox"
	"github.com/datacase/datacase/internal/policy"
	"github.com/datacase/datacase/internal/storage"
	"github.com/datacase/datacase/internal/storage/lsm"
	"github.com/datacase/datacase/internal/wal"
	"github.com/datacase/datacase/internal/wire"
)

// Probes replay inputs captured from the run — the stream's own
// requests, rows as the deployment stored them — straight into one
// layer's public functions on a fresh instance, so a layer's cost can
// be read without the layers around it.

// probeSample is how many captured inputs a probe replays per pass.
const probeSample = 2048

// probeMinTime is how long each probe keeps looping; it reports the
// mean of all completed passes.
const probeMinTime = 30 * time.Millisecond

// nsPer loops f over [0, n) until probeMinTime has passed and returns
// the mean ns per call.
func nsPer(n int, f func(i int)) float64 {
	calls := 0
	t := time.Now()
	for time.Since(t) < probeMinTime {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(t)) / float64(calls)
}

// storedRows captures up to n rows exactly as the deployment stores
// them (metadata plus sealed payload).
func storedRows(d *deployment, n int) (keys, rows [][]byte) {
	d.dbs[0].Shard(0).Engine().SeqScan(func(k, v []byte) bool {
		keys = append(keys, append([]byte(nil), k...))
		rows = append(rows, append([]byte(nil), v...))
		return len(keys) < n
	})
	return keys, rows
}

func newEngine(backend, name string) storage.Engine {
	switch backend {
	case compliance.BackendLSM:
		return storage.NewLSM(name, wal.New(), lsm.Options{})
	case compliance.BackendMmap:
		return storage.NewMmap(name, wal.New())
	default:
		return storage.NewHeap(name, wal.New())
	}
}

func probes(sp *spec, d *deployment, w *world, clients []*client, appendsPerOp float64, v map[string]float64) {
	ctx := context.Background()
	prof := d.dbs[0].Profile()
	keys, rows := storedRows(d, probeSample)
	n := len(keys)

	// storage: the workload's backend, fresh.
	eng := newEngine(prof.Backend, "probe")
	v["storage.insert_ns"] = nsPerOnce(n, func(i int) { _ = eng.Insert(keys[i], rows[i]) })
	v["storage.get_ns"] = nsPer(n, func(i int) { eng.Get(keys[i]) })
	v["storage.delete_ns"] = nsPerOnce(n, func(i int) { _ = eng.Delete(keys[i]) })

	// wal: one record per stored row, then the same rows in batches of 32.
	log := wal.New()
	v["wal.append_ns"] = nsPer(n, func(i int) { log.Append(wal.RecInsert, keys[i], rows[i]) })
	recBytes := float64(log.SizeBytes()) / float64(log.Len())
	v["wal.bytes_per_op"] = appendsPerOp * recBytes
	log = wal.New()
	v["wal.append_batch32_ns"] = nsPer(n/32, func(i int) {
		log.AppendBatch(wal.RecInsert, keys[i*32:i*32+32], rows[i*32:i*32+32])
	})

	// cryptox: the profile's cipher at the workload's payload sizes.
	if prof.PayloadCipher.Valid() {
		key, err := cryptox.GenerateKey(prof.PayloadCipher)
		if err == nil {
			if s, err := cryptox.NewAESGCM(key, nil); err == nil {
				sealed := make([][]byte, len(w.payloads))
				v["cryptox.seal_ns"] = nsPer(len(w.payloads), func(i int) { sealed[i], _ = s.Seal(w.payloads[i]) })
				v["cryptox.open_ns"] = nsPer(len(w.payloads), func(i int) { _, _ = s.Open(sealed[i]) })
			}
		}
	}

	// audit: the profile's logger, one entry shaped like a read's.
	if logger, err := prof.NewLogger(); err == nil {
		snapshot := []byte(fmt.Sprintf("unit=%s entity=%s purpose=%s at=%d engine=sieve", keys[0], actorEntity, actorPurpose, 1))
		v["audit.append_ns"] = nsPer(n, func(i int) {
			e := audit.Entry{
				Tuple: core.HistoryTuple{
					Unit: core.UnitID(keys[i]), Purpose: actorPurpose, Entity: actorEntity,
					Action: core.Action{Kind: core.ActionRead, SystemAction: "SELECT"}, At: core.Time(i),
				},
				Query: "SELECT data", Response: w.payloads[i%len(w.payloads)],
			}
			if prof.LogPolicySnapshots {
				e.PolicySnapshot = snapshot
			}
			_ = logger.Log(e)
		})
	}

	// policy: the profile's engine behind the decision cache, deciding
	// the stream's own key sequence (so its reuse shows as cache hits).
	st := clients[0].st
	lo := int(warmupFrac * float64(len(st.ops)))
	seq := st.ops[lo:min(lo+16*probeSample, len(st.ops))]
	pe := policy.NewCached(prof.NewPolicyEngine(), prof.DecisionCacheEntries)
	reqs := make([]policy.Request, 0, len(seq))
	attached := make(map[core.UnitID]bool)
	for i := range seq {
		o := &seq[i]
		if o.kind == kCreateBatch || o.kind == kErase || o.kind == kSubjectAccess {
			continue
		}
		unit, subject := core.UnitID(keyName(o.sid, o.serial)), core.EntityID(subjectName(o.sid))
		if !attached[unit] {
			attached[unit] = true
			_ = pe.AttachPolicies(unit, subject, []core.Policy{
				{Purpose: compliance.PurposeService, Entity: compliance.EntityController, Begin: 0, End: core.Time(farTTL)},
				{Purpose: compliance.PurposeProcessing, Entity: compliance.EntityProcessor, Begin: 0, End: core.Time(farTTL)},
				{Purpose: actorPurpose, Entity: actorEntity, Begin: 0, End: core.Time(farTTL)},
			})
		}
		reqs = append(reqs, policy.Request{
			Unit: unit, Subject: subject, Entity: actorEntity, Purpose: actorPurpose, Action: core.ActionRead, At: 1,
		})
	}
	for i := range reqs {
		pe.Allow(reqs[i]) // first touches are set-up, as in the run's warm-up
	}
	v["policy.decide_ns"] = nsPer(len(reqs), func(i int) { pe.Allow(reqs[i]) })
	v["policy.overflow_hit_ratio"], v["policy.overflow_decide_ns"] = policyOverflow(prof)

	// api.Local over a direct ShardedDB call, on a fresh one-shard
	// deployment holding a sample of the workload's records.
	v["api.local_overhead_ns"] = localOverhead(ctx, sp, w)

	// compliance: a foreground checkpoint of every shard as the run
	// left it (after the crash capture, so recovery is not affected).
	// The mean, not the median: shards can be very unevenly filled.
	shards := 0
	t := time.Now()
	for _, db := range d.dbs {
		for i := 0; i < db.NumShards(); i++ {
			db.Shard(i).Checkpoint()
			shards++
		}
	}
	v["compliance.checkpoint_ms"] = float64(time.Since(t).Microseconds()) / 1e3 / float64(shards)

	if sp.topo == topoWire {
		wireCodec(w, seq, v)
	}
	if sp.topo == topoRepl {
		v["repl.barrier_share"] = barrierShare(ctx, d, st, v["revoke_p50_us"])
	}
}

// overflowFactor is how many times the decision cache's capacity the
// overflow probe's working set is.
const overflowFactor = 3

// policyOverflow is the one place the benchmark drives the decision
// cache beyond its capacity. No end-to-end workload can: every rights
// operation scans its shard, so a shard large enough to overflow the
// cache (more than 65 536 units) makes a run ten times longer than the
// acceptance budget allows (README, "Deviations"). The probe asks one
// fresh cached engine about overflowFactor times its capacity in units,
// uniformly, and reports the steady-state hit ratio (capacity over
// working set if eviction is no better than random) and the cost of a
// decision there.
func policyOverflow(prof compliance.Profile) (hitRatio, decideNS float64) {
	capacity := prof.DecisionCacheEntries
	if capacity <= 0 {
		capacity = policy.DefaultCacheEntries
	}
	units := overflowFactor * capacity
	pe := policy.NewCached(prof.NewPolicyEngine(), capacity)
	reqs := make([]policy.Request, units)
	for i := range reqs {
		unit, subject := core.UnitID(keyName(uint32(i), 1)), core.EntityID(subjectName(uint32(i)))
		_ = pe.AttachPolicies(unit, subject, []core.Policy{
			{Purpose: actorPurpose, Entity: actorEntity, Begin: 0, End: core.Time(farTTL)},
		})
		reqs[i] = policy.Request{
			Unit: unit, Subject: subject, Entity: actorEntity, Purpose: actorPurpose, Action: core.ActionRead, At: 1,
		}
	}
	// Independent uniform draws from a fixed seed: the probe's inputs
	// depend on nothing but the profile.
	rng := rand.New(rand.NewSource(1))
	ask := func(int) { pe.Allow(reqs[rng.Intn(units)]) }
	for i := 0; i < 2*units; i++ {
		ask(i) // fill the cache to its steady state
	}
	before := pe.Stats()
	decideNS = nsPer(units, ask)
	after := pe.Stats()
	hits := float64(after.CacheHits - before.CacheHits)
	return ratio(hits, hits+float64(after.CacheMisses-before.CacheMisses)), decideNS
}

// nsPerOnce times exactly one pass (for calls that cannot repeat on the
// same input: insert, delete).
func nsPerOnce(n int, f func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t)) / float64(n)
}

func localOverhead(ctx context.Context, sp *spec, w *world) float64 {
	db, err := compliance.OpenSharded(sp.profile(), 1)
	if err != nil {
		return 0
	}
	defer db.Close()
	const n = 512
	reqs := make([]api.ReadDataRequest, n)
	for i := range reqs {
		r := w.record(uint32(i), 1, uint32(i%payloadPoolSize))
		if err := db.Create(r); err != nil {
			return 0
		}
		reqs[i] = api.ReadDataRequest{Key: r.Key, Entity: actorEntity, Purpose: actorPurpose}
	}
	// Call pairs are timed one by one and compared by their medians: the
	// difference is tens of ns under a ~10 us call, which a mean over a
	// window with one GC cycle in it would bury.
	local := api.NewLocal(db)
	const rounds = 8
	viaLocal, direct := make([]int64, 0, n*rounds), make([]int64, 0, n*rounds)
	for round := 0; round < rounds; round++ {
		for i, r := range reqs {
			// The second call of a pair finds the row and the decision
			// in the CPU's caches; alternate which path goes second.
			var viaNS, directNS time.Duration
			if (i+round)%2 == 0 {
				t0 := time.Now()
				_, _ = local.ReadData(ctx, r)
				t1 := time.Now()
				_, _ = db.ReadData(r.Entity, r.Purpose, r.Key)
				viaNS, directNS = t1.Sub(t0), time.Since(t1)
			} else {
				t0 := time.Now()
				_, _ = db.ReadData(r.Entity, r.Purpose, r.Key)
				t1 := time.Now()
				_, _ = local.ReadData(ctx, r)
				directNS, viaNS = t1.Sub(t0), time.Since(t1)
			}
			viaLocal = append(viaLocal, int64(viaNS))
			direct = append(direct, int64(directNS))
		}
	}
	return float64(quantile(sortedCopy(viaLocal), 0.5) - quantile(sortedCopy(direct), 0.5))
}

// wireCodec round-trips the stream's own requests, and a response of
// the matching shape, through the codec and framing alone.
func wireCodec(w *world, seq []op, v map[string]float64) {
	type msg struct {
		op        wire.Op
		req, resp any
	}
	var msgs []msg
	for i := range seq {
		o := &seq[i]
		key := keyName(o.sid, o.serial)
		switch o.kind {
		case kReadData:
			msgs = append(msgs, msg{wire.OpReadData,
				api.ReadDataRequest{Key: key, Entity: actorEntity, Purpose: actorPurpose},
				api.ReadDataResponse{Payload: w.payloads[o.payload]}})
		case kUpdateData:
			msgs = append(msgs, msg{wire.OpUpdateData,
				api.UpdateDataRequest{Key: key, Entity: actorEntity, Purpose: actorPurpose, Payload: w.payloads[o.payload]},
				api.UpdateDataResponse{}})
		case kReadMeta:
			r := w.record(o.sid, o.serial, 0)
			msgs = append(msgs, msg{wire.OpReadMeta,
				api.ReadMetaRequest{Key: key, Entity: actorEntity, Purpose: actorPurpose},
				api.ReadMetaResponse{Meta: compliance.Metadata{
					Subject: r.Subject, Purposes: r.Purposes, TTL: r.TTL, Processors: r.Processors, BaseTTL: r.TTL,
				}}})
		case kUpdateMeta:
			msgs = append(msgs, msg{wire.OpUpdateMeta,
				api.UpdateMetaRequest{Key: key, Entity: actorEntity, Purpose: actorPurpose, NewPurpose: "billing", NewTTL: farTTL},
				api.UpdateMetaResponse{}})
		case kDelete:
			msgs = append(msgs, msg{wire.OpDeleteData, api.DeleteDataRequest{Key: key, Entity: actorEntity}, api.DeleteDataResponse{}})
		case kCreate:
			msgs = append(msgs, msg{wire.OpCreate, api.CreateRequest{Record: w.record(o.sid, o.serial, o.payload)}, api.CreateResponse{}})
		}
		if len(msgs) == probeSample {
			break
		}
	}
	if len(msgs) == 0 {
		return
	}
	var buf []byte
	frameBytes := 0
	trip := func(op wire.Op, flags uint8, payload []byte) []byte {
		buf = wire.AppendFrame(buf[:0], wire.Frame{Op: op, Flags: flags, ID: 1, Payload: payload})
		frameBytes += len(buf)
		f, _, err := wire.DecodeFrame(buf)
		if err != nil {
			panic(err) // the codec rejected its own output
		}
		return f.Payload
	}
	one := func(i int) {
		m := msgs[i]
		p, err := wire.MarshalRequest(m.op, m.req)
		if err == nil {
			_, err = wire.UnmarshalRequest(m.op, trip(m.op, 0, p))
		}
		if err == nil {
			p, err = wire.MarshalResponse(m.op, m.resp)
		}
		if err == nil {
			_, err = wire.UnmarshalResponse(m.op, trip(m.op, wire.FlagResponse, p))
		}
		if err != nil {
			panic(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range msgs {
		one(i)
	}
	runtime.ReadMemStats(&after)
	v["wire.codec_allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(len(msgs))
	v["wire.frame_bytes_per_op"] = float64(frameBytes) / float64(len(msgs))
	v["wire.codec_ns_per_op"] = nsPer(len(msgs), one)
}

// barrierShare is the share of a replicated Revoke spent waiting for
// the replica: it closes the primary (which removes the barrier hook)
// and times the same call on the same database unreplicated.
func barrierShare(ctx context.Context, d *deployment, st *stream, replicatedP50us float64) float64 {
	// Closing twice is harmless; teardown closes it again.
	_ = d.primary.Close()
	local := api.NewLocal(d.dbs[0])
	var lat []int64
	for i := range st.ops {
		if o := &st.ops[i]; o.kind == kRevoke {
			req := api.RevokeRequest{Key: keyName(o.sid, o.serial), Purpose: revokedPurpose, Entity: revokedEntity}
			t := time.Now()
			if _, err := local.Revoke(ctx, req); err != nil {
				return 0
			}
			lat = append(lat, int64(time.Since(t)))
			if len(lat) == 256 {
				break
			}
		}
	}
	return 1 - ratio(usQuantile(lat, 0.5), replicatedP50us)
}
