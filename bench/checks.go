package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/erasure"
	"github.com/datacase/datacase/internal/storage"
)

// erasedSampleSize bounds how many erased subjects per client the
// physical checks look at; each check scans a whole shard.
const erasedSampleSize = 32

// erased is one EraseSubject the stream issued.
type erased struct {
	sid uint32
	n   uint8
	// settled: issued early enough in the stream that a backend with a
	// bounded purge window must have discharged it by the end.
	settled bool
}

// erasedSample picks evenly spaced erasures from a client's stream.
func erasedSample(st *stream) []erased {
	var all []erased
	for i := range st.ops {
		if o := &st.ops[i]; o.kind == kErase {
			all = append(all, erased{sid: o.sid, n: o.n, settled: i < len(st.ops)*9/10})
		}
	}
	if len(all) <= erasedSampleSize {
		return all
	}
	out := make([]erased, erasedSampleSize)
	for i := range out {
		out[i] = all[i*len(all)/erasedSampleSize]
	}
	return out
}

// homeEngine returns the storage engine of the shard a subject lives on.
func (d *deployment) homeEngine(subject string) storage.Engine {
	db := d.dbs[0]
	if d.sp.topo == topoWire {
		// The Router's placement: FNV over the backend addresses.
		db = d.dbs[compliance.SubjectShard(subject, len(d.dbs))]
	}
	return db.Shard(db.SubjectHome(subject)).Engine()
}

// checkErasures verifies, on the deployment as the timed phase left it,
// that sampled erased subjects left no zombie (no live record, no WAL
// record a replay would resurrect) and — where the engine bounds
// physical residency by itself — that their bytes are gone.
func checkErasures(d *deployment, clients []*client, out *outcome) {
	for _, c := range clients {
		for _, e := range erasedSample(c.st) {
			subject := subjectName(e.sid)
			eng := d.homeEngine(subject)
			if e.n > 0 {
				// Serial 1 is the one key every subject certainly had.
				t := time.Now()
				err := erasure.Verify(eng, eng.Log(), []byte(keyName(e.sid, 1)))
				out.verifyNS = append(out.verifyNS, int64(time.Since(t)))
				if err != nil {
					out.violations = append(out.violations, err.Error())
				}
			}
			if _, bounded := eng.(storage.Purger); bounded && e.settled && eng.ForensicScan([]byte(subject)) {
				out.forensicHits++
				out.violations = append(out.violations,
					fmt.Sprintf("%s physically resident past the purge window", subject))
			}
		}
	}
}

// finalForensics runs last, because it mutates the deployment: it
// invokes the maintenance the profile's erasure grounding names —
// VACUUM (FULL) on vacuuming engines, whose residency bound is a
// dead-tuple ratio this workload may never reach, and the forced purge
// on the LSM — and then requires every sampled erased subject's bytes
// to be physically absent.
func finalForensics(d *deployment, clients []*client, out *outcome) {
	for _, db := range d.dbs {
		for i := 0; i < db.NumShards(); i++ {
			switch eng := db.Shard(i).Engine().(type) {
			case storage.Vacuumer:
				if db.Profile().Vacuum == compliance.VacuumFull {
					eng.VacuumFullRewrite()
				} else {
					eng.VacuumLazy()
				}
			case storage.Purger:
				eng.ForcePurge()
			}
		}
	}
	for _, c := range clients {
		for _, e := range erasedSample(c.st) {
			subject := subjectName(e.sid)
			if d.homeEngine(subject).ForensicScan([]byte(subject)) {
				out.forensicHits++
				out.violations = append(out.violations,
					fmt.Sprintf("%s physically resident after the grounding's maintenance ran", subject))
			}
		}
	}
}

// shardDigest fingerprints one shard's live rows independent of their
// physical order.
type shardDigest struct {
	rows     int
	sum, xor uint64
}

func digestOf(db *compliance.ShardedDB) []shardDigest {
	out := make([]shardDigest, db.NumShards())
	for i := range out {
		dg := &out[i]
		h := fnv.New64a()
		db.Shard(i).Engine().SeqScan(func(k, v []byte) bool {
			h.Reset()
			_, _ = h.Write(k) // hash.Hash never fails
			_, _ = h.Write([]byte{0})
			_, _ = h.Write(v)
			x := h.Sum64()
			dg.rows++
			dg.sum += x
			dg.xor ^= x * 0x9E3779B97F4A7C15
			if home, ok := db.ShardIndexOf(string(k)); !ok || home != i {
				dg.rows = -1 << 30 // a row the directory does not place here
			}
			return true
		})
	}
	return out
}

// recovery is the result of the crash-and-recover step.
type recovery struct {
	seconds float64
	stats   compliance.RecoveryStats
}

// crashAndRecover captures what a crash right now would leave behind
// (every authoritative database's WAL segment images and, for
// region-backed engines, byte regions), rebuilds the deployment from
// those bytes recoverRuns times, and requires every rebuild to be
// digest-equal to the crashed state. recover_s is the median wall time
// of one rebuild.
func crashAndRecover(d *deployment, out *outcome) (recovery, error) {
	type capture struct {
		prof    compliance.Profile
		images  [][]byte
		regions [][]byte
		digest  []shardDigest
	}
	var caps []capture
	for _, db := range d.dbs {
		caps = append(caps, capture{
			prof: db.Profile(), digest: digestOf(db),
			// Images first, regions second: see ShardedDB.Recover.
			images: db.SegmentImages(), regions: db.RegionSnapshots(),
		})
	}
	var rec recovery
	var times []float64
	for run := 0; run < recoverRuns; run++ {
		// Recovery attaches regions in place; give each run its own copy.
		regions := make([][][]byte, len(caps))
		for i, c := range caps {
			for _, r := range c.regions {
				regions[i] = append(regions[i], append([]byte(nil), r...))
			}
		}
		runtime.GC()
		recovered := make([]*compliance.ShardedDB, len(caps))
		var stats compliance.RecoveryStats
		t := time.Now()
		for i, c := range caps {
			var (
				st  compliance.RecoveryStats
				err error
			)
			if c.regions != nil {
				recovered[i], st, err = compliance.RecoverShardedWithRegions(c.prof, c.images, regions[i])
			} else {
				recovered[i], st, err = compliance.RecoverSharded(c.prof, c.images)
			}
			if err != nil {
				return rec, fmt.Errorf("recover: %w", err)
			}
			stats.CheckpointRows += st.CheckpointRows
			stats.RecordsReplayed += st.RecordsReplayed
			stats.ErasureRedos += st.ErasureRedos
		}
		times = append(times, time.Since(t).Seconds())
		rec.stats = stats
		for i, r := range recovered {
			got := digestOf(r)
			for s := range got {
				if got[s] != caps[i].digest[s] {
					out.violations = append(out.violations, fmt.Sprintf(
						"recovery %d: database %d shard %d differs from the crashed state (%d rows, crashed %d)",
						run, i, s, got[s].rows, caps[i].digest[s].rows))
				}
			}
			// The recovered copy is discarded; its close error is moot.
			_ = r.Close()
		}
	}
	_, rec.seconds, _ = quartiles(times)
	return rec, nil
}

// lagSampler measures replication lag from outside: after a sampled
// write returns it reads the shard's durable LSN on the primary and
// waits for the replica's applied horizon to reach it.
type lagSampler struct {
	d     *deployment
	calls atomic.Uint64
	// per[c] is written only by client c: it samples its own writes.
	per [nClients]struct {
		lagNS   []int64
		backlog []int64
	}
	replicaDB *compliance.ShardedDB
	resyncs   atomic.Uint64
}

const (
	lagEvery   = 16
	lagTimeout = 50 * time.Millisecond
)

func newLagSampler(d *deployment) *lagSampler {
	return &lagSampler{d: d, replicaDB: d.replica.DB()}
}

func (l *lagSampler) sample(key string) {
	if l.calls.Add(1)%lagEvery != 0 {
		return
	}
	db := l.d.dbs[0]
	shard, ok := db.ShardIndexOf(key)
	if !ok {
		return
	}
	lsn, err := db.ShardDurable(shard)
	if err != nil {
		return
	}
	c := ownerOf(key)
	if _, _, n, _, err := db.ShardWALBatch(shard, l.d.replica.Applied(shard), 1<<20); err == nil {
		l.per[c].backlog = append(l.per[c].backlog, int64(n))
	}
	t := time.Now()
	for l.d.replica.Applied(shard) < lsn && time.Since(t) < lagTimeout {
		time.Sleep(20 * time.Microsecond)
	}
	l.per[c].lagNS = append(l.per[c].lagNS, int64(time.Since(t)))
	if l.d.replica.DB() != l.replicaDB {
		l.resyncs.Add(1)
	}
}

func (l *lagSampler) report(v map[string]float64) {
	var lags, backlog []int64
	for c := range l.per {
		lags = append(lags, l.per[c].lagNS...)
		backlog = append(backlog, l.per[c].backlog...)
	}
	v["repl.lag_p50_us"] = usQuantile(lags, 0.5)
	sum := int64(0)
	for _, b := range backlog {
		sum += b
	}
	v["repl.records_per_batch"] = ratio(float64(sum), float64(len(backlog)))
	resyncs := float64(l.resyncs.Load())
	if resyncs == 0 && l.d.replica.DB() != l.replicaDB {
		resyncs = 1
	}
	v["repl.resyncs"] = resyncs
}

// spanMetrics derives the span-sourced layer metrics: per-kind client
// latency, the client's p99, and — when the stack has wire hops — the
// self time of each hop.
func spanMetrics(tr *tracer, v map[string]float64) {
	spans := tr.all()
	self := selfTimes(spans)
	v["trace.spans"] = float64(len(spans))
	var byKind [numKinds][]int64
	var selfBy, durBy [numLayers][]int64
	for i, s := range spans {
		durBy[s.layer] = append(durBy[s.layer], s.end-s.start)
		selfBy[s.layer] = append(selfBy[s.layer], self[i])
		if s.layer == layerClient {
			byKind[s.kind] = append(byKind[s.kind], s.end-s.start)
		}
	}
	for kind, name := range map[opKind]string{
		kReadData: "read_data", kReadMeta: "read_meta", kCreate: "create", kCreateBatch: "create_batch",
		kUpdateData: "update_data", kUpdateMeta: "update_meta", kDelete: "delete",
	} {
		v["compliance."+name+"_p50_us"] = usQuantile(byKind[kind], 0.5)
	}
	v["client.p99_us"] = usQuantile(durBy[layerClient], 0.99)
	if len(durBy[layerGateway]) > 0 {
		v["wire.client_hop_us"] = usQuantile(selfBy[layerClient], 0.5)
		v["wire.gateway_route_us"] = usQuantile(selfBy[layerGateway], 0.5)
		v["wire.server_backend_us"] = usQuantile(durBy[layerBackend], 0.5)
	}
}
