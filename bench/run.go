package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/audit"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/policy"
	"github.com/datacase/datacase/internal/storage"
	"github.com/datacase/datacase/internal/wal"
)

// The actor every workload's ordinary traffic runs as, and the pair
// whose consent Revoke withdraws (and the denial probes then read as).
const (
	actorEntity    = compliance.EntitySubjectSvc
	actorPurpose   = compliance.PurposeSubjectAccess
	revokedEntity  = compliance.EntityProcessor
	revokedPurpose = compliance.PurposeProcessing
)

// preloadBatch is the CreateBatch size of the preload.
const preloadBatch = 256

// traceSlices is how many slices a traced run cuts the timed phase
// into; tracing is on in every second pair.
const traceSlices = 16

// recoverRuns is how many times the captured crash images are
// recovered; recover_s is the median.
const recoverRuns = 5

// setupRuns is how many times a run sets the workload up from nothing;
// setup_s is the median, and the last instance is the one measured.
const setupRuns = 3

// client replays one stream in a closed loop.
type client struct {
	id               int
	w                *world
	primary, replica api.Client
	st               *stream
	lat              []int64 // ns per op, index-aligned with st.ops
	failed           int
	failures         []string // first few unexpected outcomes
	violations       []string // compliance or output-correctness misses
	lag              *lagSampler
}

const keepMessages = 5

func (c *client) fail(o *op, err error) {
	c.failed++
	if len(c.failures) < keepMessages {
		c.failures = append(c.failures, fmt.Sprintf("client %d %s %s: %v", c.id, o.kind, keyName(o.sid, o.serial), err))
	}
}

func (c *client) violate(o *op, what string) {
	c.failed++
	if len(c.violations) < keepMessages {
		c.violations = append(c.violations, fmt.Sprintf("client %d %s %s: %s", c.id, o.kind, keyName(o.sid, o.serial), what))
	}
}

// batchRecords expands a CreateBatch op into its records.
func (w *world) batchRecords(o *op, dst []gdprbench.Record) []gdprbench.Record {
	for i := 0; i < int(o.n); i++ {
		sid := o.sid + uint32(i/int(o.per))*nClients
		dst = append(dst, w.record(sid, uint32(i%int(o.per))+1, (o.payload+uint32(i))%payloadPoolSize))
	}
	return dst
}

// exec issues op i, times the call alone (request building and response
// checking stay outside the clock) and settles its outcome.
func (c *client) exec(ctx context.Context, i int) {
	o := &c.st.ops[i]
	target := c.primary
	if o.onReplica {
		target = c.replica
	}
	var (
		err   error
		t     time.Time
		d     time.Duration
		wrong string
	)
	switch o.kind {
	case kReadData:
		req := api.ReadDataRequest{Key: keyName(o.sid, o.serial), Entity: actorEntity, Purpose: actorPurpose}
		if o.expect == expectDenied {
			req.Entity, req.Purpose = revokedEntity, revokedPurpose
		}
		var resp api.ReadDataResponse
		t = time.Now()
		resp, err = target.ReadData(ctx, req)
		d = time.Since(t)
		if err == nil {
			switch o.expect {
			case expectOK:
				if !bytes.Equal(resp.Payload, c.w.payloads[o.payload]) {
					wrong = "read returned a payload the stream never wrote there"
				}
			case expectAny:
				if _, ok := c.w.known[string(resp.Payload)]; !ok {
					wrong = "replica read returned a payload no client wrote"
				}
			case expectDenied:
				wrong = "read allowed after Revoke returned (stale allow)"
			}
		}
	case kReadMeta:
		req := api.ReadMetaRequest{Key: keyName(o.sid, o.serial), Entity: actorEntity, Purpose: actorPurpose}
		var resp api.ReadMetaResponse
		t = time.Now()
		resp, err = target.ReadMeta(ctx, req)
		d = time.Since(t)
		if err == nil && resp.Meta.Subject != subjectName(o.sid) {
			wrong = "metadata names another subject"
		}
	case kCreate:
		req := api.CreateRequest{Record: c.w.record(o.sid, o.serial, o.payload)}
		t = time.Now()
		_, err = target.Create(ctx, req)
		d = time.Since(t)
	case kCreateBatch:
		req := api.CreateBatchRequest{Records: c.w.batchRecords(o, make([]gdprbench.Record, 0, o.n))}
		var resp api.CreateBatchResponse
		t = time.Now()
		resp, err = target.CreateBatch(ctx, req)
		d = time.Since(t)
		if err == nil && resp.Created != int(o.n) {
			wrong = fmt.Sprintf("batch created %d of %d records", resp.Created, o.n)
		}
	case kUpdateData:
		req := api.UpdateDataRequest{Key: keyName(o.sid, o.serial), Entity: actorEntity, Purpose: actorPurpose, Payload: c.w.payloads[o.payload]}
		t = time.Now()
		_, err = target.UpdateData(ctx, req)
		d = time.Since(t)
		if c.lag != nil && err == nil {
			c.lag.sample(req.Key)
		}
	case kUpdateMeta:
		req := api.UpdateMetaRequest{
			Key: keyName(o.sid, o.serial), Entity: actorEntity, Purpose: actorPurpose,
			NewPurpose: gdprbench.Purposes[int(o.payload)%len(gdprbench.Purposes)],
			NewTTL:     farTTL + int64(o.payload),
		}
		t = time.Now()
		_, err = target.UpdateMeta(ctx, req)
		d = time.Since(t)
	case kDelete:
		req := api.DeleteDataRequest{Key: keyName(o.sid, o.serial), Entity: actorEntity}
		t = time.Now()
		_, err = target.DeleteData(ctx, req)
		d = time.Since(t)
	case kRevoke:
		req := api.RevokeRequest{Key: keyName(o.sid, o.serial), Purpose: revokedPurpose, Entity: revokedEntity}
		t = time.Now()
		_, err = target.Revoke(ctx, req)
		d = time.Since(t)
	case kErase:
		req := api.EraseSubjectRequest{Subject: subjectName(o.sid), Entity: actorEntity}
		var resp api.EraseSubjectResponse
		t = time.Now()
		resp, err = target.EraseSubject(ctx, req)
		d = time.Since(t)
		if err == nil && resp.Erased != int(o.n) {
			wrong = fmt.Sprintf("erased %d records, the subject had %d", resp.Erased, o.n)
		}
	case kSubjectAccess:
		req := api.SubjectAccessRequest{Subject: subjectName(o.sid)}
		var resp api.SubjectAccessResponse
		t = time.Now()
		resp, err = target.SubjectAccess(ctx, req)
		d = time.Since(t)
		if err == nil && len(resp.Records) != 0 {
			wrong = fmt.Sprintf("%d records readable after EraseSubject returned (zombie)", len(resp.Records))
		}
	}
	c.lat[i] = int64(d)
	switch {
	case wrong != "":
		c.violate(o, wrong)
	case o.expect == expectDenied:
		if !errors.Is(err, compliance.ErrDenied) {
			c.fail(o, fmt.Errorf("want ErrDenied, got %v", err))
		}
	case err != nil:
		c.fail(o, err)
	}
}

// preload admits the client's initial records through its own path, in
// CreateBatch calls of preloadBatch records.
func (c *client) preload(ctx context.Context) error {
	batch := make([]gdprbench.Record, 0, preloadBatch+maxPerSubj)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		resp, err := c.primary.CreateBatch(ctx, api.CreateBatchRequest{Records: batch})
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if resp.Created != len(batch) {
			return fmt.Errorf("preload: created %d of %d records", resp.Created, len(batch))
		}
		batch = batch[:0]
		return nil
	}
	for i := range c.st.preload {
		batch = c.w.batchRecords(&c.st.preload[i], batch)
		if len(batch) >= preloadBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// sweep reads every preloaded record of the client once.
func (c *client) sweep(ctx context.Context) error {
	for i := range c.st.preload {
		o := &c.st.preload[i]
		for serial := uint32(1); serial <= uint32(o.n); serial++ {
			req := api.ReadDataRequest{Key: keyName(o.sid, serial), Entity: actorEntity, Purpose: actorPurpose}
			if _, err := c.primary.ReadData(ctx, req); err != nil {
				return fmt.Errorf("warm-up sweep: %w", err)
			}
		}
	}
	return nil
}

// replay runs ops [lo, hi) of every client's stream (as shares of its
// length) concurrently, closed loop, and returns the wall time from the
// common start to the last client's last reply.
func replay(ctx context.Context, clients []*client, lo, hi float64) time.Duration {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			n := float64(len(c.st.ops))
			from, to := int(lo*n), int(hi*n)
			<-start
			for i := from; i < to; i++ {
				c.exec(ctx, i)
			}
		}(c)
	}
	t := time.Now()
	close(start)
	wg.Wait()
	return time.Since(t)
}

// window collects the latencies of the ops in [lo, hi) of every client
// that satisfy keep.
func window(clients []*client, lo, hi float64, keep func(*op) bool) []int64 {
	var out []int64
	for _, c := range clients {
		n := float64(len(c.st.ops))
		for i := int(lo * n); i < int(hi*n); i++ {
			if keep == nil || keep(&c.st.ops[i]) {
				out = append(out, c.lat[i])
			}
		}
	}
	return out
}

// snap is every public counter the per-layer metrics difference over
// the timed phase, summed over databases and shards.
type snap struct {
	comp        compliance.Counters
	wal         wal.Stats
	pol         policy.Stats
	store       storage.Stats
	auditBytes  int64
	auditAsync  uint64
	personal    int64
	spaceTotal  int64
	engineLive  int64
	engineTotal int64
	liveRecords int
	mem         runtime.MemStats
}

// takeSnap reads the counters. Space and audit-log size come from the
// authoritative databases only (the first auth of dbs); work counters
// from all of them.
func takeSnap(dbs []*compliance.ShardedDB, auth int) snap {
	var s snap
	for di, db := range dbs {
		c := db.Counters()
		s.comp.Denials += c.Denials
		s.comp.NotFound += c.NotFound
		s.comp.Vacuums += c.Vacuums + c.VacuumFulls
		s.comp.Checkpoints += c.Checkpoints
		ws := db.WALStats()
		s.wal.Appends += ws.Appends
		s.wal.Syncs += ws.Syncs
		for i := 0; i < db.NumShards(); i++ {
			sh := db.Shard(i)
			ps := sh.PolicyEngine().Stats()
			s.pol.Checks += ps.Checks
			s.pol.PoliciesScanned += ps.PoliciesScanned
			s.pol.CacheHits += ps.CacheHits
			s.pol.CacheMisses += ps.CacheMisses
			s.pol.CacheInvalidations += ps.CacheInvalidations
			es := sh.Engine().Stats()
			s.store.MaintenanceRuns += es.MaintenanceRuns
			s.store.EntriesReclaimed += es.EntriesReclaimed
			s.store.PurgesRegistered += es.PurgesRegistered
			s.store.PurgesDischarged += es.PurgesDischarged
			if a, ok := sh.Logger().(*audit.AsyncLogger); ok {
				s.auditAsync += a.Stats().Enqueued
			}
			if di < auth {
				sp := sh.Engine().Space()
				s.engineLive += sp.LiveBytes
				s.engineTotal += sp.TotalBytes
			}
		}
		if di < auth {
			sp := db.Space()
			s.auditBytes += sp.LogBytes
			s.personal += sp.PersonalBytes
			s.spaceTotal += sp.TotalBytes
			s.liveRecords += db.Len()
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// outcome is everything one run measured.
type outcome struct {
	values     map[string]float64
	attempted  int
	failed     int
	failures   []string
	violations []string
	// facts are printed above the result line: counts the acceptance
	// criteria ask to see that are not metrics.
	facts []string
	// verifyNS times each erasure.Verify call of the erasure checks.
	verifyNS []int64
	// forensicHits counts erased subjects found physically resident.
	forensicHits int
}

// setUp builds one ready-to-measure instance of the workload from
// nothing: it generates the dataset and both clients' streams from the
// seed, opens the deployment, attaches the replica where there is one,
// preloads through the clients' own path and replays the warm-up share
// of the streams. Everything it does is what setup_s times.
func setUp(ctx context.Context, sp *spec, seed int64, draws int, tr *tracer) (*deployment, []*client, error) {
	w, err := newWorld(seed)
	if err != nil {
		return nil, nil, err
	}
	d, err := deploy(sp, draws*nClients, tr)
	if err != nil {
		return nil, nil, err
	}
	clients, err := d.populate(ctx, w, seed, draws)
	if err != nil {
		d.close()
		return nil, nil, err
	}
	return d, clients, nil
}

// populate is setUp after the deployment is open.
func (d *deployment) populate(ctx context.Context, w *world, seed int64, draws int) ([]*client, error) {
	sp := d.sp
	if sp.topo == topoRepl {
		if err := d.startReplica(); err != nil {
			return nil, err
		}
	}
	clients := make([]*client, nClients)
	errs := make([]error, nClients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st, err := generate(sp, seed, c, draws)
			if err != nil {
				errs[c] = err
				return
			}
			clients[c] = &client{id: c, w: w, primary: d.clients[c], st: st, lat: make([]int64, len(st.ops))}
			errs[c] = clients[c].preload(ctx)
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if sp.topo == topoRepl {
		if err := d.awaitReplica(); err != nil {
			return nil, err
		}
		for c, cl := range clients {
			cl.replica = d.replicaClients[c]
		}
	}
	if sp.zipf {
		// A skewed stream takes far longer than its first 5% to touch its
		// tail; read every record once so the decision cache is as full
		// at the first timed op as at the last.
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				errs[c.id] = c.sweep(ctx)
			}(c)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
	}
	replay(ctx, clients, 0, warmupFrac)
	return clients, nil
}

// runWorkload performs one run: set-up (setupRuns times over, the last
// instance is the one measured), the timed phase, the correctness
// checks, crash capture and recovery, and — on a traced run — the layer
// probes.
func runWorkload(sp *spec, seed int64, seconds int, traced bool, traceOut string) (*outcome, error) {
	t0 := time.Now()
	ctx := context.Background()
	draws := sp.opsPerSecond * seconds / nClients
	if draws < sp.rightsIn*5 {
		return nil, fmt.Errorf("--seconds %d gives %d draws per client, too few for one erase", seconds, draws)
	}
	var tr *tracer
	if traced {
		tr = newTracer(draws)
	}
	var (
		d       *deployment
		clients []*client
		setups  []float64
	)
	for i := 0; i < setupRuns; i++ {
		if d != nil {
			// An earlier instance only had its set-up timed. Let go of
			// it before the next one is built, so each starts from the
			// same empty heap.
			d.close()
			d, clients = nil, nil
		}
		runtime.GC()
		t := time.Now()
		var err error
		if d, clients, err = setUp(ctx, sp, seed, draws, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer d.close()
	w := clients[0].w
	_, setup, _ := quartiles(setups)

	out := &outcome{values: make(map[string]float64)}
	var lag *lagSampler
	if traced && sp.topo == topoRepl {
		lag = newLagSampler(d)
		for _, c := range clients {
			c.lag = lag
		}
	}

	// The timed phase. An untraced run is one window; a traced run
	// splits the same ops into traceSlices slices, tracing off-on-on-off
	// and so on, so drift that is close to linear over four slices (the
	// audit log only grows) cancels out of the overhead comparison.
	auth := len(d.dbs)
	runtime.GC()
	before := takeSnap(d.statDBs(), auth)
	var wall, wallOn, wallOff time.Duration
	if !traced {
		wall = replay(ctx, clients, warmupFrac, 1)
	} else {
		// One cut list, so a slice ends on exactly the index the next
		// starts on.
		cuts := make([]float64, traceSlices+1)
		for i := range cuts {
			cuts[i] = warmupFrac + (1-warmupFrac)*float64(i)/traceSlices
		}
		cuts[traceSlices] = 1
		for i := 0; i < traceSlices; i++ {
			on := i%4 == 1 || i%4 == 2
			tr.on.Store(on)
			dt := replay(ctx, clients, cuts[i], cuts[i+1])
			if on {
				wallOn += dt
			} else {
				wallOff += dt
			}
		}
		tr.on.Store(false)
		wall = wallOn + wallOff
	}
	after := takeSnap(d.statDBs(), auth)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	timed := window(clients, warmupFrac, 1, nil)
	ops := float64(len(timed))
	sorted := sortedCopy(timed)
	revokes := window(clients, warmupFrac, 1, func(o *op) bool { return o.kind == kRevoke })
	erases := window(clients, warmupFrac, 1, func(o *op) bool { return o.kind == kErase })
	v := out.values
	v["setup_s"] = setup
	v["ops_per_s"] = ops / wall.Seconds()
	v["p50_us"] = float64(quantile(sorted, 0.50)) / 1e3
	v["p95_us"] = float64(quantile(sorted, 0.95)) / 1e3
	v["revoke_p50_us"] = usQuantile(revokes, 0.50)
	v["erase_p50_us"] = usQuantile(erases, 0.50)
	v["space_factor"] = ratio(float64(after.spaceTotal), float64(after.personal))
	v["audit_bytes_per_op"] = float64(after.auditBytes-before.auditBytes) / ops
	v["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)

	drift := 0.0
	erasures, erasedRecords := 0, 0
	for _, c := range clients {
		erasures += c.st.erases
		out.attempted += len(c.st.ops)
		out.failed += c.failed
		out.failures = append(out.failures, c.failures...)
		out.violations = append(out.violations, c.violations...)
		drift = max(drift, c.st.driftFrac())
		for i := range c.st.ops {
			if c.st.ops[i].kind == kErase {
				erasedRecords += int(c.st.ops[i].n)
			}
		}
	}
	modelLive := 0
	for _, c := range clients {
		modelLive += c.st.liveEnd
	}
	if after.liveRecords != modelLive {
		out.violations = append(out.violations,
			fmt.Sprintf("deployment holds %d live records, the stream's model %d", after.liveRecords, modelLive))
	}
	out.facts = append(out.facts,
		fmt.Sprintf("timed_ops=%d timed_wall_s=%.3f revoke_samples=%d erase_samples=%d",
			len(timed), wall.Seconds(), len(revokes), len(erases)),
		fmt.Sprintf("live_drift_frac=%.4f failure_share=%.6f live_records=%d",
			drift, float64(out.failed)/float64(out.attempted), after.liveRecords))

	// Erasure checks on the still-running deployment, then the crash.
	tPost := time.Now()
	checkErasures(d, clients, out)
	rec, err := crashAndRecover(d, out)
	if err != nil {
		return nil, err
	}
	v["recover_s"] = rec.seconds
	defer func() {
		out.facts = append(out.facts, fmt.Sprintf("wall_s setup=%.1f timed=%.1f checks_and_recovery=%.1f total=%.1f",
			setup, wall.Seconds(), time.Since(tPost).Seconds(), time.Since(t0).Seconds()))
	}()

	if traced {
		v["compliance.denials"] = float64(after.comp.Denials - before.comp.Denials)
		v["compliance.not_found"] = float64(after.comp.NotFound - before.comp.NotFound)
		v["compliance.failed_ops"] = float64(out.failed)
		v["compliance.checkpoints"] = float64(after.comp.Checkpoints - before.comp.Checkpoints)
		v["compliance.vacuums"] = float64(after.comp.Vacuums - before.comp.Vacuums)
		v["compliance.recover_checkpoint_rows"] = float64(rec.stats.CheckpointRows)
		v["compliance.recover_replayed_records"] = float64(rec.stats.RecordsReplayed)
		v["compliance.recover_erase_redos"] = float64(rec.stats.ErasureRedos)
		hits := float64(after.pol.CacheHits - before.pol.CacheHits)
		misses := float64(after.pol.CacheMisses - before.pol.CacheMisses)
		v["policy.cache_hit_ratio"] = ratio(hits, hits+misses)
		v["policy.cache_invalidations"] = float64(after.pol.CacheInvalidations - before.pol.CacheInvalidations)
		v["policy.scanned_per_check"] = ratio(float64(after.pol.PoliciesScanned-before.pol.PoliciesScanned),
			float64(after.pol.Checks-before.pol.Checks))
		appends := float64(after.wal.Appends - before.wal.Appends)
		v["wal.appends_per_sync"] = ratio(appends, float64(after.wal.Syncs-before.wal.Syncs))
		v["storage.maintenance_runs"] = float64(after.store.MaintenanceRuns - before.store.MaintenanceRuns)
		v["storage.entries_reclaimed"] = float64(after.store.EntriesReclaimed - before.store.EntriesReclaimed)
		v["storage.purge_discharge_ratio"] = ratio(float64(after.store.PurgesDischarged-before.store.PurgesDischarged),
			float64(after.store.PurgesRegistered-before.store.PurgesRegistered))
		v["storage.bytes_per_live_byte"] = ratio(float64(after.engineTotal), float64(after.engineLive))
		v["audit.sync_share"] = 1 - ratio(float64(after.auditAsync-before.auditAsync), ops)
		v["erasure.records_per_erase"] = ratio(float64(erasedRecords), float64(erasures))
		v["runtime.alloc_bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops
		v["runtime.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
		v["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
		v["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
		v["stream.live_drift_frac"] = drift
		// Same op count on both sides (half the slices each), so the
		// throughput ratio is the inverse wall-time ratio.
		v["trace.overhead_frac"] = 1 - wallOff.Seconds()/wallOn.Seconds()
		spanMetrics(tr, v)
		if lag != nil {
			lag.report(v)
		}
		probes(sp, d, w, clients, appends/ops, v)
		if traceOut != "" {
			if err := writeTrace(traceOut, tr.all()); err != nil {
				return nil, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	finalForensics(d, clients, out)
	if traced {
		v["erasure.forensic_hits"] = float64(out.forensicHits)
		v["erasure.verify_ms"] = usQuantile(out.verifyNS, 0.5) / 1e3
	}
	return out, nil
}
