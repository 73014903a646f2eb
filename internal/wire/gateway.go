package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
)

// Router places requests across N wire servers by data subject, using
// the engine's own FNV placement (compliance.SubjectShard) over an
// epoch-versioned topology — the network-level twin of the
// subject→shard directory inside a ShardedDB. It implements
// api.Client, so a Gateway is just a Server hosting a Router.
//
// Placement is subject-sticky: a subject's first Create pins it to a
// backend in the directory, every later record of the subject follows,
// and keyed requests route through a key directory learned from the
// Creates that made the keys. A topology flip (UpdateTopology with a
// higher epoch) changes where NEW subjects hash, atomically for all
// in-progress traffic, while pinned subjects keep their home — so the
// erasure invariant survives the flip: all of a subject's records live
// on one backend, and EraseSubject routed there leaves zero readable
// records through any connection. Keys the directory has forgotten
// (a gateway restart) are found by probing the backends in topology
// order; a probe that comes back not-found everywhere is a not-found.
type Router struct {
	topo atomic.Pointer[topology]

	mu sync.RWMutex
	// subjects pins a data subject to the backend its records live on;
	// keys pins each record key to the backend that created it.
	subjects map[string]string
	keys     map[string]keyPin
	// subjectKeys indexes the key pins by the subject whose Create made
	// them, so an erased subject's key pins leave with its subject pin
	// instead of outliving it (and routing a re-created key to the old
	// placement).
	subjectKeys map[string]map[string]struct{}
	// pools caches connections per backend address across topologies;
	// UpdateTopology retires pools no topology entry or pin routes to.
	pools map[string]*clientPool
}

// keyPin is one key-directory entry: the backend holding the key, and
// the subject that created it (empty for probe-learned pins, whose
// subject the router never saw).
type keyPin struct {
	addr    string
	subject string
}

// topology is one immutable epoch of the server set.
type topology struct {
	epoch uint64
	addrs []string
}

// NewRouter builds a router over the initial server set.
func NewRouter(epoch uint64, addrs []string) (*Router, error) {
	if len(addrs) == 0 {
		return nil, errors.New("wire: router needs at least one backend address")
	}
	r := &Router{
		subjects:    make(map[string]string),
		keys:        make(map[string]keyPin),
		subjectKeys: make(map[string]map[string]struct{}),
		pools:       make(map[string]*clientPool),
	}
	r.topo.Store(&topology{epoch: epoch, addrs: append([]string(nil), addrs...)})
	return r, nil
}

// Epoch returns the current topology epoch.
func (r *Router) Epoch() uint64 { return r.topo.Load().epoch }

// Addrs returns the current backend addresses.
func (r *Router) Addrs() []string {
	return append([]string(nil), r.topo.Load().addrs...)
}

// UpdateTopology installs a new server set if epoch is newer than the
// current one, and reports whether the flip happened. Requests already
// routed finish against the old set; every request admitted after the
// flip sees the new one. Subject and key pins survive the flip — data
// does not move when the topology does.
func (r *Router) UpdateTopology(epoch uint64, addrs []string) (bool, error) {
	if len(addrs) == 0 {
		return false, errors.New("wire: topology needs at least one backend address")
	}
	next := &topology{epoch: epoch, addrs: append([]string(nil), addrs...)}
	for {
		cur := r.topo.Load()
		if epoch <= cur.epoch {
			return false, nil
		}
		if r.topo.CompareAndSwap(cur, next) {
			r.retirePools()
			return true, nil
		}
	}
}

// retirePools closes and drops connection pools for backend addresses
// the flip retired: addresses in no live topology entry and no pin.
// Without this, sockets to dead backends would linger for the life of
// the gateway. (A request that resolved its address before the flip may
// transiently re-create a pool; the next flip retires it again.)
func (r *Router) retirePools() {
	live := make(map[string]bool)
	for _, a := range r.topo.Load().addrs {
		live[a] = true
	}
	r.mu.Lock()
	for _, a := range r.subjects {
		live[a] = true
	}
	for _, p := range r.keys {
		live[p.addr] = true
	}
	for addr, p := range r.pools {
		if !live[addr] {
			p.closeAll()
			delete(r.pools, addr)
		}
	}
	r.mu.Unlock()
}

// NumPools reports how many backend connection pools are live (tests
// assert retired addresses are actually dropped).
func (r *Router) NumPools() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.pools)
}

// subjectAddr resolves a subject's backend: its pin, or the FNV
// placement over the current topology.
func (r *Router) subjectAddr(subject string) string {
	r.mu.RLock()
	addr, ok := r.subjects[subject]
	r.mu.RUnlock()
	if ok {
		return addr
	}
	t := r.topo.Load()
	return t.addrs[compliance.SubjectShard(subject, len(t.addrs))]
}

// pin records a subject's (and optionally a key's) home backend. A key
// pinned with its subject is indexed under it, so unpinSubject can
// clear the subject's whole key set.
func (r *Router) pin(subject, key, addr string) {
	r.mu.Lock()
	if subject != "" {
		r.subjects[subject] = addr
	}
	if key != "" {
		r.keys[key] = keyPin{addr: addr, subject: subject}
		if subject != "" {
			ks := r.subjectKeys[subject]
			if ks == nil {
				ks = make(map[string]struct{})
				r.subjectKeys[subject] = ks
			}
			ks[key] = struct{}{}
		}
	}
	r.mu.Unlock()
}

// unpinSubject forgets an erased subject and every key pin its Creates
// made (a re-created subject — or key — hashes freshly over the
// then-current topology; a surviving key pin would both leak and route
// the re-created key to the stale placement).
func (r *Router) unpinSubject(subject string) {
	r.mu.Lock()
	delete(r.subjects, subject)
	for key := range r.subjectKeys[subject] {
		delete(r.keys, key)
	}
	delete(r.subjectKeys, subject)
	r.mu.Unlock()
}

// unpinKey forgets a deleted (or misrouted-and-absent) key, including
// its slot in the subject's key index.
func (r *Router) unpinKey(key string) {
	r.mu.Lock()
	if p, ok := r.keys[key]; ok {
		delete(r.keys, key)
		if ks := r.subjectKeys[p.subject]; ks != nil {
			delete(ks, key)
			if len(ks) == 0 {
				delete(r.subjectKeys, p.subject)
			}
		}
	}
	r.mu.Unlock()
}

// pool returns the connection pool for a backend address.
func (r *Router) pool(addr string) *clientPool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.pools[addr]
	if !ok {
		p = &clientPool{addr: addr}
		r.pools[addr] = p
	}
	return p
}

// withBackend borrows a connection to addr and runs one call on it.
func withBackend[T any](r *Router, addr string, f func(c *RemoteClient) (T, error)) (T, error) {
	var zero T
	p := r.pool(addr)
	c, err := p.get()
	if err != nil {
		return zero, err
	}
	out, err := f(c)
	p.put(c)
	return out, err
}

// Create routes by the record's data subject and pins subject and key
// on success.
func (r *Router) Create(ctx context.Context, req api.CreateRequest) (api.CreateResponse, error) {
	addr := r.subjectAddr(req.Record.Subject)
	resp, err := withBackend(r, addr, func(c *RemoteClient) (api.CreateResponse, error) {
		return c.Create(ctx, req)
	})
	if err == nil {
		r.pin(req.Record.Subject, req.Record.Key, addr)
	}
	return resp, err
}

// CreateBatch bins the records by their subjects' home backends and
// sends each bin as one sub-batch, so a backend admits its share under
// one shard-lock acquisition per shard instead of one per record.
// Bins preserve the records' relative order and commit independently:
// on a sub-batch failure the records already created on other backends
// remain, the count reflects them, and the first error is returned.
// Subjects and keys pin exactly as for Create. A failed sub-batch may
// still have committed some of its shard bins before the failure (the
// error frame hides the partial count), so its subjects — though not
// its keys — are pinned anyway: pinning a subject to the backend its
// hash chose is always sound, and it keeps any committed records
// reachable, while an uncommitted key pin would turn later probes into
// false authoritative not-founds.
func (r *Router) CreateBatch(ctx context.Context, req api.CreateBatchRequest) (api.CreateBatchResponse, error) {
	type bin struct {
		addr string
		recs []gdprbench.Record
	}
	var order []string
	bins := make(map[string]*bin)
	for _, rec := range req.Records {
		addr := r.subjectAddr(rec.Subject)
		b, ok := bins[addr]
		if !ok {
			b = &bin{addr: addr}
			bins[addr] = b
			order = append(order, addr)
		}
		b.recs = append(b.recs, rec)
	}
	created := 0
	for _, addr := range order {
		b := bins[addr]
		if err := ctx.Err(); err != nil {
			return api.CreateBatchResponse{Created: created}, err
		}
		resp, err := withBackend(r, addr, func(c *RemoteClient) (api.CreateBatchResponse, error) {
			return c.CreateBatch(ctx, api.CreateBatchRequest{Records: b.recs})
		})
		created += resp.Created
		if err != nil {
			for _, rec := range b.recs {
				r.pin(rec.Subject, "", addr)
			}
			return api.CreateBatchResponse{Created: created}, err
		}
		for _, rec := range b.recs {
			r.pin(rec.Subject, rec.Key, addr)
		}
	}
	return api.CreateBatchResponse{Created: created}, nil
}

// keyed routes a keyed request: directory hit first, then a probe of
// every backend in topology order. Not-found on the pinned backend
// means the record is gone (a key lives on exactly one backend), so
// the pin is dropped and the not-found returned.
func keyed[T any](r *Router, key string, f func(c *RemoteClient) (T, error)) (T, error) {
	var zero T
	r.mu.RLock()
	p, ok := r.keys[key]
	r.mu.RUnlock()
	if ok {
		out, err := withBackend(r, p.addr, f)
		if err != nil && errors.Is(err, compliance.ErrNotFound) {
			r.unpinKey(key)
		}
		return out, err
	}
	var lastNotFound error
	for _, addr := range r.topo.Load().addrs {
		out, err := withBackend(r, addr, f)
		switch {
		case err == nil:
			r.pin("", key, addr)
			return out, nil
		case errors.Is(err, compliance.ErrNotFound):
			lastNotFound = err
		default:
			// A real (non-transport) answer ends the probe, but only an
			// answer that proves ownership may pin: success (above) or
			// exists — which only the backend holding the key can say. A
			// denial proves nothing about placement (a backend hosting a
			// *different* subject's record under policy answers ErrDenied
			// too), and pinning on it would route the key wrong forever.
			if errors.Is(err, compliance.ErrExists) {
				r.pin("", key, addr)
			}
			return zero, err
		}
	}
	if lastNotFound == nil {
		lastNotFound = fmt.Errorf("%w: %s", compliance.ErrNotFound, key)
	}
	return zero, lastNotFound
}

// ReadData routes by key.
func (r *Router) ReadData(ctx context.Context, req api.ReadDataRequest) (api.ReadDataResponse, error) {
	return keyed(r, req.Key, func(c *RemoteClient) (api.ReadDataResponse, error) {
		return c.ReadData(ctx, req)
	})
}

// UpdateData routes by key.
func (r *Router) UpdateData(ctx context.Context, req api.UpdateDataRequest) (api.UpdateDataResponse, error) {
	return keyed(r, req.Key, func(c *RemoteClient) (api.UpdateDataResponse, error) {
		return c.UpdateData(ctx, req)
	})
}

// DeleteData routes by key and drops the pin on success.
func (r *Router) DeleteData(ctx context.Context, req api.DeleteDataRequest) (api.DeleteDataResponse, error) {
	resp, err := keyed(r, req.Key, func(c *RemoteClient) (api.DeleteDataResponse, error) {
		return c.DeleteData(ctx, req)
	})
	if err == nil {
		r.unpinKey(req.Key)
	}
	return resp, err
}

// ReadMeta routes by key.
func (r *Router) ReadMeta(ctx context.Context, req api.ReadMetaRequest) (api.ReadMetaResponse, error) {
	return keyed(r, req.Key, func(c *RemoteClient) (api.ReadMetaResponse, error) {
		return c.ReadMeta(ctx, req)
	})
}

// UpdateMeta routes by key.
func (r *Router) UpdateMeta(ctx context.Context, req api.UpdateMetaRequest) (api.UpdateMetaResponse, error) {
	return keyed(r, req.Key, func(c *RemoteClient) (api.UpdateMetaResponse, error) {
		return c.UpdateMeta(ctx, req)
	})
}

// Revoke routes by key. When it returns, the backend holding the
// record has committed the revocation: no later request under the
// revoked pair is allowed through any connection, gateway included.
func (r *Router) Revoke(ctx context.Context, req api.RevokeRequest) (api.RevokeResponse, error) {
	return keyed(r, req.Key, func(c *RemoteClient) (api.RevokeResponse, error) {
		return c.Revoke(ctx, req)
	})
}

// ReadByMeta fans out across the backends with one shared budget,
// honoring cancellation between steps (the network twin of the
// in-process adapter's shard walk).
func (r *Router) ReadByMeta(ctx context.Context, req api.ReadByMetaRequest) (api.ReadByMetaResponse, error) {
	total := 0
	remaining := req.Limit
	for _, addr := range r.topo.Load().addrs {
		if remaining <= 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return api.ReadByMetaResponse{Matched: total}, err
		}
		sub := req
		sub.Limit = remaining
		resp, err := withBackend(r, addr, func(c *RemoteClient) (api.ReadByMetaResponse, error) {
			return c.ReadByMeta(ctx, sub)
		})
		if err != nil {
			return api.ReadByMetaResponse{Matched: total}, err
		}
		total += resp.Matched
		remaining -= resp.Matched
	}
	return api.ReadByMetaResponse{Matched: total}, nil
}

// SubjectAccess routes to the subject's home backend.
func (r *Router) SubjectAccess(ctx context.Context, req api.SubjectAccessRequest) (api.SubjectAccessResponse, error) {
	return withBackend(r, r.subjectAddr(req.Subject), func(c *RemoteClient) (api.SubjectAccessResponse, error) {
		return c.SubjectAccess(ctx, req)
	})
}

// EraseSubject routes to the subject's home backend — where every one
// of its records lives, by the subject-sticky placement — and forgets
// the subject's pin on success. An acknowledged erase leaves zero
// readable records through any connection.
func (r *Router) EraseSubject(ctx context.Context, req api.EraseSubjectRequest) (api.EraseSubjectResponse, error) {
	addr := r.subjectAddr(req.Subject)
	resp, err := withBackend(r, addr, func(c *RemoteClient) (api.EraseSubjectResponse, error) {
		return c.EraseSubject(ctx, req)
	})
	if err == nil {
		r.unpinSubject(req.Subject)
	}
	return resp, err
}

// Audit fans out to every backend and merges the summaries (latest
// clock wins, violations concatenate), honoring cancellation between
// backends.
func (r *Router) Audit(ctx context.Context, req api.AuditRequest) (api.AuditResponse, error) {
	var merged api.AuditResponse
	for i, addr := range r.topo.Load().addrs {
		if err := ctx.Err(); err != nil {
			return merged, err
		}
		resp, err := withBackend(r, addr, func(c *RemoteClient) (api.AuditResponse, error) {
			return c.Audit(ctx, req)
		})
		if err != nil {
			return merged, err
		}
		if i == 0 {
			merged.Profile = resp.Profile
			merged.Checked = resp.Checked
		}
		if resp.Now > merged.Now {
			merged.Now = resp.Now
		}
		merged.Violations = append(merged.Violations, resp.Violations...)
	}
	return merged, nil
}

// Close releases every pooled backend connection.
func (r *Router) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.pools {
		p.closeAll()
	}
	return nil
}

// Compile-time conformance.
var _ api.Client = (*Router)(nil)

// clientPool keeps idle wire connections to one backend. A connection
// poisoned mid-request redials itself on next use, so returns are
// unconditional.
type clientPool struct {
	addr string
	mu   sync.Mutex
	idle []*RemoteClient
}

func (p *clientPool) get() (*RemoteClient, error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return Dial(p.addr)
}

func (p *clientPool) put(c *RemoteClient) {
	p.mu.Lock()
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

func (p *clientPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
}

// Gateway is a wire Server hosting a Router: clients speak the same
// protocol to the gateway as to a server, and the gateway places each
// request on the backend that owns its data subject.
type Gateway struct {
	*Server
	Router *Router
}

// NewGateway builds a gateway over the initial backend set.
func NewGateway(epoch uint64, addrs []string) (*Gateway, error) {
	r, err := NewRouter(epoch, addrs)
	if err != nil {
		return nil, err
	}
	return &Gateway{Server: NewServer(r), Router: r}, nil
}

// Shutdown drains the serving side, then releases the backend pools.
func (g *Gateway) Shutdown(ctx context.Context) error {
	err := g.Server.Shutdown(ctx)
	g.Router.Close()
	return err
}
