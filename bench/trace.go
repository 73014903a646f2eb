package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacase/datacase/internal/api"
)

// layer names a span boundary, outermost first. A request's span at
// layer L is caused by its span at layer L-1.
type layer uint8

const (
	// layerClient wraps the client the workload calls: RemoteClient on
	// the wire workload, api.Local elsewhere.
	layerClient layer = iota
	// layerGateway wraps the Router the gateway's Server hosts.
	layerGateway
	// layerBackend wraps the api.Local each backend Server hosts.
	layerBackend
	numLayers
)

var layerNames = [numLayers]string{"client", "wire.gateway", "wire.server"}

// span is one timed call at a layer boundary. Spans of one request
// share req; parent is the request's span one layer out (layers are
// strictly nested in this stack, so the parent needs no separate id).
type span struct {
	req        uint64
	start, end int64 // ns since the tracer's epoch
	layer      layer
	kind       opKind
}

// tracer records spans from api.Client decorators. It never touches the
// program under test: every decorator lives between two of its public
// seams. Each client has one request in flight, so "the request client
// c is running" is a single word the outer decorator publishes and the
// inner ones read; the name inside the request says which client.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	cur   [nClients]atomic.Uint64
	seq   [nClients]uint64 // touched only by client c's goroutine
	bufs  [numLayers][nClients]spanBuf
}

type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func newTracer(perClient int) *tracer {
	t := &tracer{epoch: time.Now()}
	for l := range t.bufs {
		for c := range t.bufs[l] {
			t.bufs[l][c].spans = make([]span, 0, perClient)
		}
	}
	return t
}

func (t *tracer) add(l layer, c int, s span) {
	b := &t.bufs[l][c]
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// all returns every recorded span.
func (t *tracer) all() []span {
	var out []span
	for l := range t.bufs {
		for c := range t.bufs[l] {
			out = append(out, t.bufs[l][c].spans...)
		}
	}
	return out
}

// traced decorates inner with span recording at layer l. owner is the
// client index for layerClient decorators (one per client) and ignored
// deeper in, where it is derived from each request.
func (t *tracer) traced(l layer, owner int, inner api.Client) api.Client {
	return &tracedClient{t: t, l: l, owner: owner, inner: inner}
}

type tracedClient struct {
	t     *tracer
	l     layer
	owner int
	inner api.Client
}

// call times one inner call. name is any subject or key the request
// carries.
func call[Req, Resp any](tc *tracedClient, kind opKind, name string,
	f func(context.Context, Req) (Resp, error), ctx context.Context, req Req) (Resp, error) {
	t := tc.t
	if !t.on.Load() {
		return f(ctx, req)
	}
	c := tc.owner
	var id uint64
	if tc.l == layerClient {
		t.seq[c]++
		id = uint64(c)<<32 | t.seq[c]
		t.cur[c].Store(id)
	} else {
		c = ownerOf(name)
		id = t.cur[c].Load()
	}
	start := time.Since(t.epoch)
	resp, err := f(ctx, req)
	t.add(tc.l, c, span{req: id, start: int64(start), end: int64(time.Since(t.epoch)), layer: tc.l, kind: kind})
	return resp, err
}

func (tc *tracedClient) Create(ctx context.Context, r api.CreateRequest) (api.CreateResponse, error) {
	return call(tc, kCreate, r.Record.Key, tc.inner.Create, ctx, r)
}

func (tc *tracedClient) CreateBatch(ctx context.Context, r api.CreateBatchRequest) (api.CreateBatchResponse, error) {
	name := ""
	if len(r.Records) > 0 {
		name = r.Records[0].Key
	}
	return call(tc, kCreateBatch, name, tc.inner.CreateBatch, ctx, r)
}

func (tc *tracedClient) ReadData(ctx context.Context, r api.ReadDataRequest) (api.ReadDataResponse, error) {
	return call(tc, kReadData, r.Key, tc.inner.ReadData, ctx, r)
}

func (tc *tracedClient) UpdateData(ctx context.Context, r api.UpdateDataRequest) (api.UpdateDataResponse, error) {
	return call(tc, kUpdateData, r.Key, tc.inner.UpdateData, ctx, r)
}

func (tc *tracedClient) DeleteData(ctx context.Context, r api.DeleteDataRequest) (api.DeleteDataResponse, error) {
	return call(tc, kDelete, r.Key, tc.inner.DeleteData, ctx, r)
}

func (tc *tracedClient) ReadMeta(ctx context.Context, r api.ReadMetaRequest) (api.ReadMetaResponse, error) {
	return call(tc, kReadMeta, r.Key, tc.inner.ReadMeta, ctx, r)
}

func (tc *tracedClient) UpdateMeta(ctx context.Context, r api.UpdateMetaRequest) (api.UpdateMetaResponse, error) {
	return call(tc, kUpdateMeta, r.Key, tc.inner.UpdateMeta, ctx, r)
}

func (tc *tracedClient) SubjectAccess(ctx context.Context, r api.SubjectAccessRequest) (api.SubjectAccessResponse, error) {
	return call(tc, kSubjectAccess, r.Subject, tc.inner.SubjectAccess, ctx, r)
}

func (tc *tracedClient) EraseSubject(ctx context.Context, r api.EraseSubjectRequest) (api.EraseSubjectResponse, error) {
	return call(tc, kErase, r.Subject, tc.inner.EraseSubject, ctx, r)
}

func (tc *tracedClient) Revoke(ctx context.Context, r api.RevokeRequest) (api.RevokeResponse, error) {
	return call(tc, kRevoke, r.Key, tc.inner.Revoke, ctx, r)
}

// ReadByMeta and Audit are not part of any workload; they pass through
// untimed.
func (tc *tracedClient) ReadByMeta(ctx context.Context, r api.ReadByMetaRequest) (api.ReadByMetaResponse, error) {
	return tc.inner.ReadByMeta(ctx, r)
}

func (tc *tracedClient) Audit(ctx context.Context, r api.AuditRequest) (api.AuditResponse, error) {
	return tc.inner.Audit(ctx, r)
}

func (tc *tracedClient) Close() error { return tc.inner.Close() }

// selfTimes returns, for every span, its duration minus the part of its
// interval that child spans cover: children are the spans of the same
// request one layer in; overlapping children are counted once, children
// reaching outside the parent are clipped to it, and a span with no
// recorded child keeps its whole duration. The result is index-aligned
// with spans, which it reorders by (request, layer, start).
func selfTimes(spans []span) []int64 {
	sort.Slice(spans, func(a, b int) bool {
		x, y := spans[a], spans[b]
		if x.req != y.req {
			return x.req < y.req
		}
		if x.layer != y.layer {
			return x.layer < y.layer
		}
		return x.start < y.start
	})
	self := make([]int64, len(spans))
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		for i := lo; i < hi; i++ {
			p := spans[i]
			covered, edge := int64(0), p.start
			// Children sort after their parent's layer, by start.
			for j := i + 1; j < hi; j++ {
				ch := spans[j]
				if ch.layer != p.layer+1 {
					continue
				}
				s, e := max(ch.start, edge), min(ch.end, p.end)
				if e > s {
					covered += e - s
					edge = e
				}
			}
			self[i] = p.end - p.start - covered
		}
		lo = hi
	}
	return self
}

// writeTrace dumps the spans as JSON lines: name, op, request id,
// parent (the layer one out, same request; empty at the client), start
// and end in ns since the tracer's epoch.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		parent := ""
		if s.layer > 0 {
			parent = layerNames[s.layer-1]
		}
		err := enc.Encode(struct {
			Name    string `json:"name"`
			Op      string `json:"op"`
			Request uint64 `json:"request"`
			Parent  string `json:"parent"`
			StartNS int64  `json:"start_ns"`
			EndNS   int64  `json:"end_ns"`
		}{layerNames[s.layer], s.kind.String(), s.req, parent, s.start, s.end})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
