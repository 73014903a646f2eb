package loadgen

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/fanout"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/wire"
)

// This file is the network soak driver: the closed-loop GDPRBench
// replay of loadgen.Run, but issued by a fleet of wire clients through
// a subject-routing gateway to a set of datacase-server backends —
// end-to-end latency including framing, the TCP hop, gateway routing
// and the backend's compliance engine. By default the run self-hosts
// the whole topology on loopback; pointing GatewayAddr at an external
// deployment measures that instead.

// NetworkConfig sizes one network soak run.
type NetworkConfig struct {
	// Profile is the compliance grounding the self-hosted backends
	// deploy (PBase by default). Ignored when GatewayAddr is set.
	Profile compliance.Profile
	// Workload is the GDPRBench mix to replay.
	Workload gdprbench.WorkloadName
	// Records is the preloaded dataset size.
	Records int
	// Ops is the total operation count, split across connections.
	Ops int
	// Conns is the client-connection fleet size: each connection is one
	// closed-loop client with its own TCP connection to the gateway.
	Conns int
	// Servers is the backend server count of the self-hosted topology.
	Servers int
	// ShardsPerServer is each backend deployment's shard count.
	ShardsPerServer int
	// Seed makes the generated dataset and op stream deterministic.
	Seed int64
	// ScanLimit bounds read-by-meta scans (default 16, as the harness).
	ScanLimit int
	// GatewayAddr, when non-empty, targets an already-running gateway
	// (or server) instead of self-hosting; the run still preloads its
	// dataset through it.
	GatewayAddr string
	// Loaders is the preload connection count (default min(Conns, 32)).
	Loaders int
	// OpTimeout bounds each operation (default 30s): the client's
	// context deadline travels down the wire into the handler.
	OpTimeout time.Duration
}

// withDefaults fills zero fields.
func (c NetworkConfig) withDefaults() NetworkConfig {
	if c.Profile.Name == "" {
		c.Profile = compliance.PBase()
	}
	if c.Workload == "" {
		c.Workload = gdprbench.Controller
	}
	if c.Records <= 0 {
		c.Records = 2000
	}
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Conns <= 0 {
		c.Conns = 8
	}
	if c.Servers <= 0 {
		c.Servers = 2
	}
	if c.ShardsPerServer <= 0 {
		c.ShardsPerServer = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ScanLimit <= 0 {
		c.ScanLimit = 16
	}
	if c.Loaders <= 0 {
		c.Loaders = min(c.Conns, 32)
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 30 * time.Second
	}
	return c
}

// NetworkResult is the machine-readable outcome of one network soak
// run. Latencies are end-to-end (client-observed) microseconds; the
// JSON field names are the BENCH_network.json schema.
type NetworkResult struct {
	Workload        string  `json:"workload"`
	Profile         string  `json:"profile"`
	Servers         int     `json:"servers"`
	ShardsPerServer int     `json:"shards_per_server"`
	Conns           int     `json:"conns"`
	Records         int     `json:"records"`
	Ops             int     `json:"ops"`
	LoadSeconds     float64 `json:"load_seconds"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	MeanMicros      float64 `json:"mean_micros"`
	P50Micros       float64 `json:"p50_micros"`
	P95Micros       float64 `json:"p95_micros"`
	P99Micros       float64 `json:"p99_micros"`
	MaxMicros       float64 `json:"max_micros"`
	// Denied and NotFound count tolerated per-op refusals observed by
	// the clients (the sentinels survive the wire, so the tally is the
	// same one an in-process run would keep).
	Denied   uint64 `json:"denied"`
	NotFound uint64 `json:"not_found"`
	// SelfHosted marks runs that built their own loopback topology;
	// false means GatewayAddr pointed at an external deployment.
	SelfHosted bool `json:"self_hosted"`
}

// String renders one result row.
func (r NetworkResult) String() string {
	return fmt.Sprintf("%-5s %-8s servers=%d×%d conns=%-5d ops=%-7d %9.0f ops/s  "+
		"p50=%.1fµs p95=%.1fµs p99=%.1fµs",
		r.Workload, r.Profile, r.Servers, r.ShardsPerServer, r.Conns, r.Ops, r.OpsPerSec,
		r.P50Micros, r.P95Micros, r.P99Micros)
}

// Validate sanity-checks one result.
func (r NetworkResult) Validate() error {
	switch {
	case r.Ops <= 0:
		return fmt.Errorf("loadgen: network result has no ops")
	case r.OpsPerSec <= 0:
		return fmt.Errorf("loadgen: non-positive throughput %f", r.OpsPerSec)
	case r.ElapsedSeconds <= 0:
		return fmt.Errorf("loadgen: non-positive elapsed %f", r.ElapsedSeconds)
	case r.P50Micros > r.P95Micros || r.P95Micros > r.P99Micros || r.P99Micros > r.MaxMicros:
		return fmt.Errorf("loadgen: quantiles out of order: p50=%f p95=%f p99=%f max=%f",
			r.P50Micros, r.P95Micros, r.P99Micros, r.MaxMicros)
	case r.Conns <= 0:
		return fmt.Errorf("loadgen: bad fleet size conns=%d", r.Conns)
	case r.SelfHosted && (r.Servers <= 0 || r.ShardsPerServer <= 0):
		return fmt.Errorf("loadgen: bad topology servers=%d shards=%d", r.Servers, r.ShardsPerServer)
	}
	return nil
}

// selfHost builds the loopback topology: Servers wire servers over
// their own sharded deployments, behind one gateway. The returned
// cleanup drains everything.
func selfHost(cfg NetworkConfig) (addr string, cleanup func(), err error) {
	var servers []*wire.Server
	var backends []*api.Local
	var gw *wire.Gateway
	cleanup = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if gw != nil {
			gw.Shutdown(ctx)
		}
		for _, s := range servers {
			s.Shutdown(ctx)
		}
		for _, b := range backends {
			b.Close()
		}
	}
	var addrs []string
	for i := 0; i < cfg.Servers; i++ {
		db, err := compliance.OpenSharded(cfg.Profile, cfg.ShardsPerServer)
		if err != nil {
			cleanup()
			return "", nil, err
		}
		backend := api.NewLocal(db)
		backends = append(backends, backend)
		srv := wire.NewServer(backend)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			cleanup()
			return "", nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	gw, err = wire.NewGateway(1, addrs)
	if err != nil {
		cleanup()
		return "", nil, err
	}
	if err := gw.Listen("127.0.0.1:0"); err != nil {
		cleanup()
		return "", nil, err
	}
	return gw.Addr(), cleanup, nil
}

// RunNetwork executes one closed-loop network measurement: bring up
// (or target) the gateway topology, preload the dataset through it,
// then let Conns wire clients — one TCP connection each — replay
// contiguous slices of the seeded op stream back-to-back, timing every
// round trip into the shared histogram.
func RunNetwork(cfg NetworkConfig) (NetworkResult, error) {
	cfg = cfg.withDefaults()
	addr := cfg.GatewayAddr
	selfHosted := addr == ""
	if selfHosted {
		var cleanup func()
		var err error
		addr, cleanup, err = selfHost(cfg)
		if err != nil {
			return NetworkResult{}, fmt.Errorf("loadgen: self-host: %w", err)
		}
		defer cleanup()
	}

	gen, err := gdprbench.NewGenerator(cfg.Workload, cfg.Records, cfg.Seed)
	if err != nil {
		return NetworkResult{}, err
	}
	load := gen.Load(1<<40, 1<<41) // retention far away: not what we measure
	loadStart := time.Now()
	chunk := (len(load) + cfg.Loaders - 1) / cfg.Loaders
	err = fanout.Run(cfg.Loaders, cfg.Loaders, func(c int) error {
		client, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		defer client.Close()
		ctx := context.Background()
		lo := min(c*chunk, len(load))
		hi := min(lo+chunk, len(load))
		for _, rec := range load[lo:hi] {
			if _, err := client.Create(ctx, api.CreateRequest{Record: rec}); err != nil &&
				!errors.Is(err, compliance.ErrExists) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return NetworkResult{}, fmt.Errorf("loadgen: network load: %w", err)
	}
	loadTime := time.Since(loadStart)

	opGen, err := gdprbench.NewGenerator(cfg.Workload, cfg.Records, cfg.Seed+7)
	if err != nil {
		return NetworkResult{}, err
	}
	ops := opGen.Ops(cfg.Ops)
	entity, purpose := ActorFor(cfg.Workload)

	hist := &Histogram{}
	var denied, notFound atomic.Uint64
	opChunk := (len(ops) + cfg.Conns - 1) / cfg.Conns
	start := time.Now()
	err = fanout.Run(cfg.Conns, cfg.Conns, func(c int) error {
		client, err := wire.Dial(addr)
		if err != nil {
			return err
		}
		defer client.Close()
		lo := min(c*opChunk, len(ops))
		hi := min(lo+opChunk, len(ops))
		for i := lo; i < hi; i++ {
			op := ops[i]
			opStart := time.Now()
			err := applyNetOp(client, op, entity, purpose, cfg.ScanLimit, cfg.OpTimeout)
			hist.RecordDuration(time.Since(opStart))
			switch {
			case err == nil:
			case errors.Is(err, compliance.ErrDenied):
				denied.Add(1)
			case errors.Is(err, compliance.ErrNotFound):
				notFound.Add(1)
			case errors.Is(err, compliance.ErrExists):
				// recycled key re-created by a racing connection
			default:
				return fmt.Errorf("loadgen: network op %v on %q: %w", op.Kind, op.Key, err)
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	if err != nil {
		return NetworkResult{}, err
	}

	res := NetworkResult{
		Workload:        string(cfg.Workload),
		Profile:         cfg.Profile.Name,
		Servers:         cfg.Servers,
		ShardsPerServer: cfg.ShardsPerServer,
		Conns:           cfg.Conns,
		Records:         cfg.Records,
		Ops:             cfg.Ops,
		LoadSeconds:     loadTime.Seconds(),
		ElapsedSeconds:  elapsed.Seconds(),
		MeanMicros:      hist.Mean() / 1e3,
		P50Micros:       float64(hist.Quantile(0.50)) / 1e3,
		P95Micros:       float64(hist.Quantile(0.95)) / 1e3,
		P99Micros:       float64(hist.Quantile(0.99)) / 1e3,
		MaxMicros:       float64(hist.Max()) / 1e3,
		Denied:          denied.Load(),
		NotFound:        notFound.Load(),
		SelfHosted:      selfHosted,
	}
	if !selfHosted {
		res.Servers, res.ShardsPerServer = 0, 0
		res.Profile = "external"
	}
	if s := elapsed.Seconds(); s > 0 {
		res.OpsPerSec = float64(cfg.Ops) / s
	}
	return res, nil
}

// applyNetOp executes one generated operation through a wire client.
func applyNetOp(client *wire.RemoteClient, op gdprbench.Op, entity core.EntityID,
	purpose core.Purpose, scanLimit int, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	switch op.Kind {
	case gdprbench.OpCreate:
		_, err := client.Create(ctx, api.CreateRequest{Record: gdprbench.Record{
			Key:        op.Key,
			Subject:    SubjectForKey(op.Key),
			Payload:    op.Payload,
			Purposes:   []string{op.Purpose},
			TTL:        1 << 40,
			Processors: []string{"processor-a"},
		}})
		return err
	case gdprbench.OpReadData:
		_, err := client.ReadData(ctx, api.ReadDataRequest{Key: op.Key, Entity: entity, Purpose: purpose})
		return err
	case gdprbench.OpUpdateData:
		_, err := client.UpdateData(ctx, api.UpdateDataRequest{
			Key: op.Key, Entity: entity, Purpose: purpose, Payload: op.Payload,
		})
		return err
	case gdprbench.OpDeleteData:
		_, err := client.DeleteData(ctx, api.DeleteDataRequest{Key: op.Key, Entity: entity})
		return err
	case gdprbench.OpReadMeta:
		_, err := client.ReadMeta(ctx, api.ReadMetaRequest{Key: op.Key, Entity: entity, Purpose: purpose})
		return err
	case gdprbench.OpUpdateMeta:
		_, err := client.UpdateMeta(ctx, api.UpdateMetaRequest{
			Key: op.Key, Entity: entity, Purpose: purpose,
			NewPurpose: op.Purpose, NewTTL: op.NewTTL,
		})
		return err
	case gdprbench.OpReadByMeta:
		_, err := client.ReadByMeta(ctx, api.ReadByMetaRequest{
			Entity: entity, Purpose: purpose, MetaPurpose: op.Purpose, Limit: scanLimit,
		})
		return err
	default:
		return fmt.Errorf("loadgen: unknown op kind %v", op.Kind)
	}
}

// NetworkSweep runs the soak at each connection count, reusing one
// configuration otherwise.
func NetworkSweep(cfg NetworkConfig, connCounts []int) ([]NetworkResult, error) {
	results := make([]NetworkResult, 0, len(connCounts))
	for _, conns := range connCounts {
		cfg.Conns = conns
		res, err := RunNetwork(cfg)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}
