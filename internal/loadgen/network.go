package loadgen

import (
	"context"
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/wire"
)

// This file is the network soak: Run's Prepare and Drive, dialed over
// the wire instead of in-process — a fleet of wire clients through a
// subject-routing gateway to a set of datacase-server backends, so the
// latency is end to end: framing, the TCP hop, gateway routing and the
// backend's compliance engine. By default the run self-hosts the whole
// topology on loopback; pointing GatewayAddr at an external deployment
// measures that instead.

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
	// GatewayAddr, when non-empty, targets an already-running gateway
	// (or server) instead of self-hosting; the run still preloads its
	// dataset through it.
	GatewayAddr string
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
	return c
}

// NetworkResult is one BENCH_network.json row: the measured fields
// plus the wire topology they were measured through.
type NetworkResult struct {
	Measured
	Servers         int `json:"servers"`
	ShardsPerServer int `json:"shards_per_server"`
	Conns           int `json:"conns"`
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

// Validate is Measured.Validate plus the row's own topology.
func (r NetworkResult) Validate() error {
	switch {
	case r.Conns <= 0:
		return fmt.Errorf("loadgen: bad fleet size conns=%d", r.Conns)
	case r.SelfHosted && (r.Servers <= 0 || r.ShardsPerServer <= 0):
		return fmt.Errorf("loadgen: bad topology servers=%d shards=%d", r.Servers, r.ShardsPerServer)
	}
	return r.Measured.Validate()
}

// selfHost builds the loopback topology: Servers wire servers over
// their own sharded deployments (the returned backends), behind one
// gateway. The returned cleanup drains everything.
func selfHost(cfg NetworkConfig) (addr string, backends []*api.Local, cleanup func(), err error) {
	var servers []*wire.Server
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
			return "", nil, nil, err
		}
		backend := api.NewLocal(db)
		backends = append(backends, backend)
		srv := wire.NewServer(backend)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			cleanup()
			return "", nil, nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	gw, err = wire.NewGateway(1, addrs)
	if err != nil {
		cleanup()
		return "", nil, nil, err
	}
	if err := gw.Listen("127.0.0.1:0"); err != nil {
		cleanup()
		return "", nil, nil, err
	}
	return gw.Addr(), backends, cleanup, nil
}

// RunNetwork executes one network measurement: bring up (or target)
// the gateway topology, then Prepare and Drive it through Conns wire
// clients, one TCP connection each.
func RunNetwork(cfg NetworkConfig) (NetworkResult, error) {
	cfg = cfg.withDefaults()
	addr := cfg.GatewayAddr
	selfHosted := addr == ""
	if selfHosted {
		var cleanup func()
		var err error
		addr, _, cleanup, err = selfHost(cfg)
		if err != nil {
			return NetworkResult{}, fmt.Errorf("loadgen: self-host: %w", err)
		}
		defer cleanup()
	}
	ctx, dial := context.TODO(), Wire(addr)
	ops, loadTime, err := Prepare(ctx, dial, cfg.Workload, cfg.Records, cfg.Ops, cfg.Conns, cfg.Seed)
	if err != nil {
		return NetworkResult{}, err
	}
	m, err := Drive(ctx, dial, cfg.Conns, ops, ActorFor(cfg.Workload))
	if err != nil {
		return NetworkResult{}, err
	}
	m.Workload, m.Profile, m.Records = string(cfg.Workload), cfg.Profile.Name, cfg.Records
	m.LoadSeconds = loadTime.Seconds()
	res := NetworkResult{Measured: m, Conns: cfg.Conns, SelfHosted: selfHosted}
	if selfHosted {
		res.Servers, res.ShardsPerServer = cfg.Servers, cfg.ShardsPerServer
	} else {
		res.Profile = "external"
	}
	return res, nil
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
