package loadgen

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/fanout"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/wire"
)

// This file is the one driver every experiment shares: one applier that
// turns a generated operation into an api.Client call (Apply), one
// preload (Preload/Prepare) and one closed-loop timing core (Drive).
// They see a deployment only through the transport-neutral api.Client a
// Dial hands them, so an in-process run and a run across the wire
// execute the same code and tally the same client-observed outcomes.

const (
	// scanLimit bounds how many rows a read-by-meta query touches (the
	// paper's metadata reads return one subject's records, not the
	// table).
	scanLimit = 16
	// opTimeout bounds each measured operation: the client's context
	// deadline travels down the wire into the handler.
	opTimeout = 30 * time.Second
	// maxLoaders caps the preload's client count; a wider connection
	// fleet loads no faster and only delays the measured phase.
	maxLoaders = 32
)

// Actor is the entity and purpose a replayed operation runs as.
type Actor struct {
	Entity  core.EntityID
	Purpose core.Purpose
}

// ActorFor maps a workload to the actor its operations run as,
// mirroring the paper's controller/processor/customer roles.
func ActorFor(w gdprbench.WorkloadName) Actor {
	switch w {
	case gdprbench.Processor:
		return Actor{compliance.EntityProcessor, compliance.PurposeProcessing}
	case gdprbench.Controller:
		return Actor{compliance.EntityController, compliance.PurposeService}
	default: // Customer
		return Actor{compliance.EntitySubjectSvc, compliance.PurposeSubjectAccess}
	}
}

// SubjectForKey derives a deterministic, well-spread data subject for
// driver creates, so created records spread over shards instead of
// pinning to one subject's home shard.
func SubjectForKey(key string) string {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return fmt.Sprintf("person-%05d", h.Sum32()%100000)
}

// Apply executes one generated operation through a client.
func Apply(ctx context.Context, c api.Client, op gdprbench.Op, a Actor) error {
	var err error
	switch op.Kind {
	case gdprbench.OpCreate:
		_, err = c.Create(ctx, api.CreateRequest{Record: gdprbench.Record{
			Key:        op.Key,
			Subject:    SubjectForKey(op.Key),
			Payload:    op.Payload,
			Purposes:   []string{op.Purpose},
			TTL:        1 << 40,
			Processors: []string{"processor-a"},
		}})
	case gdprbench.OpReadData:
		_, err = c.ReadData(ctx, api.ReadDataRequest{Key: op.Key, Entity: a.Entity, Purpose: a.Purpose})
	case gdprbench.OpUpdateData:
		_, err = c.UpdateData(ctx, api.UpdateDataRequest{
			Key: op.Key, Entity: a.Entity, Purpose: a.Purpose, Payload: op.Payload,
		})
	case gdprbench.OpDeleteData:
		_, err = c.DeleteData(ctx, api.DeleteDataRequest{Key: op.Key, Entity: a.Entity})
	case gdprbench.OpReadMeta:
		_, err = c.ReadMeta(ctx, api.ReadMetaRequest{Key: op.Key, Entity: a.Entity, Purpose: a.Purpose})
	case gdprbench.OpUpdateMeta:
		_, err = c.UpdateMeta(ctx, api.UpdateMetaRequest{
			Key: op.Key, Entity: a.Entity, Purpose: a.Purpose,
			NewPurpose: op.Purpose, NewTTL: op.NewTTL,
		})
	case gdprbench.OpReadByMeta:
		_, err = c.ReadByMeta(ctx, api.ReadByMetaRequest{
			Entity: a.Entity, Purpose: a.Purpose, MetaPurpose: op.Purpose, Limit: scanLimit,
		})
	default:
		err = fmt.Errorf("loadgen: unknown op kind %v", op.Kind)
	}
	return err
}

// Dial opens one client of the deployment under measurement; the driver
// closes it when that client's work is done.
type Dial func() (api.Client, error)

// keepOpen is a client whose Close hangs up nothing: the in-process
// clients all share one api.Local, and its owner closes the deployment.
type keepOpen struct{ api.Client }

func (keepOpen) Close() error { return nil }

// Local dials an in-process deployment: every client shares one
// api.Local over db, which stays open when they hang up.
func Local(db *compliance.ShardedDB) Dial {
	c := keepOpen{api.NewLocal(db)}
	return func() (api.Client, error) { return c, nil }
}

// Wire dials a server or gateway address: one TCP connection per client.
func Wire(addr string) Dial {
	return func() (api.Client, error) {
		c, err := wire.Dial(addr)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}

// split runs fn(lo, hi) over n items cut into one contiguous range per
// client, each range on its own goroutine with its own dialed client.
func split(dial Dial, clients, n int, fn func(c api.Client, lo, hi int) error) error {
	clients = max(1, clients)
	chunk := (n + clients - 1) / clients
	return fanout.Run(clients, clients, func(i int) error {
		client, err := dial()
		if err != nil {
			return err
		}
		defer client.Close()
		lo := min(i*chunk, n)
		return fn(client, lo, min(lo+chunk, n))
	})
}

// Preload creates recs through up to maxLoaders concurrent clients and
// returns the wall time. A record that already exists is left as it is
// (a soak re-run against a deployment that kept its data).
func Preload(ctx context.Context, dial Dial, clients int, recs []gdprbench.Record) (time.Duration, error) {
	start := time.Now()
	err := split(dial, min(clients, maxLoaders), len(recs), func(c api.Client, lo, hi int) error {
		for _, rec := range recs[lo:hi] {
			if _, err := c.Create(ctx, api.CreateRequest{Record: rec}); err != nil &&
				!errors.Is(err, compliance.ErrExists) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("loadgen: load: %w", err)
	}
	return time.Since(start), nil
}

// Prepare preloads the GDPRBench dataset of `records` records through
// dial and returns the seeded stream of `ops` operations to Drive next
// (ops 0: preload only). Both come from seeded generators, so the
// dataset and the full stream are deterministic.
func Prepare(ctx context.Context, dial Dial, w gdprbench.WorkloadName, records, ops, clients int,
	seed int64) ([]gdprbench.Op, time.Duration, error) {
	gen, err := gdprbench.NewGenerator(w, records, seed)
	if err != nil {
		return nil, 0, err
	}
	opGen, err := gdprbench.NewGenerator(w, records, seed+7)
	if err != nil {
		return nil, 0, err
	}
	// Retention far away: not what these runs measure.
	loadTime, err := Preload(ctx, dial, clients, gen.Load(1<<40, 1<<41))
	return opGen.Ops(ops), loadTime, err
}

// Measured is the measured half of a closed-loop run's report row.
// Latencies are client-observed microseconds. Denied and NotFound count
// the tolerated per-op refusals the clients observed (deleted keys
// re-drawn by the generator, policy denials, as in GDPRBench): the
// sentinels survive the wire, so the tally is the same one in-process
// and across a network.
type Measured struct {
	Workload       string  `json:"workload"`
	Profile        string  `json:"profile"`
	Records        int     `json:"records"`
	Ops            int     `json:"ops"`
	LoadSeconds    float64 `json:"load_seconds"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	MeanMicros     float64 `json:"mean_micros"`
	P50Micros      float64 `json:"p50_micros"`
	P95Micros      float64 `json:"p95_micros"`
	P99Micros      float64 `json:"p99_micros"`
	MaxMicros      float64 `json:"max_micros"`
	Denied         uint64  `json:"denied"`
	NotFound       uint64  `json:"not_found"`
}

// Validate sanity-checks the measured fields: counts consistent,
// quantiles ordered, throughput positive.
func (m Measured) Validate() error {
	switch {
	case m.Ops <= 0:
		return fmt.Errorf("loadgen: result has no ops")
	case m.OpsPerSec <= 0:
		return fmt.Errorf("loadgen: non-positive throughput %f", m.OpsPerSec)
	case m.ElapsedSeconds <= 0:
		return fmt.Errorf("loadgen: non-positive elapsed %f", m.ElapsedSeconds)
	case m.P50Micros > m.P95Micros || m.P95Micros > m.P99Micros || m.P99Micros > m.MaxMicros:
		return fmt.Errorf("loadgen: quantiles out of order: p50=%f p95=%f p99=%f max=%f",
			m.P50Micros, m.P95Micros, m.P99Micros, m.MaxMicros)
	}
	return nil
}

// Drive is the closed-loop timing core: `clients` goroutines each dial
// a client and replay one contiguous slice of ops back-to-back (closed
// loop: the next op issues as soon as the previous returns), timing
// each operation into a shared lock-free histogram and tallying the
// outcomes the clients observe. It fills the run-derived fields of
// Measured; the caller labels the row.
func Drive(ctx context.Context, dial Dial, clients int, ops []gdprbench.Op, a Actor) (Measured, error) {
	hist := &Histogram{}
	var denied, notFound atomic.Uint64
	start := time.Now()
	err := split(dial, clients, len(ops), func(c api.Client, lo, hi int) error {
		for _, op := range ops[lo:hi] {
			opCtx, cancel := context.WithTimeout(ctx, opTimeout)
			opStart := time.Now()
			err := Apply(opCtx, c, op, a)
			hist.RecordDuration(time.Since(opStart))
			cancel()
			// Three refusals are part of normal benchmark operation.
			switch {
			case err == nil:
			case errors.Is(err, compliance.ErrDenied): // strict profiles deny
				denied.Add(1)
			case errors.Is(err, compliance.ErrNotFound): // the generator re-draws deleted keys
				notFound.Add(1)
			case errors.Is(err, compliance.ErrExists): // two clients race on a recycled key
			default:
				return fmt.Errorf("loadgen: op %v on %q: %w", op.Kind, op.Key, err)
			}
		}
		return nil
	})
	elapsed := time.Since(start)
	m := Measured{
		Ops:            len(ops),
		ElapsedSeconds: elapsed.Seconds(),
		MeanMicros:     hist.Mean() / 1e3,
		P50Micros:      float64(hist.Quantile(0.50)) / 1e3,
		P95Micros:      float64(hist.Quantile(0.95)) / 1e3,
		P99Micros:      float64(hist.Quantile(0.99)) / 1e3,
		MaxMicros:      float64(hist.Max()) / 1e3,
		Denied:         denied.Load(),
		NotFound:       notFound.Load(),
	}
	if s := elapsed.Seconds(); s > 0 {
		m.OpsPerSec = float64(len(ops)) / s
	}
	return m, err
}

// Config sizes one in-process closed-loop run.
type Config struct {
	// Profile is the compliance grounding to deploy (PBase by default).
	Profile compliance.Profile
	// Workload is the GDPRBench mix to replay.
	Workload gdprbench.WorkloadName
	// Records is the preloaded dataset size.
	Records int
	// Ops is the total operation count, split across clients.
	Ops int
	// Clients is the number of concurrent closed-loop clients.
	Clients int
	// Shards is the subject-shard count of the deployment.
	Shards int
	// Seed makes the generated dataset and op stream deterministic.
	Seed int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
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
	if c.Clients <= 0 {
		c.Clients = 1
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one BENCH_loadgen.json row: the measured fields plus the
// in-process topology and the WAL's commit work.
type Result struct {
	Measured
	Shards  int `json:"shards"`
	Clients int `json:"clients"`
	// WAL commit-work counters, summed over the shards' log segments.
	WALAppends  uint64 `json:"wal_appends"`
	WALSyncs    uint64 `json:"wal_syncs"`
	WALMaxBatch uint64 `json:"wal_max_batch"`
	SerialWAL   bool   `json:"serial_wal"`
}

// String renders one result row.
func (r Result) String() string {
	protocol := "group-wal "
	if r.SerialWAL {
		protocol = "serial-wal"
	}
	return fmt.Sprintf("%-5s %-8s %s shards=%-3d clients=%-3d ops=%-7d %9.0f ops/s  "+
		"p50=%.1fµs p95=%.1fµs p99=%.1fµs",
		r.Workload, r.Profile, protocol, r.Shards, r.Clients, r.Ops, r.OpsPerSec,
		r.P50Micros, r.P95Micros, r.P99Micros)
}

// Validate is Measured.Validate plus the row's own topology and WAL
// consistency.
func (r Result) Validate() error {
	switch {
	case r.Clients <= 0 || r.Shards <= 0:
		return fmt.Errorf("loadgen: bad topology clients=%d shards=%d", r.Clients, r.Shards)
	case r.WALSyncs > r.WALAppends:
		return fmt.Errorf("loadgen: more WAL syncs (%d) than appends (%d)", r.WALSyncs, r.WALAppends)
	}
	return r.Measured.Validate()
}

// Run executes one in-process measurement: open a sharded deployment,
// then Prepare and Drive it through api.Local clients.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	db, err := compliance.OpenShardedWorkers(cfg.Profile, cfg.Shards, cfg.Clients)
	if err != nil {
		return Result{}, err
	}
	defer db.Close()
	ctx, dial := context.TODO(), Local(db)
	ops, loadTime, err := Prepare(ctx, dial, cfg.Workload, cfg.Records, cfg.Ops, cfg.Clients, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	walBaseline := db.WALStats()
	m, err := Drive(ctx, dial, cfg.Clients, ops, ActorFor(cfg.Workload))
	if err != nil {
		return Result{}, err
	}
	m.Workload, m.Profile, m.Records = string(cfg.Workload), cfg.Profile.Name, cfg.Records
	m.LoadSeconds = loadTime.Seconds()
	// WAL counters cover the measured phase only (the preload's appends
	// and syncs are subtracted); MaxBatch is the whole run's high-water
	// mark, since maxima don't subtract.
	walStats := db.WALStats()
	return Result{
		Measured:    m,
		Shards:      cfg.Shards,
		Clients:     cfg.Clients,
		WALAppends:  walStats.Appends - walBaseline.Appends,
		WALSyncs:    walStats.Syncs - walBaseline.Syncs,
		WALMaxBatch: walStats.MaxBatch,
		SerialWAL:   cfg.Profile.SerialWAL,
	}, nil
}
