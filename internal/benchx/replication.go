package benchx

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/api"
	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
	"github.com/datacase/datacase/internal/repl"
)

// The replication experiment measures the two-speed design of the
// WAL-shipping replica set: ordinary writes ship asynchronously (the
// figure of merit is replication lag — create-to-replica-visible), while
// RevokeConsent and EraseSubject are synchronous barriers (the figure of
// merit is the primary-side call latency, which INCLUDES every replica's
// ack). The compliance property is binary and non-negotiable: the
// instant the barriered call returns, zero replicas serve a stale allow
// or a readable erased record — the run counts violations and the
// experiment's check fails on any.

// ReplicationConfig sizes one replication measurement.
type ReplicationConfig struct {
	// Backend is the storage engine (compliance.BackendHeap/LSM).
	Backend string
	// Shards is the primary's shard count.
	Shards int
	// Replicas is the replica-set size.
	Replicas int
	// Records is the preloaded dataset size.
	Records int
	// Writes is how many async creates are lag-sampled.
	Writes int
	// Revokes is how many synchronous revocation barriers are measured.
	Revokes int
	// Erases is how many synchronous erasure barriers are measured.
	Erases int
	// Seed makes key/subject naming deterministic.
	Seed int64
}

// ReplicationLatency is one measured distribution in microseconds.
type ReplicationLatency struct {
	Samples   int     `json:"samples"`
	P50Micros float64 `json:"p50_micros"`
	P99Micros float64 `json:"p99_micros"`
	MaxMicros float64 `json:"max_micros"`
}

func latencyOf(h *loadgen.Histogram, samples int) ReplicationLatency {
	return ReplicationLatency{
		Samples:   samples,
		P50Micros: float64(h.Quantile(0.50)) / 1e3,
		P99Micros: float64(h.Quantile(0.99)) / 1e3,
		MaxMicros: float64(h.Max()) / 1e3,
	}
}

// ReplicationResult is one row of BENCH_replication.json.
type ReplicationResult struct {
	Backend  string `json:"backend"`
	Shards   int    `json:"shards"`
	Replicas int    `json:"replicas"`
	Records  int    `json:"records"`
	Seed     int64  `json:"seed"`

	// AsyncLag is the create-to-replica-visible distribution: the price
	// of shipping ordinary writes off the commit path.
	AsyncLag ReplicationLatency `json:"async_lag"`
	// RevokeLatency is the wall time of the primary's RevokeConsent,
	// barrier included: the price of making revocation synchronous.
	RevokeLatency ReplicationLatency `json:"revoke_latency"`
	// EraseLatency is the wall time of the primary's EraseSubject,
	// barrier included.
	EraseLatency ReplicationLatency `json:"erase_latency"`

	// StaleAllows counts replica reads allowed under a revoked pair
	// AFTER the primary's Revoke returned. Must be zero.
	StaleAllows int `json:"stale_allows"`
	// ErasedReadable counts erased-subject records readable on a
	// replica AFTER the primary's EraseSubject returned. Must be zero.
	ErasedReadable int `json:"erased_readable"`
}

// String renders one result row.
func (r ReplicationResult) String() string {
	return fmt.Sprintf("replication %-4s shards=%d replicas=%d  "+
		"async lag p50=%.0fµs p99=%.0fµs  revoke p50=%.0fµs p99=%.0fµs  erase p50=%.0fµs  "+
		"stale-allows=%d erased-readable=%d",
		r.Backend, r.Shards, r.Replicas,
		r.AsyncLag.P50Micros, r.AsyncLag.P99Micros,
		r.RevokeLatency.P50Micros, r.RevokeLatency.P99Micros,
		r.EraseLatency.P50Micros,
		r.StaleAllows, r.ErasedReadable)
}

// Validate sanity-checks one row — including the zero-violation
// compliance property the whole barrier design exists for.
func (r ReplicationResult) Validate() error {
	switch {
	case r.Backend != compliance.BackendHeap && r.Backend != compliance.BackendLSM:
		return fmt.Errorf("replication: unknown backend %q", r.Backend)
	case r.Replicas <= 0:
		return fmt.Errorf("replication: no replicas measured")
	case r.AsyncLag.Samples <= 0 || r.RevokeLatency.Samples <= 0 || r.EraseLatency.Samples <= 0:
		return fmt.Errorf("replication: empty sample set (%d/%d/%d)",
			r.AsyncLag.Samples, r.RevokeLatency.Samples, r.EraseLatency.Samples)
	case r.AsyncLag.P50Micros <= 0:
		return fmt.Errorf("replication: non-positive async lag")
	case r.RevokeLatency.P50Micros <= 0 || r.EraseLatency.P50Micros <= 0:
		return fmt.Errorf("replication: non-positive barrier latency")
	case r.StaleAllows != 0:
		return fmt.Errorf("replication: %d stale allows after Revoke returned", r.StaleAllows)
	case r.ErasedReadable != 0:
		return fmt.Errorf("replication: %d erased records readable after EraseSubject returned", r.ErasedReadable)
	}
	return nil
}

// RunReplication executes one measurement: primary + Replicas replicas
// over loopback TCP, async-lag sampling, then the barriered
// revoke/erase phases with immediate post-return visibility probes on
// every replica.
func RunReplication(cfg ReplicationConfig) (ReplicationResult, error) {
	res := ReplicationResult{
		Backend: cfg.Backend, Shards: cfg.Shards, Replicas: cfg.Replicas,
		Records: cfg.Records, Seed: cfg.Seed,
	}
	if cfg.Shards <= 0 || cfg.Replicas <= 0 || cfg.Records <= 0 || cfg.Writes <= 0 ||
		cfg.Revokes <= 0 || cfg.Erases <= 0 {
		return res, fmt.Errorf("replication: every size must be positive: %+v", cfg)
	}

	profile := compliance.PSYS()
	profile.Backend = cfg.Backend
	db, err := compliance.OpenSharded(profile, cfg.Shards)
	if err != nil {
		return res, err
	}
	defer db.Close()
	prim, err := repl.NewPrimary(db, repl.PrimaryConfig{})
	if err != nil {
		return res, err
	}
	defer prim.Close()
	addr, err := prim.Listen("127.0.0.1:0")
	if err != nil {
		return res, err
	}

	key := func(i int) string { return fmt.Sprintf("repl-%d-%06d", cfg.Seed, i) }
	subject := func(i int) string { return fmt.Sprintf("repl-subj-%d", i%(cfg.Erases*4)) }
	rec := func(i int) gdprbench.Record {
		return gdprbench.Record{
			Key: key(i), Subject: subject(i),
			Payload:    []byte(fmt.Sprintf("payload-%06d", i)),
			Purposes:   []string{"billing", "analytics"},
			TTL:        1 << 40,
			Processors: []string{"processor-a"},
		}
	}
	for i := 0; i < cfg.Records; i++ {
		if err := db.Create(rec(i)); err != nil {
			return res, err
		}
	}

	replicas := make([]*repl.Replica, cfg.Replicas)
	clients := make([]api.Client, cfg.Replicas)
	for i := range replicas {
		r, err := repl.StartReplica(addr.String(), profile, repl.ReplicaConfig{
			ID:       fmt.Sprintf("bench-%d", i),
			PollWait: 5 * time.Millisecond,
		})
		if err != nil {
			return res, err
		}
		defer r.Close()
		replicas[i] = r
		clients[i] = r.Client()
	}

	ctx := context.Background()
	visible := func(c api.Client, k string) bool {
		_, err := c.ReadData(ctx, api.ReadDataRequest{
			Key: k, Entity: compliance.EntityController, Purpose: compliance.PurposeService,
		})
		return err == nil
	}

	// Phase 1 — async lag: create on the primary, stopwatch until the
	// slowest replica serves the record.
	lag := &loadgen.Histogram{}
	for i := cfg.Records; i < cfg.Records+cfg.Writes; i++ {
		start := time.Now()
		if err := db.Create(rec(i)); err != nil {
			return res, err
		}
		for _, c := range clients {
			for !visible(c, key(i)) {
				if time.Since(start) > 30*time.Second {
					return res, fmt.Errorf("replication: write %s never became visible", key(i))
				}
				// Pace the probe: a hot spin would starve the very pull
				// loops whose latency is being measured.
				time.Sleep(50 * time.Microsecond)
			}
		}
		lag.RecordDuration(time.Since(start))
	}
	res.AsyncLag = latencyOf(lag, cfg.Writes)

	// Phase 2 — revocation barriers: the measured latency is the
	// primary call itself; the probe right after it is the compliance
	// check, not a wait.
	revoke := &loadgen.Histogram{}
	for i := 0; i < cfg.Revokes; i++ {
		k := key(i)
		start := time.Now()
		if err := db.RevokeConsent(k, compliance.PurposeService, compliance.EntityController); err != nil {
			return res, err
		}
		revoke.RecordDuration(time.Since(start))
		for _, c := range clients {
			if _, err := c.ReadData(ctx, api.ReadDataRequest{
				Key: k, Entity: compliance.EntityController, Purpose: compliance.PurposeService,
			}); !errors.Is(err, compliance.ErrDenied) {
				res.StaleAllows++
			}
		}
	}
	res.RevokeLatency = latencyOf(revoke, cfg.Revokes)

	// Phase 3 — erasure barriers, probing every key of the erased
	// subject on every replica the moment the call returns.
	keysOf := make(map[string][]string)
	for i := 0; i < cfg.Records+cfg.Writes; i++ {
		keysOf[subject(i)] = append(keysOf[subject(i)], key(i))
	}
	erase := &loadgen.Histogram{}
	for i := 0; i < cfg.Erases; i++ {
		// Erase subjects untouched by the revoke phase (high indexes).
		sub := subject(cfg.Erases*4 - 1 - i)
		start := time.Now()
		if _, err := db.EraseSubject(compliance.EntitySystem, sub); err != nil {
			return res, err
		}
		erase.RecordDuration(time.Since(start))
		for _, c := range clients {
			for _, k := range keysOf[sub] {
				if _, err := c.ReadData(ctx, api.ReadDataRequest{
					Key: k, Entity: compliance.EntityController, Purpose: compliance.PurposeService,
				}); !errors.Is(err, compliance.ErrNotFound) {
					res.ErasedReadable++
				}
			}
		}
	}
	res.EraseLatency = latencyOf(erase, cfg.Erases)
	return res, nil
}

// replicationSpec's parameters are a ReplicationConfig whose Backend
// and Seed the run fills per backend.
var replicationSpec = spec[ReplicationConfig, ReplicationResult]{
	name: "replication",
	desc: "WAL-shipping replica set: async write lag vs synchronous revocation-barrier latency; writes BENCH_replication.json",
	presets: presets[ReplicationConfig]{
		"default": {Shards: 2, Replicas: 2, Records: 200, Writes: 200, Revokes: 50, Erases: 10},
		"ci":      {Shards: 2, Replicas: 2, Records: 120, Writes: 80, Revokes: 20, Erases: 4},
	},
	run: func(s Scale, cfg ReplicationConfig) ([]ReplicationResult, error) {
		return perBackend(Backends(), func(backend string) (ReplicationResult, error) {
			cfg.Backend, cfg.Seed = backend, s.Seed
			return RunReplication(cfg)
		})
	},
	// The barrier gate is absolute and lives in Validate: the moment the
	// primary's Revoke/EraseSubject returns, no replica may serve a
	// stale allow or a readable erased record, on any backend.
	check: func(rows []ReplicationResult) error {
		return onePerBackend(rows, func(r ReplicationResult) string { return r.Backend }, Backends())
	},
}
