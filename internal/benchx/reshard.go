package benchx

import (
	"context"
	"fmt"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
)

// The elastic-resharding experiment: a Zipfian hot-subject workload is
// pinned onto one shard (every subject is mined to hash there), driven
// for a measured baseline phase, then the rebalancer observes the
// skew, proposes a split of the hot shard, the split runs live, and
// the same workload is measured again. The figure of merit is the
// post-split throughput recovery: with the hot shard's subjects cut
// into two load halves on two shards, a write-heavy stream that was
// serializing behind one shard mutex (each write paying the modeled
// device stall) overlaps across two, so throughput should approach 2x
// and must exceed the 1.5x acceptance floor (the experiment's check
// enforces it).

// ReshardConfig sizes one resharding measurement.
type ReshardConfig struct {
	// Backend is the storage engine (compliance.BackendHeap/LSM).
	Backend string
	// Shards is the opening shard count (>= 3, so one pinned-hot shard
	// clears the rebalancer's 2x-mean split threshold).
	Shards int
	// Subjects is how many hot subjects share the pinned shard.
	Subjects int
	// Records is the preloaded dataset size, spread over the subjects.
	Records int
	// Clients is the closed-loop writer count.
	Clients int
	// OpsPerPhase is the update count of each measured phase.
	OpsPerPhase int
	// ZipfS is the subject-selection skew exponent.
	ZipfS float64
	// IOStall is the modeled device latency per payload access.
	IOStall time.Duration
	// Seed makes the dataset and op stream deterministic.
	Seed int64
}

// ReshardPhase is one measured workload phase.
type ReshardPhase struct {
	Ops         int     `json:"ops"`
	ElapsedSecs float64 `json:"elapsed_seconds"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Micros   float64 `json:"p50_micros"`
	P99Micros   float64 `json:"p99_micros"`
}

// ReshardResult is one row of BENCH_reshard.json.
type ReshardResult struct {
	Backend       string  `json:"backend"`
	Shards        int     `json:"shards"`
	Subjects      int     `json:"subjects"`
	Records       int     `json:"records"`
	Clients       int     `json:"clients"`
	ZipfS         float64 `json:"zipf_s"`
	IOStallMicros int64   `json:"io_stall_micros"`
	Seed          int64   `json:"seed"`

	// HotShard is the shard every subject was pinned to; the split is
	// expected to come off it.
	HotShard int `json:"hot_shard"`
	// Baseline is the pinned-shard phase; PostSplit the same workload
	// after the rebalancer's plan was applied live.
	Baseline  ReshardPhase `json:"baseline"`
	PostSplit ReshardPhase `json:"post_split"`
	// SpeedupFactor = PostSplit.OpsPerSec / Baseline.OpsPerSec.
	SpeedupFactor float64 `json:"speedup_factor"`
	// P99RecoveryFactor = Baseline.P99 / PostSplit.P99 (>1: tail
	// latency recovered).
	P99RecoveryFactor float64 `json:"p99_recovery_factor"`

	// SplitSubjects is how many subjects the plan moved; NewShards the
	// shard indexes the splits created; EpochAfter the directory epoch
	// after the plan (>= 1 proves a topology change actually committed).
	SplitSubjects int    `json:"split_subjects"`
	NewShards     []int  `json:"new_shards"`
	EpochAfter    uint64 `json:"epoch_after"`
}

// String renders one result row.
func (r ReshardResult) String() string {
	return fmt.Sprintf("reshard %-4s shards=%d subjects=%d clients=%d  "+
		"baseline %8.0f ops/s p99=%.0fµs  post-split %8.0f ops/s p99=%.0fµs  speedup=%.2fx (moved %d subjects, epoch %d)",
		r.Backend, r.Shards, r.Subjects, r.Clients,
		r.Baseline.OpsPerSec, r.Baseline.P99Micros,
		r.PostSplit.OpsPerSec, r.PostSplit.P99Micros,
		r.SpeedupFactor, r.SplitSubjects, r.EpochAfter)
}

// Validate sanity-checks one row.
func (r ReshardResult) Validate() error {
	switch {
	case r.Backend != compliance.BackendHeap && r.Backend != compliance.BackendLSM:
		return fmt.Errorf("reshard: unknown backend %q", r.Backend)
	case r.Baseline.OpsPerSec <= 0 || r.PostSplit.OpsPerSec <= 0:
		return fmt.Errorf("reshard: non-positive phase throughput (%.1f, %.1f)",
			r.Baseline.OpsPerSec, r.PostSplit.OpsPerSec)
	case len(r.NewShards) == 0:
		return fmt.Errorf("reshard: no split happened")
	case r.EpochAfter == 0:
		return fmt.Errorf("reshard: directory epoch never advanced")
	case r.SplitSubjects <= 0 || r.SplitSubjects >= r.Subjects:
		return fmt.Errorf("reshard: split moved %d of %d subjects", r.SplitSubjects, r.Subjects)
	}
	return nil
}

// reshardProfile grounds the experiment: strict policy checking, the
// decision cache on, subject load tracking for the planner, and the
// modeled device stall that makes shard-mutex serialization measurable.
func reshardProfile(c ReshardConfig) compliance.Profile {
	p := compliance.PSYS()
	p.Backend = c.Backend
	p.IOStall = c.IOStall
	p.TrackSubjectLoad = true
	return p
}

// hotSubjects mines Subjects subject names that all hash to the same
// shard of a Shards-wide deployment, returning the names and the shard.
func hotSubjects(n, shards int) ([]string, int) {
	subjects := make([]string, 0, n)
	for i := 0; len(subjects) < n; i++ {
		name := fmt.Sprintf("hot-subject-%05d", i)
		if compliance.SubjectShard(name, shards) == 0 {
			subjects = append(subjects, name)
		}
	}
	return subjects, 0
}

// RunReshard executes one measurement; see the package comment for the
// phase structure.
func RunReshard(cfg ReshardConfig) (ReshardResult, error) {
	res := ReshardResult{
		Backend: cfg.Backend, Shards: cfg.Shards, Subjects: cfg.Subjects,
		Records: cfg.Records, Clients: cfg.Clients, ZipfS: cfg.ZipfS,
		IOStallMicros: cfg.IOStall.Microseconds(), Seed: cfg.Seed,
	}
	if cfg.Shards < 3 || cfg.Subjects <= 0 || cfg.Records <= 0 || cfg.Clients <= 0 || cfg.OpsPerPhase <= 0 {
		return res, fmt.Errorf("reshard: needs >= 3 shards and positive subjects, records, clients and ops: %+v", cfg)
	}
	subjects, hot := hotSubjects(cfg.Subjects, cfg.Shards)
	res.HotShard = hot

	db, err := compliance.OpenShardedWorkers(reshardProfile(cfg), cfg.Shards, cfg.Clients)
	if err != nil {
		return res, err
	}
	defer db.Close()

	// Preload: Records spread round-robin over the hot subjects, so
	// every record lands on the pinned shard.
	ctx, dial := context.TODO(), loadgen.Local(db)
	keysBySubject := make(map[string][]string, len(subjects))
	recs := make([]gdprbench.Record, cfg.Records)
	for i := range recs {
		sub := subjects[i%len(subjects)]
		key := fmt.Sprintf("reshard-%s-%04d", sub, i)
		recs[i] = gdprbench.Record{
			Key: key, Subject: sub,
			Payload:    []byte(fmt.Sprintf("payload-%06d-%06d", cfg.Seed, i)),
			Purposes:   []string{"analytics"},
			TTL:        1 << 40,
			Processors: []string{"processor-a"},
		}
		keysBySubject[sub] = append(keysBySubject[sub], key)
	}
	if _, err := loadgen.Preload(ctx, dial, 1, recs); err != nil {
		return res, err
	}

	// The update stream: draw i picks its subject by indexed Zipf rank
	// (deterministic under any client partition — see loadgen.Zipf) and
	// a key within the subject by a second mix of the index.
	zipf, err := loadgen.NewZipf(len(subjects), cfg.ZipfS, cfg.Seed)
	if err != nil {
		return res, err
	}
	phase := func(phaseSeed uint64) (ReshardPhase, error) {
		ops := make([]gdprbench.Op, cfg.OpsPerPhase)
		for i := range ops {
			idx := phaseSeed*uint64(cfg.OpsPerPhase) + uint64(i)
			keys := keysBySubject[subjects[zipf.Rank(idx)]]
			ops[i] = gdprbench.Op{
				Kind:    gdprbench.OpUpdateData,
				Key:     keys[loadgen.Mix64(idx^0xA5A5)%uint64(len(keys))],
				Payload: []byte(fmt.Sprintf("updated-%d", idx)),
			}
		}
		m, err := loadgen.Drive(ctx, dial, cfg.Clients, ops, loadgen.ActorFor(gdprbench.Controller))
		if err == nil && m.Denied+m.NotFound > 0 {
			err = fmt.Errorf("reshard: %d updates denied, %d missed live records", m.Denied, m.NotFound)
		}
		return ReshardPhase{
			Ops: m.Ops, ElapsedSecs: m.ElapsedSeconds, OpsPerSec: m.OpsPerSec,
			P50Micros: m.P50Micros, P99Micros: m.P99Micros,
		}, err
	}

	// Phase A: the pinned-shard baseline. The rebalancer anchors its
	// counters first so the phase's ops are exactly what it observes.
	rb := compliance.NewRebalancer(db)
	rb.Observe()
	if res.Baseline, err = phase(1); err != nil {
		return res, err
	}
	rb.Observe()

	// The skew must now be visible: the plan splits the hot shard.
	plan := rb.Plan()
	if len(plan.Splits) == 0 {
		return res, fmt.Errorf("reshard: rebalancer proposed no split (hot shard not hot enough)")
	}
	res.SplitSubjects = len(plan.Splits[0].Subjects)
	created, err := rb.Apply(plan)
	if err != nil {
		return res, err
	}
	res.NewShards = created
	res.EpochAfter = db.Epoch()

	// Phase B: the same stream, now spread over the split topology.
	if res.PostSplit, err = phase(2); err != nil {
		return res, err
	}
	res.SpeedupFactor = res.PostSplit.OpsPerSec / res.Baseline.OpsPerSec
	if res.PostSplit.P99Micros > 0 {
		res.P99RecoveryFactor = res.Baseline.P99Micros / res.PostSplit.P99Micros
	}
	return res, nil
}

// ReshardSpeedupFloor is the acceptance floor: post-split throughput
// must reach at least this multiple of the pinned-shard baseline.
const ReshardSpeedupFloor = 1.5

// reshardSpec's parameters are a ReshardConfig whose Backend and Seed
// the run fills per backend.
var reshardSpec = spec[ReshardConfig, ReshardResult]{
	name: "reshard",
	desc: "elastic resharding: Zipfian hot shard measured before/after a live rebalancer split; writes BENCH_reshard.json",
	presets: presets[ReshardConfig]{
		"default": {Shards: 3, Subjects: 16, Records: 256, Clients: 8, OpsPerPhase: 4000,
			ZipfS: 0.9, IOStall: 150 * time.Microsecond},
		"ci": {Shards: 3, Subjects: 12, Records: 192, Clients: 6, OpsPerPhase: 2500,
			ZipfS: 0.9, IOStall: 150 * time.Microsecond},
	},
	run: func(s Scale, cfg ReshardConfig) ([]ReshardResult, error) {
		return perBackend(Backends(), func(backend string) (ReshardResult, error) {
			cfg.Backend, cfg.Seed = backend, s.Seed
			return RunReshard(cfg)
		})
	},
	// The gates: on every backend a split actually happened, live (new
	// shard opened, directory epoch advanced, a strict subset of the
	// hot shard's subjects moved — Validate), and it recovered
	// ReshardSpeedupFloor of throughput on the same workload.
	check: func(rows []ReshardResult) error {
		for i, r := range rows {
			if r.SpeedupFactor < ReshardSpeedupFloor {
				return fmt.Errorf("result %d (%s): post-split speedup %.2fx under the %.1fx floor",
					i, r.Backend, r.SpeedupFactor, ReshardSpeedupFloor)
			}
		}
		return onePerBackend(rows, func(r ReshardResult) string { return r.Backend }, Backends())
	},
}
