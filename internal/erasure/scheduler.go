package erasure

import (
	"fmt"
	"sort"
	"sync"

	"github.com/datacase/datacase/internal/core"
	"github.com/datacase/datacase/internal/fanout"
)

// Scheduler drives units along the Figure-3 erasure timeline: collected
// → live until TT-Live → reversibly inaccessible until TT-Delete →
// deleted until TT-StrongDelete → strongly deleted until
// TT-PermanentDelete → permanently deleted. Callers register units with
// their timelines and call Advance as logical time passes; the scheduler
// escalates each unit's erasure to the stage its timeline demands.
//
// Bound to a ShardedEngine, Advance batches due units per shard and
// executes the shard batches in parallel (each shard's storage bundle is
// independent); bound to a single Engine, it runs serially as before.
type Scheduler struct {
	eraser Eraser
	// workers bounds the per-Advance shard fan-out (<= 0 means the
	// fanout package default, GOMAXPROCS).
	workers int

	mu      sync.Mutex
	items   map[core.UnitID]core.ErasureTimeline
	applied map[core.UnitID]core.ErasureInterpretation
	done    map[core.UnitID]bool // reached permanent deletion
}

// NewScheduler returns a scheduler bound to one engine.
func NewScheduler(engine *Engine) *Scheduler { return newScheduler(engine, 1) }

// NewShardedScheduler returns a scheduler bound to a sharded engine;
// its Advance escalates the shards' batches in parallel, at most
// GOMAXPROCS at a time.
func NewShardedScheduler(engine *ShardedEngine) *Scheduler { return newScheduler(engine, 0) }

func newScheduler(e Eraser, workers int) *Scheduler {
	return &Scheduler{
		eraser:  e,
		workers: workers,
		items:   make(map[core.UnitID]core.ErasureTimeline),
		applied: make(map[core.UnitID]core.ErasureInterpretation),
		done:    make(map[core.UnitID]bool),
	}
}

// Register adds a unit with its timeline.
func (s *Scheduler) Register(unit core.UnitID, tl core.ErasureTimeline) error {
	if err := tl.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.items[unit]; dup {
		return fmt.Errorf("erasure: unit %q already scheduled", unit)
	}
	s.items[unit] = tl
	return nil
}

// Transition records one stage escalation performed by Advance.
type Transition struct {
	Unit   core.UnitID
	Stage  core.ErasureInterpretation
	Report Report
	Err    error
}

// sharder is implemented by engines that partition units (ShardedEngine).
type sharder interface {
	NumShards() int
	ShardOf(unit core.UnitID) int
}

// Advance escalates every registered unit to the stage its timeline
// demands at time now. Stages are applied one at a time (a unit far past
// TT-PermanentDelete still walks through delete and strong delete,
// matching the timeline's cumulative semantics). Due units are batched
// per shard; each batch runs in unit order, and with a sharded engine
// the batches run concurrently. The returned transitions are sorted by
// unit, with a unit's stages in escalation order.
func (s *Scheduler) Advance(now core.Time) []Transition {
	// Snapshot the live units with their timelines under one lock
	// acquisition, then compute the due set lock-free.
	type dueUnit struct {
		unit   core.UnitID
		target core.ErasureInterpretation
	}
	type liveUnit struct {
		unit core.UnitID
		tl   core.ErasureTimeline
	}
	s.mu.Lock()
	live := make([]liveUnit, 0, len(s.items))
	for u, tl := range s.items {
		if !s.done[u] {
			live = append(live, liveUnit{unit: u, tl: tl})
		}
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].unit < live[j].unit })

	var due []dueUnit
	for _, lu := range live {
		target, isDue := lu.tl.StageAt(now)
		if !isDue {
			continue
		}
		due = append(due, dueUnit{unit: lu.unit, target: target})
	}
	if len(due) == 0 {
		return nil
	}

	// Batch per shard. A single engine is one batch (serial, as before).
	shards := 1
	shardOf := func(core.UnitID) int { return 0 }
	if sh, ok := s.eraser.(sharder); ok && sh.NumShards() > 1 {
		shards = sh.NumShards()
		shardOf = sh.ShardOf
	}
	batches := make([][]dueUnit, shards)
	for _, d := range due {
		i := shardOf(d.unit)
		batches[i] = append(batches[i], d)
	}
	results := make([][]Transition, shards)
	_ = fanout.Run(s.workers, shards, func(i int) error {
		for _, d := range batches[i] {
			results[i] = append(results[i], s.escalate(d.unit, d.target)...)
		}
		return nil
	})

	var out []Transition
	for _, r := range results {
		out = append(out, r...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Unit < out[j].Unit })
	return out
}

// escalate applies every stage between the unit's current and target
// interpretation.
func (s *Scheduler) escalate(unit core.UnitID, target core.ErasureInterpretation) []Transition {
	var out []Transition
	for {
		s.mu.Lock()
		cur, started := s.applied[unit]
		s.mu.Unlock()
		var next core.ErasureInterpretation
		switch {
		case !started:
			next = core.EraseReversiblyInaccessible
		case cur >= target:
			return out
		default:
			next = cur + 1
		}
		if started && next > target {
			return out
		}
		if !started && next > target {
			// Cannot happen: reversible is the lowest stage.
			return out
		}
		rep, err := s.eraser.Erase(unit, next)
		out = append(out, Transition{Unit: unit, Stage: next, Report: rep, Err: err})
		s.mu.Lock()
		s.applied[unit] = next
		if next == core.ErasePermanentDelete {
			s.done[unit] = true
		}
		s.mu.Unlock()
		if err != nil {
			return out
		}
		if next >= target {
			return out
		}
	}
}

// Stage returns the unit's currently applied interpretation; ok is
// false while the unit is still live.
func (s *Scheduler) Stage(unit core.UnitID) (core.ErasureInterpretation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.applied[unit]
	return st, ok
}

// Pending returns the number of units not yet permanently deleted.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for u := range s.items {
		if !s.done[u] {
			n++
		}
	}
	return n
}
