// Package loadgen is the concurrent closed-loop workload driver: P
// clients, each an api.Client dialed in-process or over the wire,
// replay deterministic slices of a GDPRBench workload against a
// deployment, recording per-operation latency into a shared lock-free
// histogram, and the run is summarized as throughput plus latency
// quantiles in machine-readable JSON (BENCH_loadgen.json,
// BENCH_network.json).
package loadgen

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is HDR-style log-linear: values below subBucketCount
// are recorded exactly; above that, each power-of-two range is split
// into subBucketCount linear sub-buckets, bounding relative error at
// 1/subBucketCount (~3%) across the full uint64 range. Recording is one
// atomic add into a fixed array — no locks, no allocation — so any
// number of clients share one histogram without coordination.
const (
	subBucketBits  = 5
	subBucketCount = 1 << subBucketBits // 32 sub-buckets per octave
	// numBuckets covers every uint64: 32 exact buckets plus 58 octaves
	// of 32 sub-buckets (index formula peaks at 58*32+63).
	numBuckets = 1920
)

// Histogram is a lock-free latency histogram. The zero value is ready
// to use; all methods are safe for concurrent use.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < subBucketCount {
		return int(v)
	}
	// Shift so the mantissa lands in [subBucketCount, 2*subBucketCount).
	k := bits.Len64(v) - subBucketBits - 1
	idx := k*subBucketCount + int(v>>uint(k))
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketValue returns the midpoint value a bucket represents.
func bucketValue(idx int) uint64 {
	if idx < subBucketCount {
		return uint64(idx)
	}
	k := idx/subBucketCount - 1
	m := uint64(idx - k*subBucketCount)
	return m<<uint(k) + uint64(1)<<uint(k)/2
}

// Record adds one value (a latency in nanoseconds).
func (h *Histogram) Record(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// RecordDuration adds one latency sample.
func (h *Histogram) RecordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Max returns the largest recorded value (exact, not bucketed).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Mean returns the arithmetic mean of the recorded values.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns the value at quantile q in [0, 1]. Values below 32
// are exact; larger ones carry the ~3% bucketing error. Quantile(1)
// returns the exact maximum. Concurrent recording skews the answer by
// at most the in-flight samples.
func (h *Histogram) Quantile(q float64) uint64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		return h.Max()
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.counts[i].Load()
		if cum > rank {
			v := bucketValue(i)
			if m := h.Max(); v > m {
				// The top occupied bucket's midpoint can overshoot the
				// true maximum; clamp so quantiles never exceed it.
				return m
			}
			return v
		}
	}
	return h.Max()
}

// Merge adds another histogram's counts into h. The other histogram
// should be quiescent; concurrent recording into it merges a snapshot.
func (h *Histogram) Merge(o *Histogram) {
	for i := 0; i < numBuckets; i++ {
		if n := o.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	om := o.max.Load()
	for {
		cur := h.max.Load()
		if om <= cur || h.max.CompareAndSwap(cur, om) {
			break
		}
	}
}

// Summary renders count/mean/p50/p95/p99/max with the values scaled as
// microseconds (the driver records nanoseconds).
func (h *Histogram) Summary() string {
	us := func(v uint64) float64 { return float64(v) / 1e3 }
	return fmt.Sprintf("n=%d mean=%.1fµs p50=%.1fµs p95=%.1fµs p99=%.1fµs max=%.1fµs",
		h.Count(), h.Mean()/1e3, us(h.Quantile(0.50)), us(h.Quantile(0.95)),
		us(h.Quantile(0.99)), us(h.Max()))
}
