package benchx

import (
	"fmt"
	"testing"
	"time"

	"github.com/datacase/datacase/internal/compliance"
)

// readPathTestConfig keeps unit-test runs fast: tiny dataset, short op
// stream, no modeled device latency.
func readPathTestConfig(backend string, readers int, cache bool) ReadPathConfig {
	return ReadPathConfig{
		Backend: backend, Readers: readers, Shards: 1,
		Records: 100, Ops: 400, Cache: cache, Seed: 1,
	}
}

func TestRunReadPathBothBackends(t *testing.T) {
	for _, backend := range Backends() {
		for _, cache := range []bool{false, true} {
			r, err := RunReadPath(readPathTestConfig(backend, 4, cache))
			if err != nil {
				t.Fatalf("%s cache=%v: %v", backend, cache, err)
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("%s cache=%v: %v", backend, cache, err)
			}
			if r.Denied != 0 || r.NotFound != 0 {
				t.Fatalf("%s cache=%v: pure-read stream denied=%d notfound=%d",
					backend, cache, r.Denied, r.NotFound)
			}
			if cache && r.CacheHits == 0 {
				t.Fatalf("%s: cache-on run served no hits over a repeated key stream", backend)
			}
		}
	}
}

func TestRunReadPathExclusiveBaseline(t *testing.T) {
	cfg := readPathTestConfig(compliance.BackendHeap, 4, false)
	cfg.Exclusive = true
	r, err := RunReadPath(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lock != LockExclusive {
		t.Fatalf("lock label = %q, want %q", r.Lock, LockExclusive)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestReadPathSweepClearsScalingFloor runs a real (heap-only, to keep
// the wall-clock exposure small) sweep and holds both shared-lock
// series to the floor checkReadPath gates full reports on; the gate's
// failure rows and the envelope round trip live in TestRegistryReports.
func TestReadPathSweepClearsScalingFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock scaling assertion; skipped under -short")
	}
	// A stall that dwarfs per-op CPU (coverage-instrumented runs
	// included) makes reader overlap dominate the measurement on any
	// machine, single-core CI runners included: 8 overlapping readers
	// approach 8x, leaving a wide margin over the 3x gate.
	results, err := ReadPathSweep([]string{compliance.BackendHeap}, []int{1, 8}, 1,
		60, 480, time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []bool{false, true} {
		factor, ok := ReadScaling(results, compliance.BackendHeap, cache)
		if !ok {
			t.Fatalf("cache=%v: scaling endpoints missing", cache)
		}
		if factor < readScalingFloor {
			t.Fatalf("cache=%v: 8-reader throughput only %.2fx single-reader (want >= %.0fx)",
				cache, factor, readScalingFloor)
		}
	}
}

// BenchmarkReadPath measures the pure-CPU read path (no modeled device
// latency) at growing reader counts on both backends, cache on.
func BenchmarkReadPath(b *testing.B) {
	for _, backend := range Backends() {
		for _, readers := range DefaultReaderSweep() {
			b.Run(fmt.Sprintf("%s/readers-%d", backend, readers), func(b *testing.B) {
				var opsPerSec float64
				for i := 0; i < b.N; i++ {
					cfg := readPathTestConfig(backend, readers, true)
					cfg.Records, cfg.Ops = 500, 4000
					r, err := RunReadPath(cfg)
					if err != nil {
						b.Fatal(err)
					}
					opsPerSec = r.OpsPerSec
				}
				b.ReportMetric(opsPerSec, "ops/s")
			})
		}
	}
}
