package benchx

import "testing"

// TestRunDurableHeapAllBackends runs a tiny point on each backend and
// checks the per-result invariants (timings positive, every record
// recovered). The cross-backend ratio floors are gated on the real
// report, not this smoke scale.
func TestRunDurableHeapAllBackends(t *testing.T) {
	for _, backend := range DurableHeapBackends() {
		r, err := RunDurableHeap(backend, 120, 512, 2, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if r.Backend != backend || r.RecoveredRecords != 120 {
			t.Fatalf("%s: bad result %+v", backend, r)
		}
	}
}
