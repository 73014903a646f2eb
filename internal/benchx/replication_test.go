package benchx

import "testing"

// Small enough for CI; the run still has to exercise both the async
// stream and the barriers, and Validate enforces the zero-violation
// property at any scale.
func smallReplicationConfig(backend string) ReplicationConfig {
	return ReplicationConfig{
		Backend: backend, Shards: 2, Replicas: 2,
		Records: 40, Writes: 20, Revokes: 8, Erases: 2, Seed: 42,
	}
}

func TestRunReplicationBarrierHolds(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			res, err := RunReplication(smallReplicationConfig(backend))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(); err != nil {
				t.Fatal(err)
			}
			if res.AsyncLag.P50Micros <= 0 {
				t.Fatalf("async lag p50 = %.0f, want positive", res.AsyncLag.P50Micros)
			}
			t.Log(res.String())
		})
	}
}
