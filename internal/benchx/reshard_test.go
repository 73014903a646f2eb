package benchx

import (
	"testing"
	"time"
)

// Small enough for CI; the phases still have to produce a real split
// and sane numbers, but the unit test does not enforce the 1.5x floor
// (the committed BENCH_reshard.json does, via the experiment's Check).
func smallReshardConfig(backend string) ReshardConfig {
	return ReshardConfig{
		Backend: backend, Shards: 3, Subjects: 8, Records: 64,
		Clients: 4, OpsPerPhase: 400, ZipfS: 0.9,
		IOStall: 50 * time.Microsecond, Seed: 42,
	}
}

func TestRunReshardSplitsHotShard(t *testing.T) {
	for _, backend := range Backends() {
		t.Run(backend, func(t *testing.T) {
			res, err := RunReshard(smallReshardConfig(backend))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(); err != nil {
				t.Fatal(err)
			}
			if res.HotShard != 0 {
				t.Fatalf("hot shard = %d, want 0", res.HotShard)
			}
			if len(res.NewShards) != 1 || res.NewShards[0] < res.Shards {
				t.Fatalf("new shards = %v, want one index >= %d", res.NewShards, res.Shards)
			}
			if res.EpochAfter == 0 {
				t.Fatal("directory epoch did not advance")
			}
			t.Log(res.String())
		})
	}
}
