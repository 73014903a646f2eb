package benchx

import (
	"path/filepath"
	"testing"

	"github.com/datacase/datacase/internal/compliance"
)

func TestRunRecoveryBothModes(t *testing.T) {
	full, err := RunRecovery(compliance.PBase(), 300, 600, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	if full.Checkpointed || full.CheckpointRows != 0 {
		t.Fatalf("baseline ran checkpointed: %+v", full)
	}
	// The full-history log keeps the preload inserts plus roughly one
	// record per workload op (ops that drew an already-deleted key log
	// nothing, so the count lands a little under records+ops).
	if full.WALRecords < 300+600/2 {
		t.Fatalf("full-replay WAL too short: %d records", full.WALRecords)
	}

	ckpt, err := RunRecovery(compliance.PBase(), 300, 600, 2, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Validate(); err != nil {
		t.Fatal(err)
	}
	if !ckpt.Checkpointed || ckpt.CheckpointRows == 0 {
		t.Fatalf("checkpointed run took no snapshot: %+v", ckpt)
	}
	// The same seeded stream produced the same final state either way.
	if ckpt.RecoveredRecords != full.RecoveredRecords {
		t.Fatalf("modes disagree on recovered state: %d vs %d",
			ckpt.RecoveredRecords, full.RecoveredRecords)
	}
	// The checkpointed log replays only the tail past the last snapshot.
	if ckpt.RecordsReplayed >= full.RecordsReplayed {
		t.Fatalf("checkpointing did not shorten replay: %d vs %d",
			ckpt.RecordsReplayed, full.RecordsReplayed)
	}
}

func TestRecoverySweepAndJSON(t *testing.T) {
	results, err := RecoverySweep(compliance.PBase(), []int{200, 400}, 200, 2, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("sweep produced %d results, want 4", len(results))
	}
	for i, r := range results {
		if err := r.Validate(); err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if wantCkpt := i%2 == 1; r.Checkpointed != wantCkpt {
			t.Fatalf("result %d: checkpointed=%v, want %v", i, r.Checkpointed, wantCkpt)
		}
	}
	fig := RecoveryFigure(results)
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 2 {
		t.Fatalf("figure shape wrong: %+v", fig)
	}

	path := filepath.Join(t.TempDir(), "BENCH_recovery.json")
	if err := WriteReport(path, Report{Benchmark: "recovery", Results: results}, "test"); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReport(path, recoverySpec.experiment())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmark != "recovery" || len(rep.Results.([]RecoveryResult)) != 4 {
		t.Fatalf("round trip lost data: %+v", rep)
	}
}
