package benchx

import (
	"path/filepath"
	"testing"

	"github.com/datacase/datacase/internal/compliance"
)

// TestBackendComparisonEndToEnd runs the full experiment at a tiny
// scale, writes the JSON document and reads it back through the
// validator — what the CI bench-smoke job drives with bigger numbers.
func TestBackendComparisonEndToEnd(t *testing.T) {
	rep, err := RunBackendComparison(Scale{Records: 300, Txns: 500, Seed: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results.([]BackendResult)
	if len(results) != 8 { // 2 backends × 4 sweep points
		t.Fatalf("got %d sweep results, want 8", len(results))
	}
	if len(rep.Table1) != 8 { // 2 backends × 4 interpretations
		t.Fatalf("got %d table1 rows, want 8", len(rep.Table1))
	}
	if len(rep.EraseChecks) != 2 {
		t.Fatalf("got %d erase checks, want 2", len(rep.EraseChecks))
	}
	for _, row := range rep.Table1 {
		if !row.Conforms {
			t.Errorf("%s on %s does not conform", row.Interpretation, row.Backend)
		}
	}
	for _, c := range rep.EraseChecks {
		if err := c.Validate(); err != nil {
			t.Error(err)
		}
	}
	fig := BackendFigure(results)
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 4 {
		t.Fatalf("figure shape: %d series", len(fig.Series))
	}

	path := filepath.Join(t.TempDir(), "BENCH_backend.json")
	if err := WriteReport(path, rep, "test"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path, backendExperiment())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results.([]BackendResult)) != len(results) || back.Schema != reportSchema ||
		len(back.Table1) != len(rep.Table1) || len(back.EraseChecks) != len(rep.EraseChecks) {
		t.Fatalf("round trip lost a section or the schema: %+v", back)
	}
}

// TestBackendEraseCheckBothBackends is the acceptance pin: on both
// backends, EraseSubject plus the bounded window leaves zero subject
// bytes (memtable and sstable runs included on the LSM) and
// erasure.Verify passes; the LSM discharges its purge obligations.
func TestBackendEraseCheckBothBackends(t *testing.T) {
	for _, b := range Backends() {
		c, err := RunBackendEraseCheck(b, 7)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if c.Backend == compliance.BackendLSM && c.PurgesRegistered == 0 {
			t.Fatal("lsm registered no purge obligations")
		}
	}
}
