package loadgen

import (
	"testing"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
)

// smallConfig keeps driver tests around tens of milliseconds.
func smallConfig(w gdprbench.WorkloadName, clients int) Config {
	return Config{
		Workload: w,
		Records:  400,
		Ops:      400,
		Clients:  clients,
		Shards:   8,
		Seed:     1,
	}
}

func TestRunAllWorkloads(t *testing.T) {
	for _, w := range gdprbench.Workloads() {
		w := w
		t.Run(string(w), func(t *testing.T) {
			res, err := Run(smallConfig(w, 4))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Validate(); err != nil {
				t.Fatal(err)
			}
			if res.Workload != string(w) || res.Clients != 4 || res.Shards != 8 {
				t.Fatalf("result mislabelled: %+v", res)
			}
			if res.Profile != "P_Base" {
				t.Fatalf("default profile = %q", res.Profile)
			}
		})
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	res, err := Run(Config{Workload: gdprbench.Processor, Records: 200, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients != 1 || res.Shards != 16 {
		t.Fatalf("defaults not applied: %+v", res)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if _, err := Run(Config{Workload: "bogus", Records: 10, Ops: 10}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestRunDeterministicOpStream asserts the driver replays the same
// operations for the same seed: two runs agree on the op-derived record
// population (creates minus deletes land identically).
func TestRunDeterministicOpStream(t *testing.T) {
	gen1, err := gdprbench.NewGenerator(gdprbench.Controller, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := gdprbench.NewGenerator(gdprbench.Controller, 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	ops1, ops2 := gen1.Ops(500), gen2.Ops(500)
	for i := range ops1 {
		if ops1[i].Kind != ops2[i].Kind || ops1[i].Key != ops2[i].Key {
			t.Fatalf("op %d diverged: %+v vs %+v", i, ops1[i], ops2[i])
		}
	}
}

// TestRunWALAccounting checks the write path is really logging: a
// controller run (50% writes) must append WAL records, never more syncs
// than appends, and the group-commit default must be in force.
func TestRunWALAccounting(t *testing.T) {
	res, err := Run(smallConfig(gdprbench.Controller, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.WALAppends == 0 {
		t.Fatal("controller workload appended nothing to the WAL")
	}
	if res.WALSyncs > res.WALAppends {
		t.Fatalf("syncs %d > appends %d", res.WALSyncs, res.WALAppends)
	}
	if res.SerialWAL {
		t.Fatal("default run should use group commit")
	}
}

func TestResultValidate(t *testing.T) {
	good := Result{
		Measured: Measured{Ops: 10, OpsPerSec: 5, ElapsedSeconds: 2,
			P50Micros: 1, P95Micros: 2, P99Micros: 3, MaxMicros: 4},
		Clients: 1, Shards: 1, WALAppends: 5, WALSyncs: 3,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Result){
		func(r *Result) { r.Ops = 0 },
		func(r *Result) { r.OpsPerSec = 0 },
		func(r *Result) { r.ElapsedSeconds = -1 },
		func(r *Result) { r.P50Micros = 10 },
		func(r *Result) { r.Clients = 0 },
		func(r *Result) { r.WALSyncs = 99 },
	}
	for i, mutate := range bads {
		r := good
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Fatalf("bad result %d accepted", i)
		}
	}
}

func TestRunWithPSYSProfile(t *testing.T) {
	cfg := smallConfig(gdprbench.Customer, 2)
	cfg.Profile = compliance.PSYS()
	cfg.Records, cfg.Ops = 200, 150
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile != "P_SYS" {
		t.Fatalf("profile = %q", res.Profile)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestResultString(t *testing.T) {
	res := Result{Measured: Measured{Workload: "WCon", Profile: "P_Base",
		Ops: 100, OpsPerSec: 1234, P50Micros: 1, P95Micros: 2, P99Micros: 3}, Shards: 8, Clients: 4}
	if res.String() == "" {
		t.Fatal("empty render")
	}
}

func TestActorMapping(t *testing.T) {
	if a := ActorFor(gdprbench.Processor); a != (Actor{compliance.EntityProcessor, compliance.PurposeProcessing}) {
		t.Fatalf("WPro actor = %+v", a)
	}
	if a := ActorFor(gdprbench.Customer); a != (Actor{compliance.EntitySubjectSvc, compliance.PurposeSubjectAccess}) {
		t.Fatalf("WCus actor = %+v", a)
	}
	if a := ActorFor(gdprbench.Controller); a.Purpose != compliance.PurposeService {
		t.Fatalf("WCon purpose = %s", a.Purpose)
	}
}
