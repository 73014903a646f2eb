package benchx

import (
	"fmt"
	"strings"
	"testing"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/ycsb"
)

// testScale keeps unit-test runs fast.
func testScale() Scale { return Scale{Records: 1500, Txns: 800, Seed: 1} }

func TestRunGDPRBenchAllProfilesAllWorkloads(t *testing.T) {
	s := testScale()
	for _, p := range compliance.Profiles() {
		for _, w := range []gdprbench.WorkloadName{gdprbench.Customer, gdprbench.Processor, gdprbench.Controller} {
			r, err := RunGDPRBench(p, w, s.Records, s.Txns, s.Seed)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, w, err)
			}
			if r.Elapsed <= 0 {
				t.Fatalf("%s/%s: zero elapsed", p.Name, w)
			}
		}
	}
}

func TestRunYCSB(t *testing.T) {
	s := testScale()
	r, err := RunYCSB(compliance.PBase(), ycsb.WorkloadC, s.Records, s.Txns, s.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if r.Denied != 0 {
		t.Fatalf("YCSB-C denied %d ops — policy wiring broken", r.Denied)
	}
}

func TestEraseStrategiesRun(t *testing.T) {
	for _, strat := range EraseStrategies() {
		r, err := RunEraseStrategy(strat, 1200, 600, 1)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if r.Elapsed <= 0 {
			t.Fatalf("%s: zero elapsed", strat)
		}
	}
}

func TestRunEraseStrategyUnknown(t *testing.T) {
	if _, err := RunEraseStrategy("nuke", 100, 100, 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestDeleteOnlyWorkload(t *testing.T) {
	for _, strat := range []EraseStrategy{StratDelete, StratVacuum} {
		r, err := RunDeleteOnlyWorkload(strat, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Elapsed <= 0 {
			t.Fatal("zero elapsed")
		}
	}
}

func TestTable1RowsConform(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Conforms {
			t.Errorf("%v does not conform: measured %+v want %+v\nevidence: %v",
				r.Interpretation, r.Measured.ErasureProperties, r.Expected, r.Measured.Evidence)
		}
	}
	rendered := RenderTable1(rows)
	for _, want := range []string{"reversibly-inaccessible", "strong-delete", "DELETE+VACUUM FULL", "Not supported"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered table missing %q:\n%s", want, rendered)
		}
	}
}

func TestFig3Timeline(t *testing.T) {
	lines, err := Fig3Timeline()
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	for _, stage := range []string{"reversibly-inaccessible", "delete", "strong-delete", "permanent-delete"} {
		if !strings.Contains(joined, stage) {
			t.Errorf("timeline missing stage %q:\n%s", stage, joined)
		}
	}
}

// retryShape reruns a wall-clock shape assertion a few times: these
// tests measure completion time, which is noisy when other test
// binaries share the machine. A shape must hold in at least one of the
// attempts (it holds in virtually all attempts on an idle machine).
func retryShape(t *testing.T, attempts int, run func() error) {
	t.Helper()
	var err error
	for i := 0; i < attempts; i++ {
		if err = run(); err == nil {
			return
		}
		t.Logf("attempt %d: %v", i+1, err)
	}
	t.Fatal(err)
}

func TestFig4aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test is heavier")
	}
	retryShape(t, 3, func() error {
		// A reduced sweep in the regime where the orderings emerge
		// (transaction count comparable to the record count).
		fig, err := Fig4a(Scale{Records: 6000, Txns: 0, Seed: 1}, 7)
		if err != nil {
			return err
		}
		byLabel := map[string][]Point{}
		for _, s := range fig.Series {
			byLabel[s.Label] = s.Points
		}
		last := func(label string) float64 {
			pts := byLabel[label]
			return pts[len(pts)-1].Y.Seconds()
		}
		// The paper's headline orderings at the largest transaction
		// count: VACUUM FULL is the most expensive; DELETE+VACUUM beats
		// plain DELETE on this read-heavy mix.
		if !(last(string(StratVacuumFull)) > last(string(StratVacuum))) {
			return fmt.Errorf("VACUUM FULL (%.3fs) should cost more than DELETE+VACUUM (%.3fs)",
				last(string(StratVacuumFull)), last(string(StratVacuum)))
		}
		if !(last(string(StratDelete)) > last(string(StratVacuum))) {
			return fmt.Errorf("DELETE (%.3fs) should cost more than DELETE+VACUUM (%.3fs) on WCus",
				last(string(StratDelete)), last(string(StratVacuum)))
		}
		for label, pts := range byLabel {
			if pts[len(pts)-1].Y <= pts[0].Y {
				return fmt.Errorf("%s: completion time did not grow with txns", label)
			}
		}
		return nil
	})
}

func TestFig4bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test is heavier")
	}
	// Each cell is the minimum of three interleaved runs: the minimum is
	// robust against CPU-contention spikes from concurrently running
	// test binaries, which single-shot wall-clock cells are not.
	var fig4bNames []string
	measure := func() (map[string][]Point, error) {
		s := Scale{Records: 4000, Txns: 2500, Seed: 1}
		y := map[string][]Point{}
		for rep := 0; rep < 3; rep++ {
			fig, err := Fig4b(s)
			if err != nil {
				return nil, err
			}
			fig4bNames = fig.XNames
			for _, sr := range fig.Series {
				if rep == 0 {
					y[sr.Label] = append([]Point(nil), sr.Points...)
					continue
				}
				for i, p := range sr.Points {
					if p.Y < y[sr.Label][i].Y {
						y[sr.Label][i].Y = p.Y
					}
				}
			}
		}
		return y, nil
	}
	retryShape(t, 2, func() error {
		y, err := measure()
		if err != nil {
			return err
		}
		// P_SYS > P_GBench > P_Base on every workload; YCSB-C cheapest
		// for every profile.
		for i, w := range fig4bNames {
			base := y["P_Base"][i].Y
			gbench := y["P_GBench"][i].Y
			sys := y["P_SYS"][i].Y
			if !(base < gbench && gbench < sys) {
				return fmt.Errorf("%s: want P_Base < P_GBench < P_SYS, got %v %v %v", w, base, gbench, sys)
			}
		}
		for _, profile := range []string{"P_Base", "P_GBench", "P_SYS"} {
			pts := y[profile]
			ycsbTime := pts[3].Y
			for i, w := range fig4bNames[:3] {
				if ycsbTime >= pts[i].Y {
					return fmt.Errorf("%s: YCSB-C (%v) should be cheaper than %s (%v)",
						profile, ycsbTime, w, pts[i].Y)
				}
			}
		}
		return nil
	})
}

func TestTable2Shape(t *testing.T) {
	reports, err := Table2(Scale{Records: 3000, Txns: 600, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d", len(reports))
	}
	byName := map[string]compliance.SpaceReport{}
	for _, r := range reports {
		byName[r.Profile] = r
	}
	// Personal data size is (nearly) identical across profiles.
	base := byName["P_Base"].PersonalBytes
	for _, r := range reports {
		diff := r.PersonalBytes - base
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.02*float64(base) {
			t.Errorf("personal data size differs across profiles: %+v", reports)
		}
	}
	if !(byName["P_Base"].Factor < byName["P_GBench"].Factor) {
		t.Errorf("factor ordering: %+v", reports)
	}
	if !(byName["P_GBench"].Factor < byName["P_SYS"].Factor) {
		t.Errorf("factor ordering: %+v", reports)
	}
}

func TestRenderFigure(t *testing.T) {
	fig := Figure{
		Title:  "test",
		XLabel: "x",
		Series: []Series{
			{Label: "a", Points: []Point{{X: 1, Y: 1000}, {X: 2, Y: 2000}}},
			{Label: "b", Points: []Point{{X: 1, Y: 3000}}},
		},
	}
	out := Render(fig)
	if !strings.Contains(out, "test") || !strings.Contains(out, "a") {
		t.Fatalf("render = %q", out)
	}
	csv := RenderCSV(fig)
	if !strings.HasPrefix(csv, "x,a,b\n") {
		t.Fatalf("csv = %q", csv)
	}
	if !strings.Contains(csv, "\n1,") || !strings.Contains(csv, "\n2,") {
		t.Fatalf("csv rows missing: %q", csv)
	}
}
