package benchx

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/ycsb"
)

// Scale configures experiment sizes. The paper ran 100k records and 10k
// transactions on PostgreSQL; the simulator defaults to the same
// transaction count with a smaller record count so the full suite runs
// in seconds. Pass PaperScale() for the original parameters.
type Scale struct {
	// Name selects each registry entry's parameter preset and is
	// stamped into the reports written at this scale.
	Name    string
	Records int
	Txns    int
	Seed    int64
	// Fig4aDivisor divides the paper's 10K-70K transaction sweep (fig4a
	// and the backend experiment); values below 1 mean 1.
	Fig4aDivisor int
	// Shards is the shardscale sweep; Clients the concurrent client
	// count of shardscale and the top of the loadgen client sweep.
	Shards  []int
	Clients int
}

// DefaultScale returns the quick-run parameters.
func DefaultScale() Scale {
	return Scale{Name: "default", Records: 20000, Txns: 10000, Seed: 1,
		Fig4aDivisor: 5, Shards: DefaultShardSweep(), Clients: 8}
}

// CIScale returns the smoke-run parameters CI runs every experiment
// at: small enough for a shared runner, large enough that every gate
// (scaling floors included) still has signal.
func CIScale() Scale {
	return Scale{Name: "ci", Records: 1500, Txns: 800, Seed: 1,
		Fig4aDivisor: 25, Shards: []int{1, 4}, Clients: 4}
}

// PaperScale returns the paper's parameters (slower).
func PaperScale() Scale {
	s := DefaultScale()
	s.Name, s.Records, s.Fig4aDivisor = "paper", 100000, 1
	return s
}

// Scales returns the named scales in -scale order.
func Scales() []Scale { return []Scale{DefaultScale(), CIScale(), PaperScale()} }

// Series is one labelled line/bar group of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Point is one measurement.
type Point struct {
	X float64 // the swept parameter (txns, records, …)
	Y time.Duration
}

// Figure is a collection of series plus labelling.
type Figure struct {
	Title  string
	XLabel string
	// XNames, when set, label the X values in ascending order (a
	// categorical axis such as Figure 4(b)'s workloads).
	XNames []string
	Series []Series
}

// seriesFigure groups n measurements into labelled series in order of
// first appearance; at returns measurement i's series label, X value
// and Y value in seconds.
func seriesFigure(title, xlabel string, n int, at func(i int) (label string, x, seconds float64)) Figure {
	fig := Figure{Title: title, XLabel: xlabel}
	index := map[string]int{}
	for i := 0; i < n; i++ {
		label, x, secs := at(i)
		j, ok := index[label]
		if !ok {
			j = len(fig.Series)
			index[label] = j
			fig.Series = append(fig.Series, Series{Label: label})
		}
		fig.Series[j].Points = append(fig.Series[j].Points,
			Point{X: x, Y: time.Duration(secs * float64(time.Second))})
	}
	return fig
}

// paperProfiles returns the three profiles in their paper-baseline
// configuration (Profile.PaperBaseline: decision cache off, audit
// fully synchronous). The figure reproductions measure the paper's
// systems, which pay the full adjudication and logging tax per
// operation; the repo's accelerated read path has its own experiment
// (readpath.go), where the baseline-vs-accelerated contrast is the
// subject rather than a confound.
func paperProfiles() []compliance.Profile {
	out := compliance.Profiles()
	for i := range out {
		out[i] = out[i].PaperBaseline()
	}
	return out
}

// Fig4a reproduces Figure 4(a): completion time of the four erasure
// strategies on the WCus workload as the transaction count grows. The
// paper sweeps 10K-70K transactions; the sweep here is proportional to
// the configured Txns (s.Txns == 10000 gives 10K/30K/50K/70K ÷ factor).
func Fig4a(s Scale, factor int) (Figure, error) {
	fig := Figure{
		Title:  "Fig 4(a): Interpretations of Data Erasure on WCus",
		XLabel: "transactions",
	}
	for _, strat := range EraseStrategies() {
		series := Series{Label: string(strat)}
		for _, txns := range fig4aSweep(factor) {
			r, err := RunEraseStrategy(strat, s.Records, txns, s.Seed)
			if err != nil {
				return fig, err
			}
			series.Points = append(series.Points, Point{X: float64(txns), Y: r.Elapsed})
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// fig4aSweep is the paper's 10K-70K transaction sweep divided by
// factor (values below 1 mean 1).
func fig4aSweep(factor int) []int {
	if factor <= 0 {
		factor = 1
	}
	return []int{10000 / factor, 30000 / factor, 50000 / factor, 70000 / factor}
}

// Fig4b reproduces Figure 4(b): completion time of P_Base / P_GBench /
// P_SYS across WPro, WCon, WCus and YCSB-C.
func Fig4b(s Scale) (Figure, error) {
	fig := Figure{
		Title:  "Fig 4(b): Completion time per workload and profile",
		XLabel: "workload (0=WPro 1=WCon 2=WCus 3=YCSB-C)",
		XNames: []string{"WPro", "WCon", "WCus", "YCSB-C"},
	}
	workloads := []gdprbench.WorkloadName{gdprbench.Processor, gdprbench.Controller, gdprbench.Customer}
	for _, p := range paperProfiles() {
		series := Series{Label: p.Name}
		for i, w := range workloads {
			r, err := RunGDPRBench(p, w, s.Records, s.Txns, s.Seed)
			if err != nil {
				return fig, err
			}
			series.Points = append(series.Points, Point{X: float64(i), Y: r.Elapsed})
		}
		r, err := RunYCSB(p, ycsb.WorkloadC, s.Records, s.Txns, s.Seed)
		if err != nil {
			return fig, err
		}
		series.Points = append(series.Points, Point{X: 3, Y: r.Elapsed})
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// Fig4c reproduces Figure 4(c): scalability — completion time of the
// three profiles on WCus (lines) and YCSB-C (bars) as the record count
// grows, transaction count fixed. The paper sweeps 100k-500k records;
// the sweep here is 1x..5x the configured Records.
func Fig4c(s Scale) (linesWCus, barsYCSB Figure, err error) {
	linesWCus = Figure{
		Title:  "Fig 4(c): WCus completion time vs records",
		XLabel: "records",
	}
	barsYCSB = Figure{
		Title:  "Fig 4(c): YCSB-C completion time vs records",
		XLabel: "records",
	}
	var sweep []int
	for i := 1; i <= 5; i++ {
		sweep = append(sweep, s.Records*i)
	}
	for _, p := range paperProfiles() {
		wcus := Series{Label: p.Name}
		ys := Series{Label: p.Name}
		for _, records := range sweep {
			r, err := RunGDPRBench(p, gdprbench.Customer, records, s.Txns, s.Seed)
			if err != nil {
				return linesWCus, barsYCSB, err
			}
			wcus.Points = append(wcus.Points, Point{X: float64(records), Y: r.Elapsed})
			ry, err := RunYCSB(p, ycsb.WorkloadC, records, s.Txns, s.Seed)
			if err != nil {
				return linesWCus, barsYCSB, err
			}
			ys.Points = append(ys.Points, Point{X: float64(records), Y: ry.Elapsed})
		}
		linesWCus.Series = append(linesWCus.Series, wcus)
		barsYCSB.Series = append(barsYCSB.Series, ys)
	}
	return linesWCus, barsYCSB, nil
}

// Table2 reproduces the storage-space-overhead table after a Fig 4(b)
// style WCus run for each profile.
func Table2(s Scale) ([]compliance.SpaceReport, error) {
	var out []compliance.SpaceReport
	for _, p := range paperProfiles() {
		rep, err := SpaceAfterRun(p, gdprbench.Customer, s.Records, s.Txns, s.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// xAxis returns the distinct X values of a figure in ascending order.
func xAxis(fig Figure) []float64 {
	xs := map[float64]bool{}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	axis := make([]float64, 0, len(xs))
	for x := range xs {
		axis = append(axis, x)
	}
	sort.Float64s(axis)
	return axis
}

// Render renders a figure as a fixed-width table: one row per X value,
// one column per series.
func Render(fig Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", fig.Title)
	axis := xAxis(fig)
	fmt.Fprintf(&b, "%-14s", fig.XLabel)
	for _, s := range fig.Series {
		fmt.Fprintf(&b, " %22s", s.Label)
	}
	fmt.Fprintln(&b)
	for i, x := range axis {
		name := fmt.Sprintf("%.0f", x)
		if i < len(fig.XNames) {
			name = fig.XNames[i]
		}
		fmt.Fprintf(&b, "%-14s", name)
		for _, s := range fig.Series {
			var cell string
			for _, p := range s.Points {
				if p.X == x {
					cell = p.Y.Round(time.Millisecond).String()
					break
				}
			}
			fmt.Fprintf(&b, " %22s", cell)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// RenderCSV renders a figure as CSV (x, series1, series2, ...).
func RenderCSV(fig Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "x")
	for _, s := range fig.Series {
		fmt.Fprintf(&b, ",%s", s.Label)
	}
	fmt.Fprintln(&b)
	for _, x := range xAxis(fig) {
		fmt.Fprintf(&b, "%.0f", x)
		for _, s := range fig.Series {
			var v float64
			for _, p := range s.Points {
				if p.X == x {
					v = p.Y.Seconds()
					break
				}
			}
			fmt.Fprintf(&b, ",%.6f", v)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
