package benchx

import (
	"encoding/json"
	"fmt"
)

// Experiment is one entry of the registry: everything the driver, CI
// and the tests need to run, print, persist and judge an experiment.
type Experiment struct {
	Name string
	Desc string
	// Params resolves the parameter set the experiment runs with at a
	// scale; nil for experiments sized by the Scale alone.
	Params func(Scale) (any, error)
	// Run executes the experiment at the scale.
	Run func(Scale) (Outcome, error)
	// Check holds every acceptance gate on the experiment's report, and
	// is the only place they are stated: ReadReport runs it, the driver
	// reads back every report it writes, and CI runs the driver. Nil
	// for experiments that only print.
	Check func(Report) error
	// decode parses a report's "results" array into the row type.
	decode func(json.RawMessage) (any, error)
}

// File is the report file the experiment writes ("" when it only
// prints).
func (e Experiment) File() string {
	if e.Check == nil {
		return ""
	}
	return "BENCH_" + e.Name + ".json"
}

// Outcome is one experiment run: what to print and what to persist.
type Outcome struct {
	// Lines are printed in order, one per line.
	Lines []string
	// Figures are rendered after the lines, as tables or CSV.
	Figures []Figure
	// Report is the document to write; nil when the experiment only
	// prints.
	Report *Report
}

// presets holds an experiment's parameter sets, keyed by Scale.Name.
type presets[P any] map[string]P

// at resolves the parameter set for a scale. The paper scale enlarges
// only the paper's own tables and figures, so it (like a hand-built
// Scale with no name) runs the repo's experiments at their default
// sizes.
func (m presets[P]) at(s Scale) (P, error) {
	name := s.Name
	if name == "" || name == "paper" {
		name = "default"
	}
	p, ok := m[name]
	if !ok {
		return p, fmt.Errorf("benchx: no parameter preset for scale %q", name)
	}
	return p, nil
}

// reportRow is what a report row provides: its printed form and its
// own sanity gate.
type reportRow interface {
	fmt.Stringer
	Validate() error
}

// spec declares a report-writing experiment with parameters P and rows
// R; experiment() erases the types into a registry entry.
type spec[P any, R reportRow] struct {
	name, desc string
	presets    presets[P]
	run        func(Scale, P) ([]R, error)
	// check holds the gates that span rows; the entry's Check first
	// refuses an empty row set and any row failing its own Validate.
	// Nil when the per-row gates are all there is.
	check func([]R) error
	// figure and notes are optional: a rendering of the rows and
	// summary lines printed after them.
	figure func([]R) Figure
	notes  func([]R) []string
}

func (sp spec[P, R]) experiment() Experiment {
	return Experiment{
		Name: sp.name, Desc: sp.desc,
		Params: func(s Scale) (any, error) { return sp.presets.at(s) },
		Run: func(s Scale) (Outcome, error) {
			p, err := sp.presets.at(s)
			if err != nil {
				return Outcome{}, err
			}
			rows, err := sp.run(s, p)
			if err != nil {
				return Outcome{}, err
			}
			out := Outcome{Lines: indented(rows), Report: &Report{Benchmark: sp.name, Results: rows}}
			if sp.notes != nil {
				out.Lines = append(out.Lines, sp.notes(rows)...)
			}
			if sp.figure != nil {
				out.Figures = []Figure{sp.figure(rows)}
			}
			return out, nil
		},
		Check: func(rep Report) error {
			rows, err := rowsOf[R](rep)
			if err != nil {
				return err
			}
			if sp.check == nil {
				return nil
			}
			if err := sp.check(rows); err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			return nil
		},
		decode: decodeRows[R],
	}
}

// indented renders rows one per line, indented under whatever heads
// them.
func indented[T fmt.Stringer](rows []T) []string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = "  " + r.String()
	}
	return lines
}

// Experiments returns the registry in run order ("-exp all" runs each).
func Experiments() []Experiment {
	return []Experiment{
		{Name: "table1", Desc: "Table 1: erasure interpretations and their measured IR/II/Inv characteristics",
			Run: func(Scale) (Outcome, error) {
				rows, err := Table1()
				return Outcome{Lines: []string{RenderTable1(rows)}}, err
			}},
		{Name: "fig3", Desc: "Figure 3: scheduler-driven data-erasure timeline",
			Run: func(Scale) (Outcome, error) {
				lines, err := Fig3Timeline()
				return Outcome{Lines: append([]string{"Figure 3: data erasure timeline (scheduler-driven)"}, lines...)}, err
			}},
		{Name: "fig4a", Desc: "Figure 4(a): completion time of the four erasure strategies on WCus (storage level)",
			Run: func(s Scale) (Outcome, error) {
				fig, err := Fig4a(s, s.Fig4aDivisor)
				return Outcome{Figures: []Figure{fig}}, err
			}},
		{Name: "fig4b", Desc: "Figure 4(b): completion time of the three profiles across WPro/WCon/WCus/YCSB-C",
			Run: func(s Scale) (Outcome, error) {
				fig, err := Fig4b(s)
				return Outcome{Figures: []Figure{fig}}, err
			}},
		{Name: "fig4c", Desc: "Figure 4(c): profile completion time as the record count grows",
			Run: func(s Scale) (Outcome, error) {
				lines, bars, err := Fig4c(s)
				return Outcome{Figures: []Figure{lines, bars}}, err
			}},
		{Name: "table2", Desc: "Table 2: storage-space overhead per profile after a WCus run",
			Run: func(s Scale) (Outcome, error) {
				reports, err := Table2(s)
				return Outcome{Lines: append([]string{"Table 2: storage space overhead"}, indented(reports)...)}, err
			}},
		{Name: "deleteonly", Desc: "footnote: plain DELETE beats DELETE+VACUUM on a delete-only stream",
			Run: func(s Scale) (Outcome, error) {
				var rows []RunResult
				for _, strat := range []EraseStrategy{StratDelete, StratVacuum} {
					r, err := RunDeleteOnlyWorkload(strat, s.Records, s.Seed)
					if err != nil {
						return Outcome{}, err
					}
					rows = append(rows, r)
				}
				return Outcome{Lines: append(indented(rows),
					"  (expected: plain DELETE wins on a delete-only workload — the paper's footnote)")}, nil
			}},
		{Name: "shardscale", Desc: "shard-count sweep of the subject-sharded engine under concurrent clients",
			Run: func(s Scale) (Outcome, error) {
				fig, err := ShardScaling(s, s.Shards, s.Clients)
				return Outcome{Figures: []Figure{fig}}, err
			}},
		loadgenSpec.experiment(),
		recoverySpec.experiment(),
		backendExperiment(),
		readPathSpec.experiment(),
		reshardSpec.experiment(),
		networkSpec.experiment(),
		replicationSpec.experiment(),
		ingestSpec.experiment(),
		durableHeapSpec.experiment(),
	}
}

// Lookup finds a registry entry by name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// missing reports the first hole in a sweep that claims to be a full
// grid: each wanted series must hold every value any series swept, and
// no series a value twice. It is how the checks say "nothing was
// skipped" without knowing the sizes the preset ran at.
func missing[R any](rows []R, series func(R) string, value func(R) int, wantSeries []string) error {
	have := map[string]map[int]bool{}
	swept := map[int]bool{}
	for _, r := range rows {
		s := series(r)
		if have[s] == nil {
			have[s] = map[int]bool{}
		}
		if have[s][value(r)] {
			return fmt.Errorf("series %s holds value %d twice", s, value(r))
		}
		have[s][value(r)] = true
		swept[value(r)] = true
	}
	for _, s := range wantSeries {
		for v := range swept {
			if !have[s][v] {
				return fmt.Errorf("series %s lacks swept value %d", s, v)
			}
		}
	}
	return nil
}

// perBackend runs one measurement per backend, in order.
func perBackend[R any](backends []string, run func(backend string) (R, error)) ([]R, error) {
	var rows []R
	for _, backend := range backends {
		r, err := run(backend)
		if err != nil {
			return rows, fmt.Errorf("%s: %w", backend, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// onePerBackend requires exactly one row for each wanted backend.
func onePerBackend[R any](rows []R, backend func(R) string, want []string) error {
	if err := missing(rows, backend, func(R) int { return 0 }, want); err != nil {
		return fmt.Errorf("backend %w", err)
	}
	return nil
}
