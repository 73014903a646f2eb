package benchx

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Report is the one BENCH_*.json envelope every experiment writes and
// reads. Results holds the experiment's typed row slice; Table1 and
// EraseChecks are the backend experiment's two extra sections.
type Report struct {
	Benchmark   string              `json:"benchmark"`
	Schema      int                 `json:"schema"`
	Env         *Env                `json:"env,omitempty"`
	Results     any                 `json:"results"`
	Table1      []BackendTable1Row  `json:"table1,omitempty"`
	EraseChecks []BackendEraseCheck `json:"erase_checks,omitempty"`
}

// Env records where a report was produced, stamped on write so a
// committed number can be read against the machine and parameter set
// that made it. Reports written before the stamp existed carry none.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Preset names the Scale the experiment ran at (empty for reports
	// written outside the registry, such as datacase-soak's).
	Preset string `json:"preset,omitempty"`
}

// reportSchema is bumped when the envelope or a row shape changes.
const reportSchema = 1

// WriteReport stamps the schema and environment into rep and writes it
// to path.
func WriteReport(path string, rep Report, preset string) error {
	rep.Schema = reportSchema
	rep.Env = &Env{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Preset: preset,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("%s: encode report: %w", rep.Benchmark, err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("%s: write %s: %w", rep.Benchmark, path, err)
	}
	return nil
}

// ReadReport parses the report at path as one of experiment e — the
// benchmark tag must name it, the rows decode into its row type — and
// runs e.Check, so a report that reads clean has passed every gate.
func ReadReport(path string, e Experiment) (Report, error) {
	if e.Check == nil {
		return Report{}, fmt.Errorf("%s: experiment writes no report", e.Name)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("%s: read %s: %w", e.Name, path, err)
	}
	var doc struct {
		Report
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return Report{}, fmt.Errorf("%s: parse %s: %w", e.Name, path, err)
	}
	rep := doc.Report
	if rep.Benchmark != e.Name {
		return rep, fmt.Errorf("%s: %s is not a %s report (benchmark=%q)", e.Name, path, e.Name, rep.Benchmark)
	}
	if rep.Results, err = e.decode(doc.Results); err != nil {
		return rep, fmt.Errorf("%s: parse %s results: %w", e.Name, path, err)
	}
	if err := e.Check(rep); err != nil {
		return rep, fmt.Errorf("%w (%s)", err, path)
	}
	return rep, nil
}

// decodeRows is the row decoder of an experiment whose rows are R.
func decodeRows[R any](raw json.RawMessage) (any, error) {
	var rows []R
	err := json.Unmarshal(raw, &rows)
	return rows, err
}

// rowsOf returns the report's rows as []R, refusing an empty set and
// any row that fails its own Validate.
func rowsOf[R reportRow](rep Report) ([]R, error) {
	rows, ok := rep.Results.([]R)
	if !ok {
		return nil, fmt.Errorf("%s: report rows are %T", rep.Benchmark, rep.Results)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: report has no results", rep.Benchmark)
	}
	for i, r := range rows {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("%s: result %d: %w", rep.Benchmark, i, err)
		}
	}
	return rows, nil
}

// ParseInts parses a comma-separated sweep of positive integers such
// as "1,4,16" (shard counts, connection counts).
func ParseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad sweep value %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep %q", s)
	}
	return out, nil
}
