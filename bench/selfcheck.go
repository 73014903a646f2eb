package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(buf, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// runOnce runs this binary as a child for one untraced run and returns
// its end-to-end metric values. A fresh process per run is what the
// acceptance driver does; heap and scheduler state must not carry over.
func runOnce(workload string, seed int64, seconds int) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
	}
	out := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out, nil
}

// boundFloor is the smallest bound the derivation hands out: 0.01 for
// the two metrics that are counts of bytes, 0.03 for everything timed
// or heap-sized.
func boundFloor(metric string) float64 {
	if metric == "space_factor" || metric == "audit_bytes_per_op" {
		return 0.01
	}
	return 0.03
}

// derivedBound is the rule BENCHMARK.json's bounds follow: three times
// the worst interquartile spread seen on any workload in either set,
// rounded up to a whole percent, no lower than the metric's floor and
// no higher than the 0.25 the acceptance contract allows (which is
// also what it tells setup_s to take outright).
func derivedBound(metric string, worstSpread float64) float64 {
	if metric == "setup_s" {
		// The contract gives set-up time the largest bound there is.
		return 0.25
	}
	b := math.Ceil(3*worstSpread*100-1e-9) / 100
	return min(max(b, boundFloor(metric)), 0.25)
}

// selfCheck is the acceptance driver's noise test, runnable by hand:
// two interleaved sets (A, B, A, B, ...) of `runs` runs per workload on
// this one binary, seeds 1..runs. Per (workload, metric) it prints each
// set's median and interquartile spread as a share of the median, and
// fails if a spread exceeds the metric's bound or the two medians
// differ, either way, by more than the bound. It ends with the bound
// each metric's worst spread derives.
func selfCheck(runs, seconds int, only string) error {
	if runs < 2 {
		return fmt.Errorf("-runs must be at least 2")
	}
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bad []string
	worst := make(map[string]float64)
	fmt.Printf("| workload | metric | unit | median A | spread A | median B | spread B | B vs A | bound |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range bf.Workloads {
		if only != "" && wl.Name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for seed := 1; seed <= runs; seed++ {
			for s := range sets {
				vals, err := runOnce(wl.Name, int64(seed), seconds)
				if err != nil {
					return err
				}
				for name, v := range vals {
					sets[s][name] = append(sets[s][name], v)
				}
				fmt.Fprintf(os.Stderr, "run %s set=%c seed=%d %v\n", wl.Name, 'A'+s, seed, vals)
			}
		}
		for _, m := range bf.EndToEnd {
			var med, spread [2]float64
			for s := range sets {
				q1, q2, q3 := quartiles(sets[s][m.Name])
				med[s], spread[s] = q2, (q3-q1)/q2
			}
			worse := (med[1] - med[0]) / med[0]
			if m.Better == "higher" {
				worse = -worse
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %.4f | %.4f | %+.4f | %.2f |\n",
				wl.Name, m.Name, m.Unit, med[0], spread[0], med[1], spread[1], worse, m.Bound)
			if math.Abs(worse) > m.Bound {
				bad = append(bad, fmt.Sprintf("%s/%s: medians differ by %+.4f, bound %.2f", wl.Name, m.Name, worse, m.Bound))
			}
			sp := max(spread[0], spread[1])
			if sp > m.Bound {
				bad = append(bad, fmt.Sprintf("%s/%s: spread %.4f > bound %.2f", wl.Name, m.Name, sp, m.Bound))
			}
			worst[m.Name] = max(worst[m.Name], sp)
		}
	}
	fmt.Printf("\n| metric | worst spread | derived bound | bound in BENCHMARK.json |\n|---|---|---|---|\n")
	for _, m := range bf.EndToEnd {
		fmt.Printf("| %s | %.4f | %.2f | %.2f |\n", m.Name, worst[m.Name], derivedBound(m.Name, worst[m.Name]), m.Bound)
	}
	if len(bad) > 0 {
		return fmt.Errorf("self-check failed:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("self-check passed")
	return nil
}
