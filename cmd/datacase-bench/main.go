// Command datacase-bench regenerates the paper's tables and figures and
// runs the repo's scaling experiments. Every experiment is one entry of
// the registry in internal/benchx: the command parses flags, loops over
// the selected entries, prints what each returns and — for those that
// persist — writes BENCH_<name>.json and reads it back through the
// entry's Check, which holds every acceptance gate.
//
// Usage:
//
//	datacase-bench -list                       # the registry, one line each
//	datacase-bench -exp all                    # everything, default scale
//	datacase-bench -exp all -scale ci          # what CI runs
//	datacase-bench -exp table2 -scale paper    # the paper's parameters
//	datacase-bench -exp fig4a -records 100000  # override the scale's size
//	datacase-bench -exp fig4b -csv             # CSV series output
//	datacase-bench -exp shardscale -shards 1,4 -clients 4
//	datacase-bench -exp ingest -out /tmp/run   # reports go to /tmp/run
//
// An unknown -exp value exits with status 2 and a usage message; a
// failed run or a failed Check exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/datacase/datacase"
)

func main() {
	registry := datacase.Experiments()
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	scales := datacase.BenchScales()
	scaleNames := make([]string, len(scales))
	for i, s := range scales {
		scaleNames[i] = s.Name
	}

	var (
		list      = flag.Bool("list", false, "print the experiment registry with descriptions and exit")
		exp       = flag.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all")
		scaleName = flag.String("scale", scaleNames[0],
			"parameter preset: "+strings.Join(scaleNames, "|")+" (ci = small smoke sizes, paper = 100k records; slower)")
		records = flag.Int("records", 0, "records (0 = the scale's)")
		txns    = flag.Int("txns", 0, "transactions (0 = the scale's)")
		seed    = flag.Int64("seed", 1, "workload seed")
		shards  = flag.String("shards", "", "shard-count sweep for -exp shardscale, e.g. 1,4,16 (empty = the scale's)")
		clients = flag.Int("clients", 0, "concurrent clients: shardscale, and the top of the loadgen sweep (0 = the scale's)")
		csv     = flag.Bool("csv", false, "emit figures as CSV instead of tables")
		out     = flag.String("out", ".", "directory the BENCH_<exp>.json reports are written to")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments (-exp <name>, or all):")
		for _, e := range registry {
			fmt.Printf("  %-12s %s\n", e.Name, e.Desc)
		}
		return
	}

	selected := registry
	if *exp != "all" {
		e, ok := datacase.LookupExperiment(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "datacase-bench: unknown experiment %q (want %s or all)\n",
				*exp, strings.Join(names, ", "))
			flag.Usage()
			os.Exit(2)
		}
		selected = []datacase.Experiment{e}
	}

	var scale datacase.Scale
	for _, s := range scales {
		if s.Name == *scaleName {
			scale = s
		}
	}
	if scale.Name == "" {
		fail(fmt.Errorf("unknown scale %q (want %s)", *scaleName, strings.Join(scaleNames, ", ")))
	}
	if *records > 0 {
		scale.Records = *records
	}
	if *txns > 0 {
		scale.Txns = *txns
	}
	if *clients > 0 {
		scale.Clients = *clients
	}
	if *shards != "" {
		sweep, err := datacase.ParseIntList(*shards)
		fail(err)
		scale.Shards = sweep
	}
	scale.Seed = *seed

	for _, e := range selected {
		params := ""
		if e.Params != nil {
			p, err := e.Params(scale)
			fail(err)
			params = fmt.Sprintf(" %+v", p)
		}
		fmt.Printf("running %s (scale=%s records=%d txns=%d seed=%d%s)...\n",
			e.Name, scale.Name, scale.Records, scale.Txns, scale.Seed, params)
		res, err := e.Run(scale)
		fail(err)
		for _, line := range res.Lines {
			fmt.Println(line)
		}
		for _, fig := range res.Figures {
			if *csv {
				fmt.Println(fig.Title)
				fmt.Print(datacase.RenderFigureCSV(fig))
			} else {
				fmt.Print(datacase.RenderFigure(fig))
			}
			fmt.Println()
		}
		if res.Report == nil {
			continue
		}
		path := filepath.Join(*out, e.File())
		fail(datacase.WriteBenchReport(path, *res.Report, scale.Name))
		// Reading the report back runs the experiment's Check on what
		// was actually written.
		_, err = datacase.ReadBenchReport(path, e)
		fail(err)
		fmt.Printf("wrote %s (every %s gate holds)\n\n", path, e.Name)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "datacase-bench:", err)
		os.Exit(1)
	}
}
