// Command opf-bench regenerates the paper's tables and figures on the
// deterministic simulator. Each experiment prints the same rows/series the
// paper reports (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	opf-bench -exp all                 # every experiment, default scale
//	opf-bench -exp fig7 -sim-ms 400    # one figure at a given scale
//	opf-bench -list                    # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nvmeopf/internal/experiments"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/telemetry"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment ID or 'all'")
		simMS    = flag.Int64("sim-ms", 400, "virtual measurement milliseconds per case")
		warmMS   = flag.Int64("warmup-ms", 100, "virtual warmup milliseconds per case")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		plot     = flag.Bool("plot", false, "append an ASCII bar sketch of each figure")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		traceOut = flag.String("trace-dump", "", "write flight-recorder dumps of the last simulated case to <path>.host.jsonl and <path>.target.jsonl (analyze with opf-trace)")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}
	cfg := experiments.Config{SimMillis: *simMS, WarmupMillis: *warmMS, Seed: *seed}
	var lastCluster *simcluster.Cluster
	if *traceOut != "" {
		cfg.OnCluster = func(cl *simcluster.Cluster) {
			cl.AttachFlightRecorders(telemetry.RecorderConfig{})
			lastCluster = cl
		}
		defer func() {
			if lastCluster == nil {
				return
			}
			for _, side := range []struct {
				rec  *telemetry.Recorder
				path string
			}{
				{lastCluster.HostRecorder(), *traceOut + ".host.jsonl"},
				{lastCluster.TargetRecorder(), *traceOut + ".target.jsonl"},
			} {
				f, err := os.Create(side.path)
				if err == nil {
					err = side.rec.WriteJSONL(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "opf-bench: trace-dump: %v\n", err)
					os.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "trace dump written to %s\n", side.path)
			}
		}()
	}

	names := []string{*exp}
	if *exp == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		start := time.Now()
		rep, err := experiments.ByName(name, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opf-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if *csv {
			fmt.Printf("# %s: %s\n%s\n", rep.ID, rep.Title, rep.Table.CSV())
		} else {
			fmt.Println(rep.String())
		}
		if *plot {
			if sketch := rep.Plot(); sketch != "" {
				fmt.Println(sketch)
			}
		}
		fmt.Fprintf(os.Stderr, "[%s took %.1fs]\n", name, time.Since(start).Seconds())
		if name == "checks" {
			failed := 0
			for _, row := range rep.Table.Rows {
				if row[3] == "FAIL" {
					failed++
				}
			}
			if failed > 0 {
				fmt.Fprintf(os.Stderr, "opf-bench: %d regression check(s) failed\n", failed)
				os.Exit(2)
			}
		}
	}
}
