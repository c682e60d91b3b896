// Command bench is the repository's benchmark: six named workloads over an
// in-process target on loopback TCP and the simulator, gated end-to-end
// metrics from untraced timed runs, and a separate traced run for the
// per-layer numbers. README.md has the why; BENCHMARK.json the contract.
//
//	bash bench/run.sh -seed 1                              # every workload, timed then traced
//	bash bench/run.sh --workload ls-alone --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -check A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runDeadline aborts a run that outlives the contract's 180 s limit, so a
// wedged program fails the benchmark instead of hanging it.
const runDeadline = 170 * time.Second

// runMeta makes a recorded run self-describing.
type runMeta struct {
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Load       string `json:"load"`
}

// commit is set by run.sh (-ldflags -X) where the checkout is a git
// repository.
var commit = "unknown"

func currentMeta() runMeta {
	return runMeta{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit,
		Load:   "closed loop, one process: in-process target, traffic over the host's loopback interface"}
}

// resultFile is what -out writes and -check reads. -out appends, so one
// file can hold the runs of many seeds.
type resultFile struct {
	Runs []recordedRun `json:"runs"`
}

type recordedRun struct {
	runMeta
	runRecord
}

func appendResults(path string, runs []recordedRun) error {
	var rf resultFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &rf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	rf.Runs = append(rf.Runs, runs...)
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	bf, root, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	var (
		seed    = uint64(1)
		seconds = float64(bf.RunSeconds)
		names   string
		timed   = true
		traced  = true
		out     string
		check   bool
	)
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.Uint64Var(&seed, "seed", seed, "workload seed: drives every LBA sequence and experiments.Config.Seed")
	fs.StringVar(&names, "workloads", "", "comma-separated workloads to run (default: all)")
	fs.StringVar(&names, "workload", "", "alias of -workloads")
	fs.Float64Var(&seconds, "seconds", seconds, "measured window per workload, seconds")
	fs.Func("duration", "measured window as a duration, e.g. 10s", func(v string) error {
		d, err := time.ParseDuration(v)
		seconds = d.Seconds()
		return err
	})
	fs.Func("trace", "0|false: timed runs only; 1|true: traced runs only (default: timed, then traced)", func(v string) error {
		b, err := strconv.ParseBool(v)
		timed, traced = !b, b
		return err
	})
	fs.StringVar(&out, "out", "", "append the runs to this result file")
	fs.BoolVar(&check, "check", false, "compare two result files: -check A.json B.json")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if check {
		if fs.NArg() != 2 {
			return errors.New("-check needs two result files")
		}
		return runCheck(os.Stdout, bf, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if seconds <= 0 {
		return errors.New("the measured window must be positive")
	}
	selected := workloads
	if names != "" {
		selected = nil
		for _, n := range strings.Split(names, ",") {
			w, err := findWorkload(n)
			if err != nil {
				return err
			}
			selected = append(selected, *w)
		}
	}

	meta := currentMeta()
	fmt.Printf("bench: %s; nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %.3g s per workload\n",
		meta.Load, meta.NumCPU, meta.GOMAXPROCS, meta.GoVersion, meta.Commit, seed, seconds)
	var runs []recordedRun
	correct := true
	do := func(w *workload, traced bool) error {
		watchdog := time.AfterFunc(runDeadline, func() {
			fmt.Fprintf(os.Stderr, "bench: %s still running after %v\n", w.name, runDeadline)
			os.Exit(2)
		})
		defer watchdog.Stop()
		var rec *runRecord
		var err error
		if traced {
			rec, err = runTraced(w, seed, seconds, filepath.Join(root, "bench", "out"))
		} else {
			rec, err = runTimed(w, seed, seconds)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printRun(rec)
		runs = append(runs, recordedRun{meta, *rec})
		correct = correct && rec.Correct
		return nil
	}
	// Every timed run comes before any traced one.
	for _, mode := range []struct{ on, traced bool }{{timed, false}, {traced, true}} {
		for i := range selected {
			if !mode.on {
				break
			}
			if err := do(&selected[i], mode.traced); err != nil {
				return err
			}
		}
	}
	if out != "" {
		if err := appendResults(out, runs); err != nil {
			return err
		}
	}
	if len(runs) == 1 {
		// The driver's contract: one workload, one mode, one object last.
		r := runs[0]
		line, err := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !correct {
		return errors.New("a workload failed requests, or the simulator did not repeat its virtual-time results")
	}
	return nil
}

// printRun prints every metric of a run by name, with unit, sample count
// and failures/attempted.
func printRun(r *runRecord) {
	mode := "timed"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("\n%s (%s, seed %d): correct=%v failed/attempted=%d/%d\n",
		r.Workload, mode, r.Seed, r.Correct, r.Failed, r.Attempted)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14s %s\n", n, fmtVal(r.Metrics[n].Value), r.Metrics[n].Unit)
	}
	keys := make([]string, 0, len(r.Diagnostics))
	for k := range r.Diagnostics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  (ungated) %-22s %v\n", k, r.Diagnostics[k])
	}
}
