package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of -check, one per (metric, workload).
const (
	verdictWithin     = "within bound"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved (spread wider than bound)"
)

// judge compares a metric's values on one workload in two result files:
// B regressed when its median is worse than A's by more than the bound;
// where either file's own spread is wider than the bound the difference
// cannot be resolved either way.
func judge(def metricDef, a, b []float64) (verdict string, worse, spread float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if def.Better == "higher" {
			worse = -worse
		}
	}
	spread = max(iqrShare(a), iqrShare(b))
	switch {
	case spread > def.Bound:
		verdict = verdictUnresolved
	case worse > def.Bound:
		verdict = verdictRegressed
	default:
		verdict = verdictWithin
	}
	return verdict, worse, spread
}

// timedValues collects a result file's timed runs as workload -> metric ->
// values, one per run.
func timedValues(path string) (map[string]map[string][]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	vals := map[string]map[string][]float64{}
	for _, r := range rf.Runs {
		if r.Traced {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
		}
	}
	return vals, nil
}

// runCheck prints one row per (metric, workload) present in both files and
// fails if any regressed.
func runCheck(out io.Writer, bf *benchmarkFile, pathA, pathB string) error {
	a, err := timedValues(pathA)
	if err != nil {
		return err
	}
	b, err := timedValues(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median (n)\tB median (n)\tB worse by\tspread\tbound\tverdict")
	regressed, rows := 0, 0
	for _, w := range bf.Workloads {
		for _, def := range bf.EndToEnd {
			va, vb := a[w.Name][def.Name], b[w.Name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse, spread := judge(def, va, vb)
			if verdict == verdictRegressed {
				regressed++
			}
			rows++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s (%d)\t%s (%d)\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				w.Name, def.Name, def.Unit, fmtVal(median(va)), len(va), fmtVal(median(vb)), len(vb),
				worse*100, spread*100, def.Bound*100, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		return errors.New("the two files share no timed (workload, metric) pair")
	}
	if regressed > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed", regressed)
	}
	return nil
}
