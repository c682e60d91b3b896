// Command opf-trace analyzes flight-recorder dumps: it merges a host-side
// and/or target-side JSONL dump (written by -trace-dump on the client
// commands, fetched from a target's /debug/trace, or produced by the
// simulator) into per-request timelines on one clock axis and prints
// per-request stage breakdowns, per-tenant percentile tables, and detected
// anomalies (drain stalls, head-of-line blocking of LS requests behind a
// draining TC window).
//
// Usage:
//
//	opf-trace host.jsonl                         # single-sided
//	opf-trace host.jsonl target.jsonl            # full cross-runtime timelines
//	opf-trace -stall 1ms -top 10 host.jsonl target.jsonl
//
// Dump sides are recognized from the role header each recorder writes;
// with two dumps of indistinct roles the first argument is taken as the
// host side.
package main

import (
	"flag"
	"fmt"
	"os"

	"nvmeopf/internal/telemetry"
)

func readDump(path string) (*telemetry.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := telemetry.ReadDump(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

func main() {
	var (
		stall  = flag.Duration("stall", 0, "flag requests that waited longer than this between arrival and drain start (0: only dump-carried stall snapshots)")
		top    = flag.Int("top", 5, "slowest-requests table size")
		minRec = flag.Float64("min-complete", 0, "exit non-zero when the reconstructed fraction falls below this (e.g. 0.99)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: opf-trace [flags] dump.jsonl [dump2.jsonl]\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if n := flag.NArg(); n < 1 || n > 2 {
		flag.Usage()
		os.Exit(2)
	}

	var host, target *telemetry.Dump
	for _, path := range flag.Args() {
		d, err := readDump(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opf-trace: %v\n", err)
			os.Exit(1)
		}
		switch {
		case d.Meta.Role == "target" && target == nil:
			target = d
		case d.Meta.Role == "host" && host == nil:
			host = d
		case host == nil:
			host = d
		case target == nil:
			target = d
		}
	}

	corr := telemetry.Correlate(host, target)
	report := telemetry.Analyze(corr, telemetry.AnalyzeOptions{
		StallThreshold: stall.Nanoseconds(),
		Top:            *top,
	})
	if err := report.WriteText(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "opf-trace: %v\n", err)
		os.Exit(1)
	}
	if *minRec > 0 && report.ReconstructionRatio() < *minRec {
		fmt.Fprintf(os.Stderr, "opf-trace: reconstruction %.3f below -min-complete %.3f\n",
			report.ReconstructionRatio(), *minRec)
		os.Exit(3)
	}
}
