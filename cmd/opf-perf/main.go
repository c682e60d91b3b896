// Command opf-perf is the SPDK-perf-equivalent client benchmark for a real
// TCP target: it opens latency-sensitive, throughput-critical, and
// scavenger (best-effort) connections, drives each with a closed-loop
// one-block workload.Runner for a wall-clock duration, and reports
// aggregate throughput plus per-class latency percentiles.
//
// Usage:
//
//	opf-perf -addr 127.0.0.1:4420 -ls 1 -tc 4 -mix read -duration 10s
//	opf-perf -addr 127.0.0.1:4420 -ls 1 -tc 2 -scav 2 -duration 10s
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/tcptrans"
	"nvmeopf/internal/telemetry"
	"nvmeopf/internal/workload"
)

// tenant is one connection and the Runner that drives it. The Runner runs
// on the connection's reactor: it is started, probed and asked whether it
// is done only through Conn.Defer.
type tenant struct {
	conn  *tcptrans.Conn
	class proto.Priority
	run   *workload.Runner
}

// finished reports, from the reactor, whether the tenant's loop has
// stopped and everything it submitted has completed.
func (t *tenant) finished() bool {
	ch := make(chan bool, 1)
	t.conn.Defer(func() { ch <- t.run.Done() })
	return <-ch
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:4420", "target address")
		ls       = flag.Int("ls", 1, "latency-sensitive connections (QD 1)")
		tc       = flag.Int("tc", 1, "throughput-critical connections (QD -qd)")
		scav     = flag.Int("scav", 0, "scavenger (best-effort) connections (QD -qd)")
		qd       = flag.Int("qd", 128, "TC queue depth")
		window   = flag.Int("window", 0, "TC drain window size (0: paper's static selection)")
		mix      = flag.String("mix", "read", "workload: read, write, mixed")
		duration = flag.Duration("duration", 10*time.Second, "run duration")
		span     = flag.Uint64("span", 1<<16, "LBA span per connection")
		metrics  = flag.String("metrics-addr", "", "serve host-side /metrics and /debug endpoints on this address (empty: off)")
		telInt   = flag.Duration("telemetry-interval", 0, "emit in-band TelemetryUpdate e2e feedback to the target at this cadence (0: off, wire-identical to builds without the channel)")
		traceOut = flag.String("trace-dump", "", "write a host-side flight-recorder dump (JSONL) to this file at exit; pair with the target's /debug/trace for opf-trace")
	)
	flag.Parse()
	if *ls < 0 || *tc < 0 || *scav < 0 || *ls+*tc+*scav == 0 {
		fmt.Fprintf(os.Stderr, "opf-perf: -ls, -tc and -scav must not be negative, and open at least one connection between them (got %d, %d, %d)\n", *ls, *tc, *scav)
		flag.Usage()
		os.Exit(2)
	}
	var tel *telemetry.Registry
	var rec *telemetry.Recorder
	if *traceOut != "" {
		rec = telemetry.NewRecorder(telemetry.RecorderConfig{Role: "host"})
	}
	if *metrics != "" {
		tel = telemetry.New()
		tel.SetRecorder(rec)
		exp, err := tel.Serve(*metrics)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		defer exp.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", exp.Addr())
	}
	kind, wmix := core.WorkloadMixed, workload.Mixed5050
	switch *mix {
	case "read":
		kind, wmix = core.WorkloadRead, workload.ReadOnly
	case "write":
		kind, wmix = core.WorkloadWrite, workload.WriteOnly
	}
	if *window == 0 {
		*window = core.OptimalWindow(kind, 100, *tc, *qd)
		fmt.Printf("window auto-selected: %d (%s, %d TC tenants, QD %d)\n", *window, *mix, *tc, *qd)
	}

	// Every Runner reads one clock, zero when the loops start.
	var t0 time.Time
	clock := func() int64 { return int64(time.Since(t0)) }
	var tenants []*tenant
	for i := 0; i < *ls+*tc+*scav; i++ {
		class, depth, w := proto.PrioLatencySensitive, 1, 1
		switch {
		case i >= *ls+*tc:
			// Scavenger: the window is a host-side TC concept; the target
			// decides when leftover capacity or aging drains the queue.
			class, depth, w = proto.PrioScavenger, *qd, *window
		case i >= *ls:
			class, depth, w = proto.PrioThroughputCritical, *qd, *window
		}
		conn, err := tcptrans.DialWith(*addr, hostqp.Config{
			Class: class, Window: w, QueueDepth: depth, NSID: 1,
			Telemetry: tel, Recorder: rec,
		}, tcptrans.DialConfig{TelemetryInterval: *telInt})
		if err != nil {
			log.Fatalf("dial %d: %v", i, err)
		}
		defer conn.Close()
		run, err := workload.NewRunner(conn, clock, workload.Spec{
			Mix: wmix, Pattern: workload.Sequential, Blocks: 1, QueueDepth: depth,
			RegionStart: uint64(i) * *span, RegionBlocks: *span,
			StopAt: int64(*duration), Seed: uint64(i) + 1, BlockSize: conn.BlockSize(),
			// Busy push-back switches the loop to slow-start probing; each
			// probe tick runs on the reactor, like the loop's completions.
			Defer: func(d int64, fn func()) {
				time.AfterFunc(time.Duration(d), func() { conn.Defer(fn) })
			},
		})
		if err != nil {
			log.Fatalf("tenant %d: %v", i, err)
		}
		tenants = append(tenants, &tenant{conn: conn, class: class, run: run})
	}

	t0 = time.Now()
	for _, t := range tenants {
		t.conn.Defer(t.run.Kick)
	}
	// A loop stops at -duration, or at once when its connection fails.
	for _, t := range tenants {
		for !t.finished() {
			time.Sleep(10 * time.Millisecond)
		}
	}
	elapsed := min(time.Since(t0), *duration).Seconds()

	var lsRes, tcRes, scRes workload.Result
	var errs, busy int64
	for _, t := range tenants {
		sum := &tcRes
		switch t.class {
		case proto.PrioLatencySensitive:
			sum = &lsRes
		case proto.PrioScavenger:
			sum = &scRes
		}
		res := t.run.Result()
		sum.Recorded.Merge(res.Recorded)
		sum.Latency.Merge(&res.Latency)
		errs += res.Errors
		busy += res.Busy
	}
	fmt.Printf("duration: %.2fs  errors: %d  busy: %d\n", elapsed, errs, busy)
	for _, c := range []struct {
		name string
		res  *workload.Result
	}{{"TC", &tcRes}, {"LS", &lsRes}, {"SC", &scRes}} {
		if n := c.res.Recorded.Ops; n > 0 {
			h := &c.res.Latency
			fmt.Printf("%s: %8.0f IOPS  %s  p50=%s p99=%s p99.99=%s\n", c.name,
				float64(n)/elapsed, stats.FormatBytesPerSec(float64(c.res.Recorded.Bytes)/elapsed),
				stats.FormatNanos(h.P50()), stats.FormatNanos(h.P99()), stats.FormatNanos(h.P9999()))
		}
	}
	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace-dump: %v", err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			log.Fatalf("trace-dump: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatalf("trace-dump: %v", err)
		}
		fmt.Printf("host trace dump written to %s (analyze with opf-trace)\n", *traceOut)
	}
}
