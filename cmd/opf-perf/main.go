// Command opf-perf is the SPDK-perf-equivalent client benchmark for a real
// TCP target: it opens latency-sensitive, throughput-critical, and
// scavenger (best-effort) connections, drives a closed-loop one-block workload
// for a wall-clock duration, and reports aggregate throughput plus
// per-class latency percentiles.
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
	"math/rand"
	"os"
	"sync"
	"time"

	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/tcptrans"
	"nvmeopf/internal/telemetry"
)

// tenant drives one connection closed-loop.
type tenant struct {
	conn  *tcptrans.Conn
	class proto.Priority
	qd    int
	mix   string
	lba   uint64
	base  uint64
	span  uint64
	rng   *rand.Rand

	mu   sync.Mutex
	hist stats.Histogram
	ops  int64
	errs int64
}

func (t *tenant) pickOp() nvme.Opcode {
	switch t.mix {
	case "read":
		return nvme.OpRead
	case "write":
		return nvme.OpWrite
	default:
		if t.rng.Intn(2) == 0 {
			return nvme.OpRead
		}
		return nvme.OpWrite
	}
}

func (t *tenant) run(stopAt time.Time, wg *sync.WaitGroup) {
	var inner sync.WaitGroup
	var submit func()
	buf := make([]byte, t.conn.BlockSize())
	var mu sync.Mutex // guards lba/rng across reactor callbacks
	submit = func() {
		if time.Now().After(stopAt) {
			inner.Done()
			return
		}
		mu.Lock()
		op := t.pickOp()
		lba := t.base + t.lba
		t.lba = (t.lba + 1) % t.span
		mu.Unlock()
		var data []byte
		if op == nvme.OpWrite {
			data = buf
		}
		start := time.Now()
		err := t.conn.Submit(hostqp.IO{
			Op: op, LBA: lba, Blocks: 1, Data: data,
			Done: func(r hostqp.Result) {
				t.mu.Lock()
				t.ops++
				if !r.Status.OK() {
					t.errs++
				}
				t.hist.Record(time.Since(start).Nanoseconds())
				t.mu.Unlock()
				submit()
			},
		})
		if err != nil {
			inner.Done()
			return
		}
	}
	for i := 0; i < t.qd; i++ {
		inner.Add(1)
		submit()
	}
	go func() {
		inner.Wait()
		wg.Done()
	}()
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
	if *window == 0 {
		kind := core.WorkloadRead
		switch *mix {
		case "write":
			kind = core.WorkloadWrite
		case "mixed":
			kind = core.WorkloadMixed
		}
		*window = core.OptimalWindow(kind, 100, *tc, *qd)
		fmt.Printf("window auto-selected: %d (%s, %d TC tenants, QD %d)\n", *window, *mix, *tc, *qd)
	}

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
		tenants = append(tenants, &tenant{
			conn: conn, class: class, qd: depth, mix: *mix,
			base: uint64(i) * *span, span: *span,
			rng: rand.New(rand.NewSource(int64(i) + 1)),
		})
	}

	stopAt := time.Now().Add(*duration)
	var wg sync.WaitGroup
	start := time.Now()
	for _, t := range tenants {
		wg.Add(1)
		t.run(stopAt, &wg)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	bs := float64(tenants[0].conn.BlockSize()) // every I/O moves one block

	var lsHist, tcHist, scHist stats.Histogram
	var lsOps, tcOps, scOps, errs int64
	for _, t := range tenants {
		t.mu.Lock()
		switch t.class {
		case proto.PrioLatencySensitive:
			lsHist.Merge(&t.hist)
			lsOps += t.ops
		case proto.PrioScavenger:
			scHist.Merge(&t.hist)
			scOps += t.ops
		default:
			tcHist.Merge(&t.hist)
			tcOps += t.ops
		}
		errs += t.errs
		t.mu.Unlock()
	}
	fmt.Printf("duration: %.2fs  errors: %d\n", elapsed, errs)
	if tcOps > 0 {
		fmt.Printf("TC: %8.0f IOPS  %s  p50=%s p99=%s p99.99=%s\n",
			float64(tcOps)/elapsed,
			stats.FormatBytesPerSec(float64(tcOps)*bs/elapsed),
			stats.FormatNanos(tcHist.P50()), stats.FormatNanos(tcHist.P99()), stats.FormatNanos(tcHist.P9999()))
	}
	if lsOps > 0 {
		fmt.Printf("LS: %8.0f IOPS  %s  p50=%s p99=%s p99.99=%s\n",
			float64(lsOps)/elapsed,
			stats.FormatBytesPerSec(float64(lsOps)*bs/elapsed),
			stats.FormatNanos(lsHist.P50()), stats.FormatNanos(lsHist.P99()), stats.FormatNanos(lsHist.P9999()))
	}
	if scOps > 0 {
		fmt.Printf("SC: %8.0f IOPS  %s  p50=%s p99=%s p99.99=%s\n",
			float64(scOps)/elapsed,
			stats.FormatBytesPerSec(float64(scOps)*bs/elapsed),
			stats.FormatNanos(scHist.P50()), stats.FormatNanos(scHist.P99()), stats.FormatNanos(scHist.P9999()))
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
