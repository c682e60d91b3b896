package nvmeopf

// One benchmark per table/figure of the paper's evaluation (§V), plus
// datapath micro-benchmarks and the design-choice ablations called out in
// DESIGN.md §6. The figure benchmarks execute the same experiment runners
// as cmd/opf-bench, at a reduced virtual duration so `go test -bench=.`
// stays tractable; run `opf-bench -exp all` for publication-scale tables.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/core"
	"nvmeopf/internal/experiments"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// benchCfg is the reduced-scale experiment configuration for benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{SimMillis: 20, WarmupMillis: 5, Seed: 1}
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	cfg := benchCfg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.ByName(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Table.Rows) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
	}
}

// Table I: platform profiles.
func BenchmarkTableIProfiles(b *testing.B) { benchExperiment(b, "tableI") }

// Fig. 6(a): window-size sweep with 1 LS + 1 TC initiator.
func BenchmarkFig6a(b *testing.B) { benchExperiment(b, "fig6a") }

// Fig. 6(b): window-size sweep across 10/25/100 Gbps fabrics.
func BenchmarkFig6b(b *testing.B) { benchExperiment(b, "fig6b") }

// Fig. 6(c): completion-notification counts.
func BenchmarkFig6c(b *testing.B) { benchExperiment(b, "fig6c") }

// Fig. 7(a-f): multi-tenant ratios (throughput + tail latency).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Fig. 8(a-c): scale-out pattern 1.
func BenchmarkFig8Pattern1(b *testing.B) { benchExperiment(b, "fig8p1") }

// Fig. 8(d-f): scale-out pattern 2.
func BenchmarkFig8Pattern2(b *testing.B) { benchExperiment(b, "fig8p2") }

// Fig. 9: h5bench application-level study.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Headline observations (Obs. 1-5).
func BenchmarkSummary(b *testing.B) { benchExperiment(b, "summary") }

// benchAblationCase runs one 1-case ablation comparison per iteration and
// reports TC throughput as a metric.
func benchAblationCase(b *testing.B, mutate func(experiments.Case) experiments.Case) {
	b.Helper()
	base := experiments.Case{
		Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly,
		FanIn: true, LSPerNode: 1, TCPerNode: 3,
	}
	cs := mutate(base)
	cfg := benchCfg()
	var last experiments.CaseResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(cfg, cs)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.TCBps/1e6, "TC_MB/s")
	b.ReportMetric(float64(last.LSTail)/1e3, "LS_tail_us")
}

// Ablation: the paper's isolated per-tenant queues (reference point).
func BenchmarkAblationIsolatedQueues(b *testing.B) {
	benchAblationCase(b, func(c experiments.Case) experiments.Case { return c })
}

// Ablation: one shared TC queue across tenants (the design §IV-A rejects).
func BenchmarkAblationSharedQueue(b *testing.B) {
	benchAblationCase(b, func(c experiments.Case) experiments.Case {
		c.SharedQueueAblation = true
		return c
	})
}

// Ablation: dynamic window tuning (§IV-D) instead of the static table.
func BenchmarkAblationDynamicWindow(b *testing.B) {
	benchAblationCase(b, func(c experiments.Case) experiments.Case {
		c.DynamicWindow = true
		return c
	})
}

// Ablation: LS bypass disabled (LS requests demoted to legacy class).
func BenchmarkAblationNoBypass(b *testing.B) {
	benchAblationCase(b, func(c experiments.Case) experiments.Case {
		c.NoLSBypass = true
		return c
	})
}

// Ablation: SPDK baseline (everything off).
func BenchmarkAblationBaseline(b *testing.B) {
	benchAblationCase(b, func(c experiments.Case) experiments.Case {
		c.Mode = targetqp.ModeBaseline
		return c
	})
}

// --- Datapath micro-benchmarks ---

// BenchmarkPDUEncodeCapsuleCmd measures the wire codec on the hot path.
func BenchmarkPDUEncodeCapsuleCmd(b *testing.B) {
	pdu := &proto.CapsuleCmd{
		Cmd:    nvme.Command{Opcode: nvme.OpWrite, CID: 7, NSID: 1, SLBA: 42, NLB: 0},
		Prio:   proto.PrioTCDraining,
		Tenant: 3,
		Data:   make([]byte, 4096),
	}
	b.ReportAllocs()
	b.SetBytes(int64(pdu.WireSize()))
	for i := 0; i < b.N; i++ {
		buf := proto.Marshal(pdu)
		if len(buf) == 0 {
			b.Fatal("empty")
		}
	}
}

// BenchmarkPDUDecodeCapsuleCmd measures capsule parsing.
func BenchmarkPDUDecodeCapsuleCmd(b *testing.B) {
	buf := proto.Marshal(&proto.CapsuleCmd{
		Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 7, NSID: 1, NLB: 0},
		Data: make([]byte, 4096),
	})
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := proto.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCIDQueue measures the zero-copy pending queue (push + drain).
func BenchmarkCIDQueue(b *testing.B) {
	var q core.CIDQueue
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 32; j++ {
			q.Push(nvme.CID(j))
		}
		if _, ok := q.DrainThrough(31); !ok {
			b.Fatal("drain failed")
		}
	}
}

// BenchmarkHostPMStampResponse measures the host PM hot path: one window
// of stamps plus the coalesced replay.
func BenchmarkHostPMStampResponse(b *testing.B) {
	b.ReportAllocs()
	h := core.NewHostPM(proto.PrioThroughputCritical, 32)
	for i := 0; i < b.N; i++ {
		var drainCID nvme.CID
		for j := 0; j < 32; j++ {
			cid := nvme.CID(j)
			if h.Stamp(cid).Draining() {
				drainCID = cid
			}
		}
		if _, err := h.OnResponse(drainCID, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistogramRecord measures the latency histogram's O(1) record.
func BenchmarkHistogramRecord(b *testing.B) {
	var h stats.Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1_000_000 + 50_000))
	}
}

// BenchmarkSimulatedReadIOPS measures simulator event throughput: one TC
// read initiator at 100 Gbps for 10ms of virtual time per iteration.
func BenchmarkSimulatedReadIOPS(b *testing.B) {
	cfg := experiments.Config{SimMillis: 10, WarmupMillis: 2, Seed: 1}
	cs := experiments.Case{
		Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly,
		FanIn: true, TCPerNode: 1,
	}
	b.ReportAllocs()
	var iops float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(cfg, cs)
		if err != nil {
			b.Fatal(err)
		}
		iops = r.TCIOPS
	}
	b.ReportMetric(iops, "sim_IOPS")
}

// BenchmarkTCPLoopbackWrite measures the real-transport datapath: 4 KiB
// TC writes over a loopback socket to an in-memory oPF target.
func BenchmarkTCPLoopbackWrite(b *testing.B) {
	srv, err := ListenMemory("127.0.0.1:0", ModeOPF, 4096, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr(), InitiatorConfig{
		Class: ThroughputCritical, Window: 16, QueueDepth: 64, NSID: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 4096)
	done := make(chan struct{}, 64)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	inFlight := 0
	for i := 0; i < b.N; i++ {
		for inFlight >= 64 {
			<-done
			inFlight--
		}
		if err := conn.Submit(IO{
			Op: OpWrite, LBA: uint64(i % 4096), Blocks: 1, Data: buf,
			Done: func(Result) { done <- struct{}{} },
		}); err != nil {
			b.Fatal(err)
		}
		inFlight++
	}
	for inFlight > 0 {
		<-done
		inFlight--
	}
}

// benchMultiConnTC drives 4 KiB TC writes from several concurrent
// connections against one target and reports aggregate throughput.
func benchMultiConnTC(b *testing.B, cfg ServerConfig, dcfg DialConfig, conns int) {
	b.Helper()
	dev, err := bdev.NewMemory(4096, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Mode = ModeOPF
	cfg.Device = dev
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	clients := make([]*Conn, conns)
	for i := range clients {
		c, err := DialWith(srv.Addr(), InitiatorConfig{
			Class: ThroughputCritical, Window: 16, QueueDepth: 64, NSID: 1,
		}, dcfg)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for ci, conn := range clients {
		n := b.N / conns
		if ci < b.N%conns {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			done := make(chan struct{}, 64)
			inFlight := 0
			for i := 0; i < n; i++ {
				for inFlight >= 64 {
					<-done
					inFlight--
				}
				if err := conn.Submit(IO{
					Op: OpWrite, LBA: uint64((ci*1024 + i%1024) * 8), Blocks: 1,
					Data: buf, Done: func(Result) { done <- struct{}{} },
				}); err != nil {
					b.Error(err)
					return
				}
				inFlight++
			}
			for inFlight > 0 {
				<-done
				inFlight--
			}
		}()
	}
	wg.Wait()
}

// BenchmarkMultiConnTCThroughput compares aggregate TC throughput at 4
// concurrent initiator connections: one reactor with one write syscall
// per PDU on both ends — the unbatched, unsharded transport — against the
// sharded batched datapath with -shards=4. With real cores the shards add
// CPU scaling on top of what batching wins.
func BenchmarkMultiConnTCThroughput(b *testing.B) {
	b.Run("baseline-1shard-unbatched", func(b *testing.B) {
		benchMultiConnTC(b,
			ServerConfig{Shards: 1, WriteBatchBytes: 1},
			DialConfig{WriteBatchBytes: 1}, 4)
	})
	b.Run("sharded-4", func(b *testing.B) {
		benchMultiConnTC(b, ServerConfig{Shards: 4}, DialConfig{}, 4)
	})
}

// benchSmallIOReads drives small closed-loop reads from several
// connections against one in-memory target and reports achieved IOPS.
func benchSmallIOReads(b *testing.B, blockSize uint32, conns int, dcfg DialConfig) {
	b.Helper()
	const depth = 64
	srv, err := ListenMemory("127.0.0.1:0", ModeOPF, blockSize, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	clients := make([]*Conn, conns)
	for i := range clients {
		c, err := DialWith(srv.Addr(), InitiatorConfig{
			Class: ThroughputCritical, Window: 16, QueueDepth: depth, NSID: 1,
		}, dcfg)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	b.SetBytes(int64(blockSize))
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for ci, conn := range clients {
		n := b.N / conns
		if ci < b.N%conns {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan struct{}, depth)
			inFlight := 0
			for i := 0; i < n; i++ {
				for inFlight >= depth {
					<-done
					inFlight--
				}
				if err := conn.Submit(IO{
					Op: OpRead, LBA: uint64(ci*8192 + i%8192), Blocks: 1,
					Done: func(Result) { done <- struct{}{} },
				}); err != nil {
					b.Error(err)
					return
				}
				inFlight++
			}
			for inFlight > 0 {
				<-done
				inFlight--
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "IOPS")
	}
}

// BenchmarkSmallIOIOPS measures small-read IOPS over the real transport
// across the sub-4K block sizes the paper's small-IO discussion covers
// (512 B – 4 KiB) at one and four queue pairs. The per-PDU costs —
// header parse, CID allocation, response stamping — dominate at these
// sizes, so this is the regression canary for datapath CPU overhead.
// The coalesced variants turn on host-side submission coalescing
// (DialConfig.CoalesceBytes/CoalesceDelay) so the syscall-amortization
// win — and the latency cost of the aggregation window — is measured
// against the same workload.
func BenchmarkSmallIOIOPS(b *testing.B) {
	for _, bs := range []uint32{512, 1024, 2048, 4096} {
		for _, conns := range []int{1, 4} {
			b.Run(fmt.Sprintf("bs=%d/qp=%d", bs, conns), func(b *testing.B) {
				benchSmallIOReads(b, bs, conns, DialConfig{})
			})
		}
	}
	for _, bs := range []uint32{512, 4096} {
		for _, conns := range []int{1, 4} {
			b.Run(fmt.Sprintf("bs=%d/qp=%d/coalesced", bs, conns), func(b *testing.B) {
				benchSmallIOReads(b, bs, conns, DialConfig{
					CoalesceBytes: 8 << 10,
					CoalesceDelay: 20 * time.Microsecond,
				})
			})
		}
	}
}

// BenchmarkTCPLoopbackLatency measures single-request round-trip latency
// over the real transport (LS class).
func BenchmarkTCPLoopbackLatency(b *testing.B) {
	srv, err := ListenMemory("127.0.0.1:0", ModeOPF, 4096, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr(), InitiatorConfig{
		Class: LatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Read(uint64(i%1024), 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}
