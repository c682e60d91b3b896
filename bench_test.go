package nvmeopf

// One benchmark per table/figure of the paper's evaluation (§V), plus
// datapath micro-benchmarks and the design-choice ablations called out in
// DESIGN.md §6. The figure benchmarks execute the same experiment runners
// as cmd/opf-bench, at a reduced virtual duration so `go test -bench=.`
// stays tractable; run `opf-bench -exp all` for publication-scale tables.

import (
	"testing"

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

// BenchmarkHistogramRecord measures the O(1) record of both views of the
// latency histogram's grid: the plain one the simulator and experiments
// use, and the concurrent one behind the live telemetry.
func BenchmarkHistogramRecord(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		var h stats.Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i%1_000_000 + 50_000))
		}
	})
	b.Run("atomic", func(b *testing.B) {
		var h stats.AtomicHistogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i%1_000_000 + 50_000))
		}
	})
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
