package experiments

import (
	"runtime"
	"testing"

	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// fig7BudgetCase is the case the simulator's cost budgets are pinned on:
// the Fig. 7 topology (100 Gbps, fan-in, 1 LS + 3 TC readers), oPF mode.
var fig7BudgetCase = Case{Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 3}

func fig7BudgetConfig() Config { return Config{SimMillis: 10, WarmupMillis: 5, Seed: 1} }

// TestFig7CaseAllocationBudget pins what one simulated I/O costs the
// allocator across the whole stack — workload, both protocol sessions,
// fabric model, device model, engine — cluster construction included: at
// most 0.85 object per command in oPF mode (39 before the engine stopped
// boxing events and the fabric and device models stopped building closures
// per hop, 2.84 while the simulator left every delivered PDU to the GC,
// 0.87 while each read's payload was copied into a buffer the host session
// lent it; 0.79 since). What remains is warm-up: the free lists of transit,
// request and device-op records and of PDU structs growing to the case's
// queue depths. In steady state only each TC window's coalesced-completion
// slice is new. Baseline mode runs fewer commands over a deeper backlog,
// so its warm-up weighs more (1.25, budget 1.3); every one of its TC
// responses is individual, and a HostPM that built a slice per answer
// would add one object per command.
func TestFig7CaseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	budgets := map[targetqp.Mode]float64{targetqp.ModeOPF: 0.85, targetqp.ModeBaseline: 1.3}
	for _, mode := range []targetqp.Mode{targetqp.ModeOPF, targetqp.ModeBaseline} {
		cs := fig7BudgetCase
		cs.Mode = mode
		var cmds int64
		allocs := testing.AllocsPerRun(1, func() {
			r, err := Run(fig7BudgetConfig(), cs)
			if err != nil {
				t.Fatal(err)
			}
			cmds = r.CmdPDUs
		})
		perIO := allocs / float64(cmds)
		t.Logf("%v: %.0f objects for %d commands: %.2f per I/O", mode, allocs, cmds, perIO)
		if cmds < 1000 || perIO > budgets[mode] {
			t.Errorf("%v: %.2f objects per simulated I/O over %d commands, budget %.2f", mode, perIO, cmds, budgets[mode])
		}
	}
}

// TestFig7CaseEventBudget pins how many engine events one simulated I/O
// takes in the same case: at most 8.5 per command (10.25 at this window
// while every hop of every PDU was an event of its own; 7.12 since). A PDU
// costs one event per shared resource it crosses: a link direction fed by
// one resource alone is handed the PDU when it is scheduled. Like the
// event order, the count is a function of the seed, so this pin is exact
// on any machine and at any GOMAXPROCS.
func TestFig7CaseEventBudget(t *testing.T) {
	var cl *simcluster.Cluster
	cfg := fig7BudgetConfig()
	cfg.OnCluster = func(c *simcluster.Cluster) { cl = c }
	r, err := Run(cfg, fig7BudgetCase)
	if err != nil {
		t.Fatal(err)
	}
	perIO := float64(cl.Eng.Executed()) / float64(r.CmdPDUs)
	t.Logf("%d events for %d commands: %.2f per I/O", cl.Eng.Executed(), r.CmdPDUs, perIO)
	if r.CmdPDUs < 1000 || perIO > 8.5 {
		t.Fatalf("%.2f events per simulated I/O over %d commands, budget 8.5", perIO, r.CmdPDUs)
	}
}

// BenchmarkFig7Case times the budget case in both modes: wall time, engine
// events and heap objects per simulated I/O, cluster construction and
// warm-up included. The event count is exact; ns/io is the simulator's
// cost on the machine it runs on, the local instrument for a change to the
// event core, the fabric or device models, or either protocol session.
//
//	go test ./internal/experiments/ -run '^$' -bench Fig7Case -benchtime 20x -count 5
func BenchmarkFig7Case(b *testing.B) {
	for _, mode := range []targetqp.Mode{targetqp.ModeOPF, targetqp.ModeBaseline} {
		b.Run(mode.String(), func(b *testing.B) {
			cs := fig7BudgetCase
			cs.Mode = mode
			var cl *simcluster.Cluster
			cfg := fig7BudgetConfig()
			cfg.OnCluster = func(c *simcluster.Cluster) { cl = c }
			var cmds int64
			var events uint64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Run(cfg, cs)
				if err != nil {
					b.Fatal(err)
				}
				cmds += r.CmdPDUs
				events += cl.Eng.Executed()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			ios := float64(cmds)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/ios, "ns/io")
			b.ReportMetric(float64(events)/ios, "events/io")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/ios, "allocs/io")
		})
	}
}
