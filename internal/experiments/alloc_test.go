package experiments

import (
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
// most 1.0 object per command in oPF mode (39 before the engine stopped
// boxing events and the fabric and device models stopped building closures
// per hop, 2.84 while the simulator left every delivered PDU to the GC
// instead of recycling it into proto's pools). What remains is mostly
// warm-up: the free lists of transit, request and device-op records and
// read buffers growing to the case's queue depths, and proto's pools
// filling. In steady state only each TC window's coalesced-completion
// slice is new. Baseline mode runs fewer commands over a deeper backlog,
// so its warm-up weighs more (1.14; 5.12 before); every one of its TC
// responses is individual, and a HostPM that built a slice per answer
// would add one object per command.
func TestFig7CaseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	budgets := map[targetqp.Mode]float64{targetqp.ModeOPF: 1.0, targetqp.ModeBaseline: 1.5}
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
			t.Errorf("%v: %.2f objects per simulated I/O over %d commands, budget %.1f", mode, perIO, cmds, budgets[mode])
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
