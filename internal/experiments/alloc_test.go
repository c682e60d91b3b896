package experiments

import (
	"testing"

	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// TestFig7CaseAllocationBudget pins what one simulated I/O costs the
// allocator across the whole stack — workload, both protocol sessions,
// fabric model, device model, engine — cluster construction included: at
// most 3.5 objects per command (39 before the engine stopped boxing events
// and the fabric and device models stopped building closures per hop, 3.8
// while the workload built its completion callback per request). What
// remains is the PDUs themselves.
func TestFig7CaseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := Config{SimMillis: 10, WarmupMillis: 5, Seed: 1}
	cs := Case{Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 3}
	var cmds int64
	allocs := testing.AllocsPerRun(1, func() {
		r, err := Run(cfg, cs)
		if err != nil {
			t.Fatal(err)
		}
		cmds = r.CmdPDUs
	})
	perIO := allocs / float64(cmds)
	t.Logf("%.0f objects for %d commands: %.2f per I/O", allocs, cmds, perIO)
	if cmds < 1000 || perIO > 3.5 {
		t.Fatalf("%.2f objects per simulated I/O over %d commands, budget 3.5", perIO, cmds)
	}
}
