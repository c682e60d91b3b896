package simcluster

import (
	"fmt"
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// runLSWithBackground runs one closed-loop LS reader (QD 1, the paper's
// latency probe) against a target, optionally alongside background write
// initiators of the given class, and returns the LS tail latency, the
// total background ops recorded, and the target node for stats
// inspection.
func runLSWithBackground(t *testing.T, bgCount int, bgClass proto.Priority, aging int64) (int64, int64, *TargetNode) {
	t.Helper()
	c := New(Options{Profile: ProfileCL(), Mode: targetqp.ModeOPF, Seed: 11, ScavengerAging: aging})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	lsNode := c.NewInitiatorNode("ls0", tn)
	lsIni, err := lsNode.Connect(hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	stop := int64(80_000_000)
	lsRun, err := workload.NewRunner(lsIni.Session, c.Eng.Now, workload.Spec{
		Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 1,
		RegionStart: 0, RegionBlocks: 1 << 20, WarmupUntil: stop / 5, StopAt: stop, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	bgRuns := make([]*workload.Runner, 0, bgCount)
	for i := 0; i < bgCount; i++ {
		n := c.NewInitiatorNode(fmt.Sprintf("bg%d", i), tn)
		ini, cerr := n.Connect(hostqp.Config{Class: bgClass, Window: 8, QueueDepth: 16, NSID: 1})
		if cerr != nil {
			t.Fatal(cerr)
		}
		r, werr := workload.NewRunner(ini.Session, c.Eng.Now, workload.Spec{
			Mix: workload.WriteOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 16,
			RegionStart: uint64(1+i) << 20, RegionBlocks: 1 << 20,
			WarmupUntil: stop / 5, StopAt: stop, Seed: uint64(40 + i),
		})
		if werr != nil {
			t.Fatal(werr)
		}
		bgRuns = append(bgRuns, r)
	}
	lsRun.Start()
	for _, r := range bgRuns {
		r.Start()
	}
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	if lsRun.Result().Latency.Count() == 0 {
		t.Fatal("no LS samples")
	}
	var bgOps int64
	for _, r := range bgRuns {
		bgOps += r.Result().Recorded.Ops
	}
	return lsRun.Result().Latency.Tail(), bgOps, tn
}

// TestScavengerNoisyNeighbor is the headline property of the class: a
// sustained stream of best-effort background writes makes forward progress
// but cannot move the LS tail, because scavenger windows drain only into
// leftover capacity and in bounded chunks. The same stream labelled
// throughput-critical is the control: its drain windows hit the device on
// their own schedule, so it visibly does move the LS tail.
func TestScavengerNoisyNeighbor(t *testing.T) {
	aloneTail, _, _ := runLSWithBackground(t, 0, proto.PrioScavenger, 0)
	scavTail, scavOps, tn := runLSWithBackground(t, 2, proto.PrioScavenger, 0)
	if scavOps == 0 {
		t.Fatal("scavenger flood recorded no ops — background class starved outright")
	}
	pm := tn.Target.PMStats()
	if pm.ScavQueued == 0 || pm.ScavDrains == 0 {
		t.Fatalf("scavenger path not exercised: queued=%d drains=%d", pm.ScavQueued, pm.ScavDrains)
	}
	// The LS probe runs at QD 1 with the bypass, so its tail should be
	// essentially unchanged by best-effort load. Allow 25% slack for the
	// shared target NIC/CPU pipe (capsule serialization is below the
	// priority scheme) plus an absolute floor so a near-zero baseline
	// doesn't make the ratio twitchy.
	limit := aloneTail + aloneTail/4 + 20_000
	if scavTail > limit {
		t.Fatalf("LS tail moved under scavenger flood: alone %dus, flooded %dus (limit %dus)",
			aloneTail/1000, scavTail/1000, limit/1000)
	}
	// Control: the identical stream submitted as TC interferes more — if it
	// doesn't, this test is measuring an unloaded target, not isolation.
	tcTail, tcOps, _ := runLSWithBackground(t, 2, proto.PrioThroughputCritical, 0)
	if tcOps == 0 {
		t.Fatal("TC control flood recorded no ops")
	}
	if scavTail >= tcTail {
		t.Fatalf("scavenger flood hurt LS at least as much as the TC control: scav %dus >= tc %dus",
			scavTail/1000, tcTail/1000)
	}
	t.Logf("LS tail: alone %dus, scavenger flood %dus (%d ops), TC control %dus (%d ops)",
		aloneTail/1000, scavTail/1000, scavOps, tcTail/1000, tcOps)
}

// TestScavengerAgedDrainUnderContinuousLS pins the aging bound: a deep
// closed-loop LS stream keeps lsPending nonzero at every poll point, so a
// parked scavenger window would starve forever without ScavengerAging. With
// aging set, the window force-drains and the scavenger ops complete while
// the foreground stream is still running.
func TestScavengerAgedDrainUnderContinuousLS(t *testing.T) {
	c := New(Options{Profile: ProfileCL(), Mode: targetqp.ModeOPF, Seed: 13, ScavengerAging: 2_000_000})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	lsNode := c.NewInitiatorNode("ls0", tn)
	lsIni, err := lsNode.Connect(hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 128, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	scavNode := c.NewInitiatorNode("scav0", tn)
	scavIni, err := scavNode.Connect(hostqp.Config{Class: proto.PrioScavenger, Window: 4, QueueDepth: 8, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	stop := int64(60_000_000)
	lsRun, err := workload.NewRunner(lsIni.Session, c.Eng.Now, workload.Spec{
		Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 128,
		RegionStart: 0, RegionBlocks: 1 << 20, WarmupUntil: stop / 5, StopAt: stop, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	const scavIOs = 4
	doneAt := make([]int64, 0, scavIOs)
	scavIni.Session.OnConnect(func() {
		payload := make([]byte, scavIni.Session.BlockSize())
		for i := 0; i < scavIOs; i++ {
			lba := uint64(1<<20 + i)
			if serr := scavIni.Session.Submit(hostqp.IO{
				Op: nvme.OpWrite, LBA: lba, Blocks: 1, Data: payload,
				Done: func(r hostqp.Result) {
					if !r.Status.OK() {
						t.Errorf("scavenger write: %v", r.Status)
					}
					doneAt = append(doneAt, c.Eng.Now())
				},
			}); serr != nil {
				t.Errorf("scavenger submit: %v", serr)
			}
		}
	})
	lsRun.Start()
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	if len(doneAt) != scavIOs {
		t.Fatalf("parked scavenger window never completed: %d/%d ops done", len(doneAt), scavIOs)
	}
	for _, at := range doneAt {
		if at >= stop {
			t.Fatalf("scavenger op completed at %dns, after the LS stream stopped at %dns — "+
				"aging did not release the window under load", at, stop)
		}
	}
	pm := tn.Target.PMStats()
	if pm.ScavAgedDrains == 0 {
		t.Fatalf("no aged drains recorded (drains=%d) — scavenger progressed on leftover capacity, "+
			"so this test no longer exercises the aging bound", pm.ScavDrains)
	}
	t.Logf("scavenger ops completed at %v ns under continuous LS (aged drains: %d)", doneAt, pm.ScavAgedDrains)
}
