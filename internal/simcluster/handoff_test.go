package simcluster

import (
	"fmt"
	"reflect"
	"testing"

	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simnet"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
	"nvmeopf/internal/workload"
)

// noFaults is a fault profile that never delays or drops. Attached to a
// link it changes no timing, but it stops routes from handing PDUs to the
// link early: every hop crossing it becomes an event of its own, which is
// the reference the hand-off is checked against.
type noFaults struct{}

func (noFaults) Apply(int, int) (simnet.Time, bool) { return 0, false }

// handOffTenant is one initiator of a hand-off case.
type handOffTenant struct {
	node  int // index of its initiator node
	class proto.Priority
	mix   workload.Mix
	qd    int
}

// completion is one request the host saw complete, and when.
type completion struct {
	cid nvme.CID
	at  int64
}

// handOffRun is everything a case's run produces that a report reads:
// the workload results and target counters a CaseResult is computed from,
// every link's counters, each tenant's completions in order with their
// timestamps, and where the clock ended.
type handOffRun struct {
	results  []workload.Result
	target   targetqp.Stats
	pm       core.TargetPMStats
	links    []simnet.LinkStats
	done     [][]completion
	now      int64
	executed uint64 // events run: the one thing allowed to differ
}

// runHandOffCase runs tenants against one CL-100G target, each initiator
// node on its own cable. perHop attaches noFaults to every link first.
func runHandOffCase(t *testing.T, mode targetqp.Mode, nodes int, tenants []handOffTenant, perHop bool) handOffRun {
	t.Helper()
	c := New(Options{Profile: ProfileCL(), Mode: mode, Seed: 5, ScavengerAging: 2_000_000})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	links := []*simnet.Link{tn.NIC}
	var ins []*InitiatorNode
	for i := 0; i < nodes; i++ {
		in := c.NewInitiatorNode(fmt.Sprintf("ini%d", i), tn)
		ins = append(ins, in)
		links = append(links, in.Link)
	}
	if perHop {
		for _, l := range links {
			l.SetFaults(noFaults{})
		}
	}
	tcs := 0
	for _, tc := range tenants {
		if tc.class.ThroughputCritical() {
			tcs++
		}
	}
	const warm, stop = 2_000_000, 12_000_000
	// Every initiator records into one host flight recorder on the virtual
	// clock. A request leaves at most four host events and no tenant
	// completes 2000 in a run, so no tenant's ring wraps.
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Clock: c.Eng.Now, PerTenant: 1 << 14})
	run := handOffRun{done: make([][]completion, len(tenants))}
	var runners []*workload.Runner
	var inis []*Initiator
	for i, tc := range tenants {
		ini, err := ins[tc.node].Connect(hostqp.Config{
			Class: tc.class, Window: core.OptimalWindow(core.WorkloadRead, 100, tcs, tc.qd),
			QueueDepth: tc.qd, NSID: 1, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		inis = append(inis, ini)
		r, err := workload.NewRunner(ini.Session, c.Eng.Now, workload.Spec{
			Mix: tc.mix, Pattern: workload.Sequential, Blocks: 1, QueueDepth: tc.qd,
			RegionStart: uint64(i) << 20, RegionBlocks: 1 << 20,
			WarmupUntil: warm, StopAt: stop, Seed: uint64(11 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ini.Session.OnConnect(r.Kick)
		runners = append(runners, r)
	}
	run.now = c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	// Each tenant's completions in order, from its ring: one tenant's
	// events sort by stamp, then by emission, so the first one seen is the
	// oldest retained.
	index := map[uint16]int{}
	for i, ini := range inis {
		index[uint16(ini.Session.Tenant())] = i
	}
	seen := map[uint16]bool{}
	for _, e := range rec.Events() {
		if !seen[e.Tenant] && e.Seq != 0 {
			t.Fatalf("tenant %d's ring wrapped: its oldest event is number %d", e.Tenant, e.Seq)
		}
		seen[e.Tenant] = true
		i := index[e.Tenant]
		if telemetry.Stage(e.Stage) == telemetry.StageComplete {
			run.done[i] = append(run.done[i], completion{nvme.CID(e.CID), e.TS})
		}
	}
	for _, r := range runners {
		run.results = append(run.results, *r.Result())
	}
	run.target, run.pm = tn.Target.Stats(), tn.Target.PMStats()
	for _, l := range links {
		run.links = append(run.links, l.Stats(simnet.DirAtoB), l.Stats(simnet.DirBtoA))
	}
	run.executed = c.Eng.Executed()
	return run
}

// TestHandOffMatchesPerHopEvents: handing a PDU to a link direction when
// it is scheduled, instead of from an event when it clears the resource
// before, must change nothing but the number of events run. Each case runs
// twice, once with a no-op fault profile on every link (one event per hop)
// and once without, in both target modes: the Fig. 7 case (one LS and
// three TC readers, each on its own node) and an LS + TC + scavenger mix
// of reads and writes where tenants share initiator nodes, so cables and
// host pollers carry several connections at once.
func TestHandOffMatchesPerHopEvents(t *testing.T) {
	ls := proto.PrioLatencySensitive
	tc := proto.PrioThroughputCritical
	scav := proto.PrioScavenger
	cases := []struct {
		name    string
		nodes   int
		tenants []handOffTenant
	}{
		{"fig7", 4, []handOffTenant{
			{0, ls, workload.ReadOnly, 1},
			{1, tc, workload.ReadOnly, 128},
			{2, tc, workload.ReadOnly, 128},
			{3, tc, workload.ReadOnly, 128},
		}},
		{"ls-tc-scavenger", 2, []handOffTenant{
			{0, ls, workload.ReadOnly, 1},
			{0, tc, workload.Mixed5050, 64},
			{1, scav, workload.WriteOnly, 32},
			{1, tc, workload.ReadOnly, 64},
		}},
	}
	for _, cs := range cases {
		for _, mode := range []targetqp.Mode{targetqp.ModeOPF, targetqp.ModeBaseline} {
			t.Run(fmt.Sprintf("%s/%v", cs.name, mode), func(t *testing.T) {
				perHop := runHandOffCase(t, mode, cs.nodes, cs.tenants, true)
				early := runHandOffCase(t, mode, cs.nodes, cs.tenants, false)
				if early.executed >= perHop.executed {
					t.Fatalf("the hand-off ran %d events, one event per hop %d: no hop was handed over early",
						early.executed, perHop.executed)
				}
				t.Logf("%d events per hop, %d with the hand-off", perHop.executed, early.executed)
				total := 0
				for i, d := range perHop.done {
					// Baseline mode keeps the LS reader behind the flood:
					// a handful of its requests complete, not hundreds.
					if len(d) < 5 {
						t.Fatalf("tenant %d completed only %d requests", i, len(d))
					}
					total += len(d)
				}
				if total < 2000 {
					t.Fatalf("only %d requests completed", total)
				}
				perHop.executed, early.executed = 0, 0
				if !reflect.DeepEqual(perHop, early) {
					for i := range perHop.done {
						if !reflect.DeepEqual(perHop.done[i], early.done[i]) {
							t.Errorf("tenant %d: completions differ", i)
						}
					}
					t.Fatalf("runs differ:\nper hop: %+v\nearly:   %+v", perHop.results, early.results)
				}
			})
		}
	}
}

// dropAll is a fault profile that loses every message.
type dropAll struct{}

func (dropAll) Apply(int, int) (simnet.Time, bool) { return 0, true }

// TestHandOffStopsAtAFaultyLink: a link with a fault profile is reached
// through an event, and so is the link after it. A PDU the profile drops
// is never delivered, even though the cable behind the target NIC's egress
// would otherwise take it straight from the NIC.
func TestHandOffStopsAtAFaultyLink(t *testing.T) {
	c, ini, tn := buildPair(t, targetqp.ModeOPF, 100,
		hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}, false)
	c.Run()
	tn.NIC.SetFaults(dropAll{})
	delivered := 0
	ini.toHost.deliver = func(proto.PDU) error { delivered++; return nil }
	ini.toHost.send(proto.GetCapsuleResp())
	c.Run()
	if dropped := tn.NIC.Stats(simnet.DirBtoA).Dropped; delivered != 0 || dropped != 1 {
		t.Fatalf("%d delivered, %d dropped; want the NIC to drop the response", delivered, dropped)
	}
}
