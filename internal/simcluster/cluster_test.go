package simcluster

import (
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

func TestProfiles(t *testing.T) {
	for _, gbps := range []float64{10, 25, 100} {
		p, err := ProfileFor(gbps)
		if err != nil {
			t.Fatalf("%vG: %v", gbps, err)
		}
		if p.LinkGbps != gbps {
			t.Errorf("%vG profile reports %vG", gbps, p.LinkGbps)
		}
		if err := p.Link.Validate(); err != nil {
			t.Errorf("%vG link: %v", gbps, err)
		}
		if err := p.HostCPU.Validate(); err != nil {
			t.Errorf("%vG host cpu: %v", gbps, err)
		}
	}
	if _, err := ProfileFor(40); err == nil {
		t.Error("40G profile should not exist")
	}
	if _, err := ProfileCC(100); err == nil {
		t.Error("CC at 100G should be rejected")
	}
	// The CL platform has faster CPUs than CC (Table I).
	cc, _ := ProfileCC(10)
	cl := ProfileCL()
	if cl.HostCPU.RxPDU >= cc.HostCPU.RxPDU {
		t.Error("CL CPU should be faster than CC")
	}
}

// buildPair returns a one-initiator cluster ready to run.
func buildPair(t *testing.T, mode targetqp.Mode, gbps float64, hostCfg hostqp.Config, backed bool) (*Cluster, *Initiator, *TargetNode) {
	t.Helper()
	prof, err := ProfileFor(gbps)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{Profile: prof, Mode: mode, Seed: 42})
	tn, err := c.NewTargetNode("tgt0", backed)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInitiatorNode("ini0", tn)
	ini, err := in.Connect(hostCfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, ini, tn
}

func TestHandshakeOverSimNetwork(t *testing.T) {
	c, ini, _ := buildPair(t, targetqp.ModeOPF, 100,
		hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}, false)
	if ini.Session.Connected() {
		t.Fatal("connected before events ran")
	}
	c.Run()
	if !ini.Session.Connected() {
		t.Fatal("handshake did not complete")
	}
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	// Handshake took two one-way trips plus CPU time: tens of us.
	if now := c.Eng.Now(); now < 30_000 || now > 500_000 {
		t.Errorf("handshake duration %dns looks wrong", now)
	}
}

func TestSingleReadLatencyPlausible(t *testing.T) {
	c, ini, _ := buildPair(t, targetqp.ModeOPF, 100,
		hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}, false)
	var lat int64 = -1
	ini.Session.OnConnect(func() {
		err := ini.Session.Submit(hostqp.IO{
			Op: nvme.OpRead, LBA: 0, Blocks: 1,
			Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					t.Errorf("status %v", r.Status)
				}
				lat = r.Latency()
			},
		})
		if err != nil {
			t.Error(err)
		}
	})
	c.Run()
	if lat < 0 {
		t.Fatal("read never completed")
	}
	// One 4K read: ~2x15us propagation + ~50us device + CPU + wire
	// -> roughly 85-120us.
	if lat < 60_000 || lat > 250_000 {
		t.Fatalf("single-read latency = %dns, outside plausible envelope", lat)
	}
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndDataIntegrityOverSim(t *testing.T) {
	c, ini, _ := buildPair(t, targetqp.ModeOPF, 100,
		hostqp.Config{Class: proto.PrioThroughputCritical, Window: 2, QueueDepth: 8, NSID: 1}, true)
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i * 13)
	}
	var got []byte
	ini.Session.OnConnect(func() {
		// The read is issued only after the write's completion is
		// observed: two requests in one drain window execute concurrently
		// on the device's channels, so issuing them back-to-back would be
		// a read-your-own-racing-write (window 2 forces the write to wait
		// for a drain, hence the Flush below).
		ini.Session.Flush()
		_ = ini.Session.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: 5, Blocks: 1, Data: want,
			Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					t.Errorf("write: %v", r.Status)
				}
				ini.Session.Flush()
				_ = ini.Session.Submit(hostqp.IO{
					Op: nvme.OpRead, LBA: 5, Blocks: 1,
					Done: func(r hostqp.Result) {
						if !r.Status.OK() {
							t.Errorf("read: %v", r.Status)
						}
						got = r.Data
					},
				})
			},
		})
	})
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d bytes", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}

// runOne runs a closed-loop TC workload for simMillis of virtual time and
// returns the recorded result and the target node.
func runOne(t *testing.T, mode targetqp.Mode, gbps float64, window int, mix workload.Mix, simMillis int64) (*workload.Result, *TargetNode) {
	t.Helper()
	prof, err := ProfileFor(gbps)
	if err != nil {
		t.Fatal(err)
	}
	c := New(Options{Profile: prof, Mode: mode, Seed: 7})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInitiatorNode("ini0", tn)
	ini, err := in.Connect(hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: window, QueueDepth: 128, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := simMillis * 1_000_000
	r, err := workload.NewRunner(ini.Session, c.Eng.Now, workload.Spec{
		Mix: mix, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 128,
		RegionStart: 0, RegionBlocks: 1 << 24,
		WarmupUntil: stop / 5, StopAt: stop, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ini.Session.OnConnect(r.Kick)
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	return r.Result(), tn
}

// TestWriteOnConnectAt25GLeavesClusterHealthy: on the 25 Gbps profile an
// LS initiator's single write, issued from its connect callback, completes
// OK and the run records no protocol error.
func TestWriteOnConnectAt25GLeavesClusterHealthy(t *testing.T) {
	c, ini, _ := buildPair(t, targetqp.ModeOPF, 25,
		hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}, true)
	done := false
	ini.Session.OnConnect(func() {
		_ = ini.Session.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: 1, Blocks: 1, Data: make([]byte, 4096),
			Done: func(r hostqp.Result) { done = r.Status.OK() },
		})
	})
	c.Run()
	if !done {
		t.Fatal("simulated write never completed")
	}
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
}

func TestOPFBeatsBaselineThroughputRead10G(t *testing.T) {
	base, _ := runOne(t, targetqp.ModeBaseline, 10, 32, workload.ReadOnly, 60)
	opf, _ := runOne(t, targetqp.ModeOPF, 10, 32, workload.ReadOnly, 60)
	if base.Recorded.Ops == 0 || opf.Recorded.Ops == 0 {
		t.Fatalf("no ops recorded: base=%d opf=%d", base.Recorded.Ops, opf.Recorded.Ops)
	}
	ratio := float64(opf.Recorded.Ops) / float64(base.Recorded.Ops)
	if ratio < 1.3 {
		t.Fatalf("oPF/SPDK read@10G throughput ratio = %.2f, want > 1.3", ratio)
	}
	t.Logf("read@10G single TC initiator: baseline %.0f IOPS, oPF %.0f IOPS (%.2fx)",
		base.Recorded.IOPS(48_000_000), opf.Recorded.IOPS(48_000_000), ratio)
}

func TestCoalescingReducesWireResponses(t *testing.T) {
	_, tnBase := runOne(t, targetqp.ModeBaseline, 100, 32, workload.ReadOnly, 20)
	_, tnOPF := runOne(t, targetqp.ModeOPF, 100, 32, workload.ReadOnly, 20)
	base := tnBase.Target.Stats()
	opf := tnOPF.Target.Stats()
	// Baseline: one response per command. oPF: ~1/32.
	if base.RespPDUs < base.CmdPDUs {
		t.Fatalf("baseline responses %d < commands %d", base.RespPDUs, base.CmdPDUs)
	}
	if opf.RespPDUs*8 > opf.CmdPDUs {
		t.Fatalf("oPF coalescing weak: %d responses for %d commands", opf.RespPDUs, opf.CmdPDUs)
	}
}

func TestDeterminism(t *testing.T) {
	a, _ := runOne(t, targetqp.ModeOPF, 25, 16, workload.Mixed5050, 10)
	b, _ := runOne(t, targetqp.ModeOPF, 25, 16, workload.Mixed5050, 10)
	if a.Recorded.Ops != b.Recorded.Ops || a.Latency.Sum() != b.Latency.Sum() {
		t.Fatalf("same seed diverged: %d/%d ops, %d/%d latsum",
			a.Recorded.Ops, b.Recorded.Ops, a.Latency.Sum(), b.Latency.Sum())
	}
}

func TestLSTailLatencyUnderTCLoad(t *testing.T) {
	// One LS + one TC initiator on separate nodes against one target:
	// baseline queues the LS request behind the TC backlog; oPF bypasses.
	run := func(mode targetqp.Mode) (tail int64) {
		prof := ProfileCL()
		c := New(Options{Profile: prof, Mode: mode, Seed: 3})
		tn, err := c.NewTargetNode("tgt0", false)
		if err != nil {
			t.Fatal(err)
		}
		lsNode := c.NewInitiatorNode("ls0", tn)
		tcNode := c.NewInitiatorNode("tc0", tn)
		lsIni, err := lsNode.Connect(hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
		if err != nil {
			t.Fatal(err)
		}
		tcIni, err := tcNode.Connect(hostqp.Config{Class: proto.PrioThroughputCritical, Window: 32, QueueDepth: 128, NSID: 1})
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
		tcRun, err := workload.NewRunner(tcIni.Session, c.Eng.Now, workload.Spec{
			Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 128,
			RegionStart: 1 << 20, RegionBlocks: 1 << 20, WarmupUntil: stop / 5, StopAt: stop, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		lsIni.Session.OnConnect(lsRun.Kick)
		tcIni.Session.OnConnect(tcRun.Kick)
		c.Run()
		if err := c.CheckHealthy(); err != nil {
			t.Fatal(err)
		}
		if lsRun.Result().Latency.Count() == 0 {
			t.Fatal("no LS samples")
		}
		return lsRun.Result().Latency.Tail()
	}
	baseTail := run(targetqp.ModeBaseline)
	opfTail := run(targetqp.ModeOPF)
	if opfTail >= baseTail {
		t.Fatalf("LS tail latency: oPF %d >= baseline %d", opfTail, baseTail)
	}
	t.Logf("LS tail: baseline %dus, oPF %dus", baseTail/1000, opfTail/1000)
}
