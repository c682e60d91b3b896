package simcluster

import (
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// TestE2EExactMergeAcrossFabric is the feedback channel's core
// correctness claim, asserted over the full simulated fabric: every
// latency the host observes is also what the host's own registry records,
// and the target's merged per-tenant e2e histogram must equal that
// registry's histogram EXACTLY — bucket counts, sum, sample count, and
// max — because both sides share one bucket geometry and deltas merge by
// addition, never by re-sampling.
func TestE2EExactMergeAcrossFabric(t *testing.T) {
	prof, err := ProfileFor(100)
	if err != nil {
		t.Fatal(err)
	}
	targetTel := telemetry.New()
	hostTel := telemetry.New()
	c := New(Options{
		Profile: prof, Mode: targetqp.ModeOPF, Seed: 7,
		Telemetry:       targetTel,
		HostTelemetryNS: 200_000, // 200 µs virtual cadence
	})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInitiatorNode("ini0", tn)
	ls, err := in.Connect(hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1,
		Telemetry: hostTel,
	})
	if err != nil {
		t.Fatal(err)
	}

	const reqs = 64
	done := 0
	ls.Session.OnConnect(func() {
		var issue func()
		issue = func() {
			if done >= reqs {
				return
			}
			_ = ls.Session.Submit(hostqp.IO{
				Op: nvme.OpRead, LBA: uint64(done), Blocks: 1,
				Done: func(hostqp.Result) { done++; issue() },
			})
		}
		issue()
	})
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	if done != reqs {
		t.Fatalf("completed %d/%d", done, reqs)
	}
	tenant := ls.Session.Tenant()

	// The final tick after the workload drained shipped the last delta, so
	// the merge must now be exact, not just eventually close.
	hostHist := hostTel.LatencyHist(tenant, telemetry.ClassLS)
	merged := targetTel.E2EHist(tenant, telemetry.ClassLS)
	if hostHist == nil || merged == nil {
		t.Fatalf("histograms missing: host=%v target=%v", hostHist != nil, merged != nil)
	}
	want, got := hostHist.Snapshot(), merged.Snapshot()
	if got.Count() != int64(reqs) {
		t.Fatalf("target merged %d samples, want %d", got.Count(), reqs)
	}
	for i := 0; i < stats.NumBuckets; i++ {
		if got.Bucket(i) != want.Bucket(i) {
			t.Fatalf("bucket %d: merged %d, host %d", i, got.Bucket(i), want.Bucket(i))
		}
	}
	if got.Sum() != want.Sum() || got.Max() != want.Max() {
		t.Fatalf("sum/max: got (%d, %d), want (%d, %d)", got.Sum(), got.Max(), want.Sum(), want.Max())
	}

	// The e2e view includes the fabric: its p99 dominates the target-side
	// service p99, and the snapshot reports the gap.
	var found bool
	for _, s := range targetTel.E2E() {
		if s.Tenant != uint16(tenant) {
			continue
		}
		found = true
		if s.Updates == 0 {
			t.Fatal("no updates counted")
		}
		for _, cs := range s.Classes {
			if cs.Class != "ls" {
				continue
			}
			if cs.GapP99NS <= 0 {
				t.Fatalf("egress gap %dns, want > 0 (e2e includes the fabric)", cs.GapP99NS)
			}
		}
	}
	if !found {
		t.Fatal("tenant missing from /debug/e2e snapshot")
	}

	// The acks drove periodic clock re-estimates on the host. Both sides
	// share the virtual clock, so every estimate must stay within its RTT
	// error bound.
	count, _ := hostTel.ClockReestimates(tenant)
	if count == 0 {
		t.Fatal("no clock re-estimates recorded")
	}
	off, rtt := ls.Session.ClockOffset()
	if rtt <= 0 {
		t.Fatalf("rtt %d, want > 0", rtt)
	}
	if off < -rtt || off > rtt {
		t.Fatalf("shared-clock offset estimate %dns exceeds RTT bound %dns", off, rtt)
	}
}

// TestE2EChannelOffBitIdentical pins that a cluster without
// HostTelemetryNS produces zero feedback state: same wire, same stats,
// same registries as before the feature existed.
func TestE2EChannelOffBitIdentical(t *testing.T) {
	prof, err := ProfileFor(100)
	if err != nil {
		t.Fatal(err)
	}
	targetTel := telemetry.New()
	c := New(Options{Profile: prof, Mode: targetqp.ModeOPF, Seed: 7, Telemetry: targetTel})
	tn, err := c.NewTargetNode("tgt0", false)
	if err != nil {
		t.Fatal(err)
	}
	in := c.NewInitiatorNode("ini0", tn)
	ls, err := in.Connect(hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	ls.Session.OnConnect(func() {
		for i := 0; i < 4; i++ {
			_ = ls.Session.Submit(hostqp.IO{
				Op: nvme.OpRead, LBA: uint64(i), Blocks: 1,
				Done: func(hostqp.Result) { done++ },
			})
		}
	})
	c.Run()
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
	if st := tn.Target.Stats(); st.TelemetryUpdates != 0 {
		t.Fatalf("%d TelemetryUpdates with the channel off", st.TelemetryUpdates)
	}
	if e2e := targetTel.E2E(); len(e2e) != 0 {
		t.Fatalf("e2e state with the channel off: %+v", e2e)
	}
}
