package simcluster

import (
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// TestTransitRoundTripAllocatesNothing pins the fabric model's per-PDU
// cost at zero objects and one event per shared resource: a command
// capsule crossing host poller, cable, target NIC and target poller,
// answered by a data PDU and a response crossing back, takes seven engine
// events. The command's cable is handed the capsule when the host poller
// schedules it, and the way back hands both the NIC's egress and the cable
// over from the target poller; what is left is the NIC's ingress and the
// pollers on the receiving side. Transit records are warmed and reused,
// and every PDU is drawn from proto's pools, as the sessions do, and goes
// back after delivery. The protocol sessions are replaced by stubs so
// only the transit path is measured.
func TestTransitRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c, ini, _ := buildPair(t, targetqp.ModeOPF, 100,
		hostqp.Config{Class: proto.PrioThroughputCritical, Window: 16, QueueDepth: 32, NSID: 1}, false)
	c.Run() // the handshake, through the real sessions

	payload := make([]byte, 4096)
	delivered := 0
	ini.toTarget.deliver = func(p proto.PDU) error {
		delivered++
		d := proto.GetC2HData()
		d.Data = payload
		ini.toHost.send(d) // both in flight at once: two records
		ini.toHost.send(proto.GetCapsuleResp())
		return nil
	}
	ini.toHost.deliver = func(proto.PDU) error { delivered++; return nil }

	events, ran := c.Eng.Pending(), c.Eng.Executed()
	allocs := testing.AllocsPerRun(200, func() {
		ini.toTarget.send(proto.GetCapsuleCmd())
		c.Run()
	})
	if allocs != 0 {
		t.Errorf("one PDU round trip allocated %.1f objects, want 0", allocs)
	}
	if delivered != 3*201 || c.Eng.Pending() != events {
		t.Fatalf("delivered %d PDUs over 201 round trips, %d events left", delivered, c.Eng.Pending())
	}
	if n := c.Eng.Executed() - ran; n != 7*201 {
		t.Errorf("201 round trips ran %d events, want 7 each", n)
	}
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
}

// TestTransitRecordsBelongToTheCluster: two clusters never share a free
// list (the golden tests run simulations in parallel), and a record on it
// holds no PDU.
func TestTransitRecordsBelongToTheCluster(t *testing.T) {
	hostCfg := hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}
	a, _, _ := buildPair(t, targetqp.ModeOPF, 100, hostCfg, false)
	b, _, _ := buildPair(t, targetqp.ModeOPF, 100, hostCfg, false)
	a.Run()
	if a.freeTransits == nil {
		t.Fatal("the handshake left no recycled transit record")
	}
	if b.freeTransits != nil {
		t.Fatal("a record used by cluster a reached cluster b's free list")
	}
	for r := a.freeTransits; r != nil; r = r.next {
		if r.pdu != nil || r.route != nil {
			t.Fatal("a recycled transit record still references its PDU")
		}
	}
}
