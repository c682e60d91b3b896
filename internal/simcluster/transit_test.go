package simcluster

import (
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// TestTransitRoundTripAllocatesNothing pins the fabric model's per-PDU
// cost at zero objects: a command capsule crossing host poller, link,
// target NIC and target poller, answered by a data PDU and a response
// crossing back — twelve hops, twelve engine events — reuses warmed
// transit records and builds no closure. The protocol sessions are
// replaced by stubs so only the transit path is measured.
func TestTransitRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c, ini, _ := buildPair(t, targetqp.ModeOPF, 100,
		hostqp.Config{Class: proto.PrioThroughputCritical, Window: 16, QueueDepth: 32, NSID: 1}, false)
	c.Run() // the handshake, through the real sessions

	cmd := &proto.CapsuleCmd{}
	data := &proto.C2HData{Data: make([]byte, 4096)}
	resp := &proto.CapsuleResp{}
	delivered := 0
	ini.toTarget.deliver = func(p proto.PDU) error {
		delivered++
		ini.toHost.send(data) // both in flight at once: two records
		ini.toHost.send(resp)
		return nil
	}
	ini.toHost.deliver = func(proto.PDU) error { delivered++; return nil }

	events := c.Eng.Pending()
	allocs := testing.AllocsPerRun(200, func() {
		ini.toTarget.send(cmd)
		c.Run()
	})
	if allocs != 0 {
		t.Errorf("one PDU round trip allocated %.1f objects, want 0", allocs)
	}
	if delivered != 3*201 || c.Eng.Pending() != events {
		t.Fatalf("delivered %d PDUs over 201 round trips, %d events left", delivered, c.Eng.Pending())
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
