package simcluster

import (
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
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
// pollers on the receiving side. Transit records are warmed and reused.
// The protocol sessions are replaced by stubs so only the transit path is
// measured, and so are their free lists: each stub draws its PDUs from a
// list of its own side, as the sessions do, and each route hands a
// delivered PDU back to the list of the side that sent it.
func TestTransitRoundTripAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c, ini, _ := buildPair(t, targetqp.ModeOPF, 100,
		hostqp.Config{Class: proto.PrioThroughputCritical, Window: 16, QueueDepth: 32, NSID: 1}, false)
	c.Run() // the handshake, through the real sessions

	var cmds, datas, resps freeList
	ini.toTarget.reclaim = cmds.put
	ini.toHost.reclaim = func(p proto.PDU) {
		if _, ok := p.(*proto.C2HData); ok {
			datas.put(p)
		} else {
			resps.put(p)
		}
	}
	payload := make([]byte, 4096)
	delivered := 0
	ini.toTarget.deliver = func(p proto.PDU) error {
		delivered++
		d := datas.get(func() proto.PDU { return new(proto.C2HData) }).(*proto.C2HData)
		d.Data = payload
		ini.toHost.send(d) // both in flight at once: two records
		ini.toHost.send(resps.get(func() proto.PDU { return new(proto.CapsuleResp) }))
		return nil
	}
	ini.toHost.deliver = func(proto.PDU) error { delivered++; return nil }
	sendCmd := func() { ini.toTarget.send(cmds.get(func() proto.PDU { return new(proto.CapsuleCmd) })) }
	sendCmd()
	c.Run() // fill the lists
	delivered = 0

	events, ran := c.Eng.Pending(), c.Eng.Executed()
	allocs := testing.AllocsPerRun(200, func() {
		sendCmd()
		c.Run()
	})
	if allocs != 0 {
		t.Errorf("one PDU round trip allocated %.1f objects, want 0", allocs)
	}
	if delivered != 3*201 || c.Eng.Pending() != events || len(cmds)+len(datas)+len(resps) != 3 {
		t.Fatalf("delivered %d PDUs over 201 round trips, %d events left, %d PDUs back on the lists",
			delivered, c.Eng.Pending(), len(cmds)+len(datas)+len(resps))
	}
	if n := c.Eng.Executed() - ran; n != 7*201 {
		t.Errorf("201 round trips ran %d events, want 7 each", n)
	}
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
}

// freeList stands in for a protocol session's PDU free list.
type freeList []proto.PDU

func (l *freeList) put(p proto.PDU) { *l = append(*l, p) }

func (l *freeList) get(fresh func() proto.PDU) proto.PDU {
	n := len(*l)
	if n == 0 {
		return fresh()
	}
	p := (*l)[n-1]
	*l = (*l)[:n-1]
	return p
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

// TestDeliveredPDUsReturnToTheirSender: with the real sessions, a capsule
// the target has handled goes back to the host session that sent it and
// out again in that session's next command, never in a sibling's, and a
// data PDU goes back to the target that sent it for its next read.
func TestDeliveredPDUsReturnToTheirSender(t *testing.T) {
	c, a, _ := buildPair(t, targetqp.ModeOPF, 100,
		hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}, false)
	b, err := a.Node.Connect(hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	var cmds []*proto.CapsuleCmd
	var datas []*proto.C2HData
	for _, ini := range []*Initiator{a, b} {
		toTarget, toHost := ini.toTarget.deliver, ini.toHost.deliver
		ini.toTarget.deliver = func(p proto.PDU) error {
			cmds = append(cmds, p.(*proto.CapsuleCmd))
			return toTarget(p)
		}
		ini.toHost.deliver = func(p proto.PDU) error {
			if d, ok := p.(*proto.C2HData); ok {
				datas = append(datas, d)
			}
			return toHost(p)
		}
	}
	read := func(ini *Initiator) {
		t.Helper()
		ok := false
		if err := ini.Session.Submit(hostqp.IO{Op: nvme.OpRead, Blocks: 1, Done: func(r hostqp.Result) { ok = r.Status.OK() }}); err != nil {
			t.Fatal(err)
		}
		c.Run()
		if !ok {
			t.Fatal("read failed")
		}
	}
	read(a)
	read(b)
	read(a)
	if cmds[1] == cmds[0] {
		t.Error("b sent the capsule a's session reclaimed")
	}
	if cmds[2] != cmds[0] {
		t.Error("a's second command did not reuse the capsule it reclaimed")
	}
	if datas[1] != datas[0] || datas[2] != datas[0] {
		t.Error("the target did not reuse the data PDU it reclaimed")
	}
	if err := c.CheckHealthy(); err != nil {
		t.Fatal(err)
	}
}
