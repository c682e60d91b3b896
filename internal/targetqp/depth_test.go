package targetqp

import (
	"math/rand"
	"testing"

	"nvmeopf/internal/core"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// rawSession is a target session driven PDU by PDU, its responses recorded.
type rawSession struct {
	t     *testing.T
	tgt   *Target
	be    *fakeBackend
	sess  *Session
	resps []proto.CapsuleResp
}

func newRawSession(t *testing.T, depth uint16, cfg Config) *rawSession {
	t.Helper()
	r := &rawSession{t: t, be: newFakeBackend(t, false)}
	cfg.Clock = ticks()
	var err error
	if r.tgt, err = NewTarget(cfg, r.be); err != nil {
		t.Fatal(err)
	}
	r.sess, err = r.tgt.NewSession(func(p proto.PDU) {
		if resp, ok := p.(*proto.CapsuleResp); ok {
			r.resps = append(r.resps, *resp)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.sess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, QueueDepth: depth, Prio: proto.PrioThroughputCritical}); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *rawSession) cmd(op nvme.Opcode, cid nvme.CID, nlb uint16, prio proto.Priority) {
	r.t.Helper()
	c := &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: op, CID: cid, NSID: 1, NLB: nlb}, Prio: prio}
	if op == nvme.OpWrite {
		c.Data = make([]byte, (int(nlb)+1)*512)
	}
	if err := r.sess.HandlePDU(c); err != nil {
		r.t.Fatal(err)
	}
}

// lastResp pops the most recent response.
func (r *rawSession) lastResp() proto.CapsuleResp {
	r.t.Helper()
	if len(r.resps) == 0 {
		r.t.Fatal("no response")
	}
	resp := r.resps[len(r.resps)-1]
	r.resps = r.resps[:len(r.resps)-1]
	return resp
}

// TestCIDPastAdvertisedDepthIsRefused: an initiator that advertised a queue
// depth of 4 gets four slots. A command naming any other CID is answered
// InvalidField and leaves the slot table, the admission counts and the PM
// exactly as they were; the four in-range CIDs still work around it.
func TestCIDPastAdvertisedDepthIsRefused(t *testing.T) {
	r := newRawSession(t, 4, Config{Mode: ModeOPF})
	tenant := r.sess.Tenant()
	for _, cid := range []nvme.CID{4, 5, 1000, 65535} {
		r.cmd(nvme.OpRead, cid, 0, proto.PrioThroughputCritical)
		if resp := r.lastResp(); resp.Cpl.CID != cid || resp.Cpl.Status != nvme.StatusInvalidField {
			t.Fatalf("CID %d past a depth of 4: response %+v, want InvalidField", cid, resp)
		}
	}
	if r.sess.reqs.Len() != 0 || r.sess.reqs.Cap() != 4 || r.tgt.pm.PendingRequests(tenant) != 0 ||
		r.tgt.pm.QueueDepth(tenant) != 0 || r.tgt.PMStats() != (core.TargetPMStats{}) {
		t.Fatalf("refused commands left state: %d slots of %d occupied, %d pending, %d parked, PM %+v",
			r.sess.reqs.Len(), r.sess.reqs.Cap(), r.tgt.pm.PendingRequests(tenant), r.tgt.pm.QueueDepth(tenant), r.tgt.PMStats())
	}
	// Five distinct CIDs from a peer that promised four: the fifth bounces,
	// a duplicate of an in-flight one conflicts, the window still completes.
	r.cmd(nvme.OpRead, 0, 0, proto.PrioThroughputCritical)
	r.cmd(nvme.OpRead, 1, 0, proto.PrioThroughputCritical)
	r.cmd(nvme.OpRead, 1, 0, proto.PrioThroughputCritical)
	if resp := r.lastResp(); resp.Cpl.CID != 1 || resp.Cpl.Status != nvme.StatusIDConflict {
		t.Fatalf("duplicate in-flight CID: response %+v, want IDConflict", resp)
	}
	r.cmd(nvme.OpRead, 2, 0, proto.PrioThroughputCritical)
	r.cmd(nvme.OpRead, 4, 0, proto.PrioThroughputCritical)
	if resp := r.lastResp(); resp.Cpl.Status != nvme.StatusInvalidField {
		t.Fatalf("fifth distinct CID: response %+v, want InvalidField", resp)
	}
	if got := r.tgt.pm.PendingRequests(tenant); got != 3 || r.sess.reqs.Len() != 3 {
		t.Fatalf("%d pending, %d slots occupied, want 3 and 3", got, r.sess.reqs.Len())
	}
	r.cmd(nvme.OpRead, 3, 0, proto.PrioTCDraining)
	r.be.releaseAll()
	if resp := r.lastResp(); resp.Cpl.CID != 3 || !resp.Coalesced || !resp.Cpl.Status.OK() {
		t.Fatalf("window response %+v, want coalesced success on CID 3", resp)
	}
	if len(r.resps) != 0 || r.sess.reqs.Len() != 0 || r.tgt.pm.PendingRequests(tenant) != 0 {
		t.Fatalf("after the window: %d stray responses, %d slots occupied, %d pending",
			len(r.resps), r.sess.reqs.Len(), r.tgt.pm.PendingRequests(tenant))
	}
}

// TestUnadvertisedDepthGrowsOnDemand: a peer that advertises no depth may
// use any CID; the table grows to hold it and stops at the CID space.
func TestUnadvertisedDepthGrowsOnDemand(t *testing.T) {
	r := newRawSession(t, 0, Config{Mode: ModeOPF})
	for _, cid := range []nvme.CID{0, 17, 65535} {
		r.cmd(nvme.OpRead, cid, 0, proto.PrioLatencySensitive)
	}
	if r.sess.reqs.Len() != 3 || r.sess.reqs.Cap() != nvme.MaxCIDs {
		t.Fatalf("%d slots of %d occupied, want 3 of %d", r.sess.reqs.Len(), r.sess.reqs.Cap(), nvme.MaxCIDs)
	}
	r.be.releaseAll()
	if len(r.resps) != 3 || r.sess.reqs.Len() != 0 {
		t.Fatalf("%d responses, %d slots still occupied", len(r.resps), r.sess.reqs.Len())
	}
}

// FuzzSessionSlots feeds one session, whose initiator advertised a small
// queue depth, arbitrary commands — any CID, priority bits, opcode and
// length — interleaved with device completions in arbitrary order, and
// checks after every step that the three counts of "requests the target is
// holding" agree: occupied slots, the PM's pending count, and admitted
// minus completed. A CID that indexes outside a table panics the run.
func FuzzSessionSlots(f *testing.F) {
	// Five bytes a step: CID (little-endian), priority, opcode, NLB — or,
	// with a first byte of 0xfd and up and a zero second, "complete the
	// executing command the third byte picks".
	tc, drain, ls, scav := byte(proto.PrioThroughputCritical), byte(proto.PrioTCDraining), byte(proto.PrioLatencySensitive), byte(proto.PrioScavenger)
	f.Add([]byte{0, 0, tc, 2, 0, 1, 0, drain, 2, 0, 0xff, 0xff, tc, 2, 0, 0xfe, 0, 1, 0, 0, 0xfe, 0, 0, 0, 0})
	f.Add([]byte{3, 0, ls, 1, 3, 3, 0, ls, 1, 3, 0xfd, 0, 0, 0, 0, 4, 0, tc, 2, 0, 2, 0, scav, 1, 0})
	f.Add([]byte{0, 0, tc, 2, 0, 1, 0, tc, 1, 0, 2, 0, tc, 2, 1, 3, 0, tc, 0, 0, 0xfe, 0, 2, 0, 0, 0xfe, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, steps []byte) {
		const depth = 4
		r := newRawSession(t, depth, Config{Mode: ModeOPF})
		tenant := r.sess.Tenant()
		r.tgt.pm.SetTenantLimit(tenant, 3)
		held := 0 // admitted minus completed, counted from outside
		for i := 0; i+5 <= len(steps); i += 5 {
			s := steps[i : i+5]
			if s[0] >= 0xfd && s[1] == 0 {
				// Complete one executing device command, picked by s[2].
				if n := len(r.be.queue); n > 0 {
					k := int(s[2]) % n
					run := r.be.queue[k]
					r.be.queue = append(r.be.queue[:k], r.be.queue[k+1:]...)
					run()
					held--
				}
			} else {
				cid := nvme.CID(s[0]) | nvme.CID(s[1])<<8
				slots, answered := r.sess.reqs.Len(), len(r.resps)
				r.cmd(nvme.Opcode(s[3]%4), cid, uint16(s[4]%4), proto.Priority(s[2]))
				// The device holds its completions, so a response during
				// the command is a refusal; silence is admission.
				if len(r.resps) == answered {
					held++
				} else if r.sess.reqs.Len() != slots {
					t.Fatalf("step %d: refused CID %d changed the slot table", i/5, cid)
				}
				if int(cid) >= depth && len(r.resps) == answered {
					t.Fatalf("step %d: CID %d, past the advertised depth of %d, was admitted", i/5, cid, depth)
				}
			}
			if got, pend := r.sess.reqs.Len(), r.tgt.pm.PendingRequests(tenant); got != held || pend != held {
				t.Fatalf("step %d: %d slots occupied, PM has %d pending, admitted minus completed is %d", i/5, got, pend, held)
			}
			if r.sess.reqs.Cap() != depth {
				t.Fatalf("step %d: the slot table grew to %d", i/5, r.sess.reqs.Cap())
			}
		}
		// Whatever is parked is released by teardown, whatever is executing
		// completes into the tombstone: nothing may be left behind.
		r.tgt.CloseSession(r.sess)
		r.be.releaseShuffled(rand.New(rand.NewSource(int64(len(steps)))))
		if r.sess.reqs.Len() != 0 || r.tgt.pm.PendingTotal() != 0 || r.tgt.pm.OutstandingBatchCIDs() != 0 {
			t.Fatalf("after teardown: %d slots occupied, %d pending, %d batch members outstanding",
				r.sess.reqs.Len(), r.tgt.pm.PendingTotal(), r.tgt.pm.OutstandingBatchCIDs())
		}
	})
}
