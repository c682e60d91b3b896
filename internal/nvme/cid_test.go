package nvme_test

import (
	"errors"
	"testing"
	"testing/quick"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// A queue pair's CIDs are handed out by the host session from the vacant
// slots of its request table. These tests hold that allocator to the CID
// rule of NVMe: a CID is unique among the outstanding commands of its SQ,
// and is free again once its completion arrives.

// cidSession is a connected host session at queue depth qd whose submits
// report the CID they were sent with.
type cidSession struct {
	t    *testing.T
	sess *hostqp.Session
	last nvme.CID
}

func newCIDSession(t *testing.T, qd int) *cidSession {
	t.Helper()
	c := &cidSession{t: t}
	send := func(p proto.PDU) {
		if cmd, ok := p.(*proto.CapsuleCmd); ok {
			c.last = cmd.Cmd.CID
		}
	}
	var now int64
	sess, err := hostqp.New(hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: qd, NSID: 1},
		send, func() int64 { now++; return now })
	if err != nil {
		t.Fatal(err)
	}
	sess.Start()
	if err := sess.HandlePDU(&proto.ICResp{
		PFV: hostqp.ProtocolVersion, Tenant: 1, MaxDataLen: 1 << 20,
		BlockSize: 4096, Capacity: 1 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	c.sess = sess
	return c
}

// alloc submits a one-block write and returns the CID it went out with;
// false means the session refused it with ErrQueueFull.
func (c *cidSession) alloc() (nvme.CID, bool) {
	c.t.Helper()
	err := c.sess.Submit(hostqp.IO{Op: nvme.OpWrite, Blocks: 1, Data: make([]byte, 4096), Done: func(hostqp.Result) {}})
	if errors.Is(err, hostqp.ErrQueueFull) {
		return 0, false
	}
	if err != nil {
		c.t.Fatal(err)
	}
	return c.last, true
}

// release delivers the completion of cid.
func (c *cidSession) release(cid nvme.CID) error {
	return c.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}})
}

func TestCIDAllocatorUnique(t *testing.T) {
	a := newCIDSession(t, 128)
	seen := make(map[nvme.CID]bool)
	for i := 0; i < 128; i++ {
		cid, ok := a.alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		if seen[cid] {
			t.Fatalf("duplicate CID %d", cid)
		}
		seen[cid] = true
	}
	if _, ok := a.alloc(); ok {
		t.Fatal("alloc beyond queue depth succeeded")
	}
	if a.sess.Outstanding() != 128 {
		t.Fatalf("outstanding = %d", a.sess.Outstanding())
	}
}

func TestCIDAllocatorRecycle(t *testing.T) {
	a := newCIDSession(t, 2)
	c1, _ := a.alloc()
	c2, _ := a.alloc()
	if err := a.release(c1); err != nil {
		t.Fatal(err)
	}
	c3, ok := a.alloc()
	if !ok {
		t.Fatal("alloc after release failed")
	}
	if c3 != c1 {
		t.Fatalf("expected recycled CID %d, got %d", c1, c3)
	}
	if err := a.release(c1); err != nil {
		t.Fatal(err)
	}
	if err := a.release(c1); err == nil {
		t.Fatal("double release succeeded")
	}
	if err := a.release(c2); err != nil {
		t.Fatal(err)
	}
	if a.sess.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", a.sess.Outstanding())
	}
}

// Property: alloc/release in arbitrary order never hands out a CID that is
// currently outstanding, and refuses exactly when all of them are.
func TestCIDAllocatorProperty(t *testing.T) {
	f := func(ops []bool) bool {
		a := newCIDSession(t, 16)
		live := map[nvme.CID]bool{}
		var liveList []nvme.CID
		for _, alloc := range ops {
			if alloc {
				cid, ok := a.alloc()
				if ok != (len(live) < 16) {
					return false
				}
				if ok {
					if live[cid] {
						return false // duplicate!
					}
					live[cid] = true
					liveList = append(liveList, cid)
				}
			} else if len(liveList) > 0 {
				cid := liveList[len(liveList)-1]
				liveList = liveList[:len(liveList)-1]
				delete(live, cid)
				if a.release(cid) != nil {
					return false
				}
			}
			if a.sess.Outstanding() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
