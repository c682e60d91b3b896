package hostqp

// Regression test for the ErrQueueFull contract: a rejected Submit must
// leave no state behind — no CID consumed, no pending-queue entry, no PDU
// emitted — so callers can hold the IO and resubmit verbatim after any
// completion frees a slot.

import (
	"errors"
	"testing"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

func TestErrQueueFullLeavesNoState(t *testing.T) {
	const qd = 4
	h := newHarness(t, Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: qd, NSID: 1})
	h.connect(t, 7)

	var rejectedDone, completions int
	for i := 0; i < qd; i++ {
		err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: uint64(i), Blocks: 1,
			Done: func(Result) { completions++ }})
		if err != nil {
			t.Fatalf("submit %d below queue depth: %v", i, err)
		}
	}
	if h.sess.Outstanding() != qd || len(h.out) != qd {
		t.Fatalf("outstanding=%d wire=%d, want %d/%d", h.sess.Outstanding(), len(h.out), qd, qd)
	}
	if h.sess.CanSubmit() {
		t.Fatal("CanSubmit true with a full queue")
	}

	// The over-depth submission is refused with exactly ErrQueueFull and
	// exactly zero side effects.
	reject := IO{Op: nvme.OpRead, LBA: 99, Blocks: 1, Done: func(Result) { rejectedDone++ }}
	if err := h.sess.Submit(reject); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submit: %v, want ErrQueueFull", err)
	}
	if h.sess.Outstanding() != qd {
		t.Fatalf("rejection leaked a CID: outstanding=%d", h.sess.Outstanding())
	}
	if len(h.out) != qd {
		t.Fatalf("rejection emitted a PDU: wire=%d", len(h.out))
	}
	if rejectedDone != 0 {
		t.Fatal("rejected IO's Done callback ran")
	}

	// Drain exactly one completion: exactly one slot opens.
	first := h.out[0].(*proto.CapsuleCmd).Cmd.CID
	if err := h.sess.HandlePDU(&proto.CapsuleResp{
		Cpl: nvme.Completion{CID: first, Status: nvme.StatusSuccess},
	}); err != nil {
		t.Fatal(err)
	}
	if completions != 1 || h.sess.Outstanding() != qd-1 || !h.sess.CanSubmit() {
		t.Fatalf("after one completion: completions=%d outstanding=%d canSubmit=%v",
			completions, h.sess.Outstanding(), h.sess.CanSubmit())
	}

	// The previously rejected IO now resubmits verbatim and is admitted;
	// the depth accounting is exact, so the very next submit is refused.
	if err := h.sess.Submit(reject); err != nil {
		t.Fatalf("resubmit after drain: %v", err)
	}
	if h.sess.Outstanding() != qd || len(h.out) != qd+1 {
		t.Fatalf("after resubmit: outstanding=%d wire=%d, want %d/%d",
			h.sess.Outstanding(), len(h.out), qd, qd+1)
	}
	if err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: 5, Blocks: 1, Done: func(Result) {}}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue-full not re-enforced: %v", err)
	}
}

// TestBusyRefusalClosesTheWindow: a TC request the target refuses with
// StatusBusy counted toward the window but parked nothing, so the next TC
// request carries the draining flag. Without it the requests the target
// admitted stay parked until the window's count comes round.
func TestBusyRefusalClosesTheWindow(t *testing.T) {
	h := newHarness(t, tcConfig(4, 8))
	h.connect(t, 3)
	submit := func() *proto.CapsuleCmd {
		t.Helper()
		if err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 1, Done: func(Result) {}}); err != nil {
			t.Fatal(err)
		}
		return h.lastCmd(t)
	}
	submit()
	refused := submit()
	if refused.Prio.Draining() {
		t.Fatal("precondition: the second request of a window of 4 drains")
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: refused.Cmd.CID, Status: nvme.StatusBusy}}); err != nil {
		t.Fatal(err)
	}
	if next := submit(); !next.Prio.Draining() {
		t.Fatalf("TC request after a busy refusal stamped %v, want the draining flag", next.Prio)
	}
}
