package targetqp

// Drain-watchdog tests at the target level: a parked TC window whose host
// went silent is force-drained once the configured deadline passes, and a
// session torn down while its force-drained window is still on the device
// must absorb the late completions exactly once (no PDU to the dead
// connection, no double-release, tenant ID recycled exactly once).

import (
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// watchdogTarget builds an oPF target with a settable fake clock and a
// 1ms drain watchdog.
func watchdogTarget(t *testing.T, be Backend, now *int64) *Target {
	t.Helper()
	tgt, err := NewTarget(Config{
		Mode:          ModeOPF,
		DrainWatchdog: time.Millisecond,
		Clock:         func() int64 { return *now },
	}, be)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func TestWatchdogForceDrainsParkedWindow(t *testing.T) {
	now := new(int64)
	*now = 100
	be := newFakeBackend(t, true)
	tgt := watchdogTarget(t, be, now)
	host, _ := pair(t, tgt, tcCfg(8, 16)) // window 8: nothing drains on its own

	done := 0
	for i := 0; i < 3; i++ {
		err := host.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					t.Errorf("force-drained write status %v", r.Status)
				}
				done++
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if done != 0 {
		t.Fatalf("window completed with no drain flag: done=%d", done)
	}
	// Below the deadline the watchdog must not fire.
	*now += time.Millisecond.Nanoseconds() - 1
	if n, err := tgt.CheckWatchdog(); n != 0 || err != nil {
		t.Fatalf("watchdog fired early: n=%d err=%v", n, err)
	}
	*now += 1
	n, err := tgt.CheckWatchdog()
	if n != 1 || err != nil {
		t.Fatalf("CheckWatchdog = %d, %v; want 1 expired queue", n, err)
	}
	// The fake backend is auto-completing, so the whole window executed and
	// the coalesced response reached the host.
	if done != 3 {
		t.Fatalf("done = %d, want 3 (parked window force-drained)", done)
	}
	st := tgt.PMStats()
	if st.ForcedDrains != 1 || st.WatchdogDrains != 1 {
		t.Fatalf("ForcedDrains=%d WatchdogDrains=%d, want 1/1", st.ForcedDrains, st.WatchdogDrains)
	}
	if tgt.pm.PendingTotal() != 0 || tgt.pm.OutstandingBatchCIDs() != 0 {
		t.Fatalf("leaked accounting: pending=%d batchCIDs=%d",
			tgt.pm.PendingTotal(), tgt.pm.OutstandingBatchCIDs())
	}
}

func TestCloseSessionDuringForceDrainNoDoubleComplete(t *testing.T) {
	now := new(int64)
	*now = 100
	be := newFakeBackend(t, false) // hold device completions
	tgt := watchdogTarget(t, be, now)

	// Manual wiring (instead of pair) so target→host PDUs can be counted.
	clock := int64(0)
	sent := 0
	var host *hostqp.Session
	var tsess *Session
	var err error
	tsess, err = tgt.NewSession(func(p proto.PDU) {
		sent++
		decoded, derr := proto.Unmarshal(proto.Marshal(p))
		if derr != nil {
			t.Fatalf("target pdu codec: %v", derr)
		}
		if herr := host.HandlePDU(decoded); herr != nil {
			t.Fatalf("host handle: %v", herr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	host, err = hostqp.New(tcCfg(8, 16), func(p proto.PDU) {
		decoded, derr := proto.Unmarshal(proto.Marshal(p))
		if derr != nil {
			t.Fatalf("host pdu codec: %v", derr)
		}
		if terr := tsess.HandlePDU(decoded); terr != nil {
			t.Fatalf("target handle: %v", terr)
		}
	}, func() int64 { clock++; return clock })
	if err != nil {
		t.Fatal(err)
	}
	host.Start()
	if !host.Connected() {
		t.Fatal("handshake did not complete")
	}

	hostDone := 0
	for i := 0; i < 3; i++ {
		err := host.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(hostqp.Result) { hostDone++ },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Force-drain the parked window; the device holds all 3 completions.
	*now += 2 * time.Millisecond.Nanoseconds()
	if n, _ := tgt.CheckWatchdog(); n != 1 {
		t.Fatalf("CheckWatchdog = %d, want 1", n)
	}
	if len(be.queue) != 3 {
		t.Fatalf("device holds %d commands, want 3", len(be.queue))
	}

	// The connection dies mid-window: tear the session down while its
	// force-drained batch is still in flight.
	oldTenant := tsess.Tenant()
	tgt.CloseSession(tsess)
	if tgt.ActiveSessions() != 0 || !tsess.Dead() {
		t.Fatal("session not torn down")
	}
	if d := tgt.Stats().Disconnects; d != 1 {
		t.Fatalf("Disconnects = %d, want 1", d)
	}
	sentBefore := sent

	// Late completions land in the tombstone: no PDU may reach the dead
	// connection and no host callback may fire — but PM accounting must
	// still release the batch exactly once.
	be.releaseAll()
	if sent != sentBefore {
		t.Fatalf("%d PDUs sent to a dead session", sent-sentBefore)
	}
	if hostDone != 0 {
		t.Fatalf("%d host completions after teardown", hostDone)
	}
	if tgt.pm.PendingTotal() != 0 || tgt.pm.OutstandingBatchCIDs() != 0 {
		t.Fatalf("leaked accounting: pending=%d batchCIDs=%d",
			tgt.pm.PendingTotal(), tgt.pm.OutstandingBatchCIDs())
	}
	// Closing again is a no-op (no double tenant free, no double stats).
	tgt.CloseSession(tsess)
	if d := tgt.Stats().Disconnects; d != 1 {
		t.Fatalf("idempotent CloseSession bumped Disconnects to %d", d)
	}

	// The tenant ID recycles exactly once: the next session reuses it, the
	// one after gets a fresh ID.
	s2, err := tgt.NewSession(func(proto.PDU) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, Prio: proto.PrioThroughputCritical}); err != nil {
		t.Fatal(err)
	}
	if s2.Tenant() != oldTenant {
		t.Fatalf("tenant %d not recycled: new session got %d", oldTenant, s2.Tenant())
	}
	s3, err := tgt.NewSession(func(proto.PDU) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, Prio: proto.PrioThroughputCritical}); err != nil {
		t.Fatal(err)
	}
	if s3.Tenant() == oldTenant {
		t.Fatalf("tenant %d recycled twice", oldTenant)
	}
}
