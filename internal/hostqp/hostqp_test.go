package hostqp

import (
	"errors"
	"math/rand"
	"testing"

	"nvmeopf/internal/core"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// harness captures outbound PDUs and drives the session directly.
type harness struct {
	sess *Session
	out  []proto.PDU
	now  int64
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	h := &harness{}
	sess, err := New(cfg, func(p proto.PDU) { h.out = append(h.out, p) }, func() int64 { h.now++; return h.now })
	if err != nil {
		t.Fatal(err)
	}
	h.sess = sess
	return h
}

// connect completes the handshake on a namespace of 4 KiB blocks.
func (h *harness) connect(t *testing.T, tenant proto.TenantID) {
	t.Helper()
	h.sess.Start()
	if len(h.out) != 1 {
		t.Fatalf("Start sent %d PDUs", len(h.out))
	}
	if _, ok := h.out[0].(*proto.ICReq); !ok {
		t.Fatalf("Start sent %v", h.out[0].PDUType())
	}
	h.out = nil
	if err := h.sess.HandlePDU(&proto.ICResp{
		PFV: ProtocolVersion, Tenant: tenant, MaxDataLen: 1 << 20,
		BlockSize: 4096, Capacity: 1 << 20,
	}); err != nil {
		t.Fatal(err)
	}
}

// lastCmd returns the most recent CapsuleCmd sent.
func (h *harness) lastCmd(t *testing.T) *proto.CapsuleCmd {
	t.Helper()
	for i := len(h.out) - 1; i >= 0; i-- {
		if c, ok := h.out[i].(*proto.CapsuleCmd); ok {
			return c
		}
	}
	t.Fatal("no CapsuleCmd sent")
	return nil
}

func tcConfig(window, qd int) Config {
	return Config{Class: proto.PrioThroughputCritical, Window: window, QueueDepth: qd, NSID: 1}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 0, NSID: 1},
		{Class: proto.PrioLatencySensitive, Window: 0, QueueDepth: 1, NSID: 1},
		{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 0},
		{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1 << 17, NSID: 1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, func(proto.PDU) {}, func() int64 { return 0 }); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(tcConfig(1, 1), nil, nil); err == nil {
		t.Error("nil send/clock accepted")
	}
}

func TestWindowClampedToQueueDepth(t *testing.T) {
	h := newHarness(t, tcConfig(64, 8))
	if h.sess.Window() != 8 {
		t.Fatalf("window = %d, want clamped to QD 8", h.sess.Window())
	}
	// The handshake declares the clamped window, the one the host runs.
	h.sess.Start()
	if req := h.out[0].(*proto.ICReq); req.Window != 8 {
		t.Fatalf("ICReq declares window %d, want 8", req.Window)
	}
}

func TestSubmitBeforeHandshakeRejected(t *testing.T) {
	h := newHarness(t, tcConfig(1, 1))
	err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 1, Done: func(Result) {}})
	if err == nil {
		t.Fatal("submit before handshake accepted")
	}
}

func TestTenantStampedIntoCapsules(t *testing.T) {
	h := newHarness(t, tcConfig(4, 8))
	h.connect(t, 42)
	if h.sess.Tenant() != 42 {
		t.Fatalf("tenant = %d", h.sess.Tenant())
	}
	if err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: 1, Blocks: 1, Done: func(Result) {}}); err != nil {
		t.Fatal(err)
	}
	cmd := h.lastCmd(t)
	if cmd.Tenant != 42 {
		t.Fatalf("capsule tenant = %d", cmd.Tenant)
	}
	if cmd.Cmd.NSID != 1 || cmd.Cmd.SLBA != 1 {
		t.Fatalf("capsule command wrong: %+v", cmd.Cmd)
	}
}

func TestDuplicateICRespRejected(t *testing.T) {
	h := newHarness(t, tcConfig(1, 1))
	h.connect(t, 1)
	if err := h.sess.HandlePDU(&proto.ICResp{PFV: ProtocolVersion}); err == nil {
		t.Fatal("duplicate ICResp accepted")
	}
}

func TestBadPFVRejected(t *testing.T) {
	h := newHarness(t, tcConfig(1, 1))
	h.sess.Start()
	if err := h.sess.HandlePDU(&proto.ICResp{PFV: 99}); err == nil {
		t.Fatal("bad PFV accepted")
	}
}

func TestDrainFlagEveryWindow(t *testing.T) {
	h := newHarness(t, tcConfig(3, 16))
	h.connect(t, 1)
	var prios []proto.Priority
	for i := 0; i < 6; i++ {
		if err := h.sess.Submit(IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 4096), Done: func(Result) {}}); err != nil {
			t.Fatal(err)
		}
		prios = append(prios, h.lastCmd(t).Prio)
	}
	want := []proto.Priority{
		proto.PrioThroughputCritical, proto.PrioThroughputCritical, proto.PrioTCDraining,
		proto.PrioThroughputCritical, proto.PrioThroughputCritical, proto.PrioTCDraining,
	}
	for i := range want {
		if prios[i] != want[i] {
			t.Fatalf("prios = %v", prios)
		}
	}
}

func TestCoalescedResponseReplaysWindow(t *testing.T) {
	h := newHarness(t, tcConfig(3, 16))
	h.connect(t, 1)
	var cids []nvme.CID
	completions := 0
	for i := 0; i < 3; i++ {
		if err := h.sess.Submit(IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 4096),
			Done: func(Result) { completions++ }}); err != nil {
			t.Fatal(err)
		}
		cids = append(cids, h.lastCmd(t).Cmd.CID)
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{
		Cpl:       nvme.Completion{CID: cids[2], Status: nvme.StatusSuccess},
		Coalesced: true,
	}); err != nil {
		t.Fatal(err)
	}
	if completions != 3 {
		t.Fatalf("completions = %d, want 3 (replay)", completions)
	}
	if h.sess.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", h.sess.Outstanding())
	}
	if h.sess.PendingTC() != 0 {
		t.Fatalf("pendingTC = %d", h.sess.PendingTC())
	}
}

func TestPartialWindowTracking(t *testing.T) {
	h := newHarness(t, tcConfig(4, 16))
	h.connect(t, 1)
	for i := 0; i < 2; i++ {
		_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: uint64(i), Blocks: 1, Done: func(Result) {}})
	}
	if h.sess.PartialWindow() != 2 {
		t.Fatalf("partial window = %d", h.sess.PartialWindow())
	}
	for i := 2; i < 4; i++ {
		_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: uint64(i), Blocks: 1, Done: func(Result) {}})
	}
	if h.sess.PartialWindow() != 0 {
		t.Fatalf("partial window after drain = %d", h.sess.PartialWindow())
	}
}

func TestReadDataAssembly(t *testing.T) {
	h := newHarness(t, Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 2, NSID: 1})
	h.connect(t, 1)
	var got []byte
	if err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 2, Done: func(r Result) { got = r.Data }}); err != nil {
		t.Fatal(err)
	}
	cid := h.lastCmd(t).Cmd.CID
	// Data arrives in two out-of-order segments before the response.
	seg2 := make([]byte, 4096)
	for i := range seg2 {
		seg2[i] = 2
	}
	seg1 := make([]byte, 4096)
	for i := range seg1 {
		seg1[i] = 1
	}
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: 4096, Data: seg2}); err != nil {
		t.Fatal(err)
	}
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: 0, Data: seg1}); err != nil {
		t.Fatal(err)
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 8192 || got[0] != 1 || got[4096] != 2 {
		t.Fatalf("assembled %d bytes, got[0]=%d got[4096]=%d", len(got), got[0], got[4096])
	}
}

func TestProtocolViolationsSurface(t *testing.T) {
	h := newHarness(t, tcConfig(2, 4))
	h.connect(t, 1)
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: 99, Data: []byte{1}}); err == nil {
		t.Error("data for unknown CID accepted")
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: 99}}); err == nil {
		t.Error("response for unknown CID accepted")
	}
	if err := h.sess.HandlePDU(&proto.ICReq{}); err == nil {
		t.Error("unexpected PDU type accepted")
	}
	if err := h.sess.HandlePDU(&proto.TermReq{Dir: proto.TypeC2HTermReq, FES: 1, Reason: "x"}); err == nil {
		t.Error("TermReq not surfaced as error")
	}
}

func TestC2HDataForWriteRejected(t *testing.T) {
	h := newHarness(t, tcConfig(1, 2))
	h.connect(t, 1)
	_ = h.sess.Submit(IO{Op: nvme.OpWrite, LBA: 0, Blocks: 1, Data: make([]byte, 4096), Done: func(Result) {}})
	cid := h.lastCmd(t).Cmd.CID
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Data: []byte{1}}); err == nil {
		t.Error("C2HData for a write accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	h := newHarness(t, tcConfig(1, 2))
	h.connect(t, 1)
	if err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 1}); err == nil {
		t.Error("IO without Done accepted")
	}
	if err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 0, Done: func(Result) {}}); err == nil {
		t.Error("zero-length read accepted")
	}
}

func TestErrorStatusCountsAsError(t *testing.T) {
	h := newHarness(t, Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	h.connect(t, 1)
	var st nvme.Status
	_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 1, Done: func(r Result) { st = r.Status }})
	cid := h.lastCmd(t).Cmd.CID
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid, Status: nvme.StatusLBAOutOfRange}}); err != nil {
		t.Fatal(err)
	}
	if st != nvme.StatusLBAOutOfRange {
		t.Fatalf("status = %v", st)
	}
	if h.sess.Stats().Errors != 1 {
		t.Fatalf("errors = %d", h.sess.Stats().Errors)
	}
}

func TestLatencyMeasuredWithClock(t *testing.T) {
	h := newHarness(t, Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	h.connect(t, 1)
	var res Result
	_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 1, Done: func(r Result) { res = r }})
	cid := h.lastCmd(t).Cmd.CID
	_ = h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}})
	if res.Latency() <= 0 {
		t.Fatalf("latency = %d", res.Latency())
	}
}

func TestDynamicWindowWiring(t *testing.T) {
	cfg := tcConfig(4, 64)
	cfg.Dynamic = core.NewDynamicWindow(4, 64, 1)
	h := newHarness(t, cfg)
	h.connect(t, 1)
	before := h.sess.Window()
	// Complete a few windows; the tuner should move the window.
	for w := 0; w < 4; w++ {
		var drainCID nvme.CID
		n := h.sess.Window()
		for i := 0; i < n; i++ {
			_ = h.sess.Submit(IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 4096), Done: func(Result) {}})
			c := h.lastCmd(t)
			if c.Prio.Draining() {
				drainCID = c.Cmd.CID
			}
		}
		if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: drainCID}, Coalesced: true}); err != nil {
			t.Fatal(err)
		}
	}
	if h.sess.Window() == before {
		t.Fatal("dynamic window never moved")
	}
}

// TestQueueDepth65536Rejected: the ICReq carries QueueDepth in a uint16,
// so 65536 used to be accepted by Validate and then silently truncated to
// a zero-depth connection on the wire. Validate must cap at 65535.
func TestQueueDepth65536Rejected(t *testing.T) {
	cfg := tcConfig(1, 65536)
	if err := cfg.Validate(); err == nil {
		t.Fatal("QueueDepth 65536 accepted; it truncates to 0 on the wire")
	}
}

// TestQueueDepth65535OnWire: the maximum representable depth must survive
// the uint16 conversion exactly.
func TestQueueDepth65535OnWire(t *testing.T) {
	h := newHarness(t, tcConfig(1, 65535))
	h.sess.Start()
	req, ok := h.out[0].(*proto.ICReq)
	if !ok {
		t.Fatalf("Start sent %v", h.out[0].PDUType())
	}
	if req.QueueDepth != 65535 {
		t.Fatalf("wire QueueDepth = %d, want 65535", req.QueueDepth)
	}
}

// TestFailAllReleasesEverything: FailAll must complete every in-flight
// request with the given status, release all CIDs, empty the PM pending
// queue, and leave the session refusing new submissions.
func TestFailAllReleasesEverything(t *testing.T) {
	h := newHarness(t, tcConfig(4, 8))
	h.connect(t, 3)
	var results []Result
	for i := 0; i < 3; i++ {
		err := h.sess.Submit(IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 4096),
			Done: func(r Result) { results = append(results, r) }})
		if err != nil {
			t.Fatal(err)
		}
	}
	if h.sess.Outstanding() != 3 || h.sess.PendingTC() != 3 {
		t.Fatalf("outstanding=%d pendingTC=%d before FailAll", h.sess.Outstanding(), h.sess.PendingTC())
	}
	cause := errors.New("link lost")
	n := h.sess.FailAll(cause)
	if n != 3 || len(results) != 3 {
		t.Fatalf("FailAll failed %d requests, %d callbacks ran; want 3", n, len(results))
	}
	for _, r := range results {
		if r.Status != nvme.StatusAborted || r.Err != cause {
			t.Fatalf("failed request status %v err %v, want aborted with the cause", r.Status, r.Err)
		}
	}
	if h.sess.Outstanding() != 0 {
		t.Fatalf("CIDs leaked: outstanding = %d", h.sess.Outstanding())
	}
	if h.sess.PendingTC() != 0 {
		t.Fatalf("PM pending queue leaked: %d", h.sess.PendingTC())
	}
	if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Done: func(Result) {}}); err == nil {
		t.Fatal("session accepted a submission after FailAll")
	}
	st := h.sess.Stats()
	if st.Completed != 3 || st.Errors != 3 {
		t.Fatalf("stats after FailAll: completed=%d errors=%d", st.Completed, st.Errors)
	}
}

// TestSessionCIDsDenseAndReused: the session hands out the CIDs of its
// vacant slots. Never-used CIDs come out in ascending order, a full queue
// refuses without sending anything, and the CID a completion vacates is
// the next one handed out.
func TestSessionCIDsDenseAndReused(t *testing.T) {
	h := newHarness(t, Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1})
	h.connect(t, 1)
	submit := func() error {
		return h.sess.Submit(IO{Op: nvme.OpWrite, Blocks: 1, Data: make([]byte, 4096), Done: func(Result) {}})
	}
	for want := 0; want < 4; want++ {
		if err := submit(); err != nil {
			t.Fatal(err)
		}
		if cid := h.lastCmd(t).Cmd.CID; cid != nvme.CID(want) {
			t.Fatalf("submit %d got CID %d, want %d", want, cid, want)
		}
		if n := h.sess.Outstanding(); n != want+1 {
			t.Fatalf("outstanding = %d after %d submits", n, want+1)
		}
	}
	sent := len(h.out)
	if err := submit(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fifth submit at QD 4: %v, want ErrQueueFull", err)
	}
	if len(h.out) != sent || h.sess.Outstanding() != 4 || h.sess.CanSubmit() {
		t.Fatalf("refused submit sent %d PDUs, outstanding %d, can submit %v", len(h.out)-sent, h.sess.Outstanding(), h.sess.CanSubmit())
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: 2}}); err != nil {
		t.Fatal(err)
	}
	if h.sess.Outstanding() != 3 || !h.sess.CanSubmit() {
		t.Fatalf("after completing CID 2: outstanding %d, can submit %v", h.sess.Outstanding(), h.sess.CanSubmit())
	}
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	if cid := h.lastCmd(t).Cmd.CID; cid != 2 || h.sess.Outstanding() != 4 {
		t.Fatalf("submit after completing CID 2 got CID %d with %d outstanding, want CID 2 with 4", cid, h.sess.Outstanding())
	}
	// Random submits and completions never hand out a CID in flight, and
	// refuse exactly when all four are.
	live := map[nvme.CID]bool{0: true, 1: true, 2: true, 3: true}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		if rng.Intn(2) == 0 {
			err := submit()
			if full := len(live) == 4; full != errors.Is(err, ErrQueueFull) || (!full && err != nil) {
				t.Fatalf("step %d: submit with %d in flight: %v", step, len(live), err)
			}
			if err == nil {
				cid := h.lastCmd(t).Cmd.CID
				if live[cid] {
					t.Fatalf("step %d: CID %d handed out while in flight", step, cid)
				}
				live[cid] = true
			}
		} else if cid := nvme.CID(rng.Intn(4)); live[cid] {
			if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); err != nil {
				t.Fatal(err)
			}
			delete(live, cid)
		}
		if h.sess.Outstanding() != len(live) {
			t.Fatalf("step %d: outstanding = %d, want %d", step, h.sess.Outstanding(), len(live))
		}
	}
}

// TestFailAllIdleSession: failing an idle session is a no-op beyond
// disconnecting it.
func TestFailAllIdleSession(t *testing.T) {
	h := newHarness(t, tcConfig(4, 8))
	h.connect(t, 1)
	if n := h.sess.FailAll(errors.New("link lost")); n != 0 {
		t.Fatalf("idle FailAll failed %d requests", n)
	}
	if h.sess.Connected() {
		t.Fatal("session still connected after FailAll")
	}
}

// TestOldestSubmittedAt tracks the oldest in-flight request for transport
// deadline sweeps.
func TestOldestSubmittedAt(t *testing.T) {
	h := newHarness(t, tcConfig(8, 8))
	h.connect(t, 1)
	if _, ok := h.sess.OldestSubmittedAt(); ok {
		t.Fatal("idle session reports an oldest request")
	}
	for i := 0; i < 3; i++ {
		if err := h.sess.Submit(IO{Op: nvme.OpRead, LBA: uint64(i), Blocks: 1, Done: func(Result) {}}); err != nil {
			t.Fatal(err)
		}
	}
	first, ok := h.sess.OldestSubmittedAt()
	if !ok {
		t.Fatal("no oldest request with 3 in flight")
	}
	// The first submission has the lowest clock value in this harness.
	later, _ := h.sess.OldestSubmittedAt()
	if later != first {
		t.Fatal("oldest timestamp unstable without completions")
	}
}

// TestTermReqIsProtocolError: a TermReq from the target must classify as
// permanent so dial retry loops stop immediately.
func TestTermReqIsProtocolError(t *testing.T) {
	h := newHarness(t, tcConfig(1, 1))
	err := h.sess.HandlePDU(&proto.TermReq{Dir: proto.TypeC2HTermReq, FES: 2, Reason: "unknown namespace 9"})
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("TermReq surfaced as %T (%v), want *ProtocolError", err, err)
	}
	if pe.FES != 2 {
		t.Fatalf("FES = %d, want 2", pe.FES)
	}
}

// TestBadPFVIsProtocolError: an ICResp version mismatch is permanent too.
func TestBadPFVIsProtocolError(t *testing.T) {
	h := newHarness(t, tcConfig(1, 1))
	h.sess.Start()
	err := h.sess.HandlePDU(&proto.ICResp{PFV: ProtocolVersion + 9})
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("PFV mismatch surfaced as %T (%v), want *ProtocolError", err, err)
	}
}

// TestHostileOffsetRejected: a C2HData whose wire offset points past the
// read's expected length used to size the reassembly buffer — a hostile
// target could force a ~4 GiB allocation with a single 16-byte fragment.
// The offset must be clamped against the expected read length, rejected as
// a typed *ProtocolError, and must not grow the buffer.
func TestHostileOffsetRejected(t *testing.T) {
	h := newHarness(t, tcConfig(1, 2))
	h.connect(t, 1)
	_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 1, Done: func(Result) {}})
	cid := h.lastCmd(t).Cmd.CID
	err := h.sess.HandlePDU(&proto.C2HData{
		CCCID: cid, Offset: 0xFFFF_F000, Data: make([]byte, 16),
	})
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("hostile offset surfaced as %T (%v), want *ProtocolError", err, err)
	}
	if req := h.sess.reqs.Get(cid); len(req.readBuf) != 0 {
		t.Fatalf("hostile offset grew the read buffer to %d bytes", len(req.readBuf))
	}
}

// TestHostileOffsetRejectedGeometryKnown: the clamp is the exact expected
// read length, not MaxDataLen. The rejected fragment
// leaves the destination as it was: the preallocated 4096 bytes on a
// session with a read sink, none at all on one without.
func TestHostileOffsetRejectedGeometryKnown(t *testing.T) {
	for _, sink := range []bool{true, false} {
		cfg := tcConfig(1, 2)
		want := 0
		if sink {
			cfg.OnReadBuffer, want = func(nvme.CID, []byte) {}, 4096
		}
		h := newHarness(t, cfg)
		h.connect(t, 1)
		_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 1, Done: func(Result) {}})
		cid := h.lastCmd(t).Cmd.CID
		// One byte past the 4096-byte read: rejected even though well under
		// MaxDataLen.
		err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: 1, Data: make([]byte, 4096)})
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("sink %v: out-of-bounds fragment surfaced as %T (%v), want *ProtocolError", sink, err, err)
		}
		if req := h.sess.reqs.Get(cid); len(req.readBuf) != want {
			t.Fatalf("sink %v: read buffer resized to %d bytes, want %d", sink, len(req.readBuf), want)
		}
	}
}

// TestOverlappingFragmentsRejected: duplicate and partially-overlapping
// C2HData fragments used to double-count readBytes, marking a read
// complete with holes in the data. Both must be rejected.
func TestOverlappingFragmentsRejected(t *testing.T) {
	cases := []struct {
		name string
		off2 uint32
		len2 int
	}{
		{"duplicate", 0, 4096},
		{"tail-overlap", 2048, 4096},
		{"contained", 1024, 512},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, tcConfig(1, 2))
			h.connect(t, 1)
			var done bool
			_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 2, Done: func(Result) { done = true }})
			cid := h.lastCmd(t).Cmd.CID
			if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: 0, Data: make([]byte, 4096)}); err != nil {
				t.Fatal(err)
			}
			err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: tc.off2, Data: make([]byte, tc.len2)})
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("overlapping fragment surfaced as %T (%v), want *ProtocolError", err, err)
			}
			if done {
				t.Fatal("request completed despite the protocol error")
			}
		})
	}
}

// TestNonOverlappingFragmentsStillAssemble: adjacent fragments (touching
// at a boundary) are not overlaps.
func TestNonOverlappingFragmentsStillAssemble(t *testing.T) {
	h := newHarness(t, tcConfig(1, 2))
	h.connect(t, 1)
	var got []byte
	var st nvme.Status
	_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 2, Done: func(r Result) { got, st = r.Data, r.Status }})
	cid := h.lastCmd(t).Cmd.CID
	for _, frag := range []struct {
		off uint32
		n   int
	}{{4096, 4096}, {0, 2048}, {2048, 2048}} {
		seg := make([]byte, frag.n)
		for i := range seg {
			seg[i] = byte(frag.off >> 8)
		}
		if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: frag.off, Data: seg}); err != nil {
			t.Fatalf("fragment at %d rejected: %v", frag.off, err)
		}
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); err != nil {
		t.Fatal(err)
	}
	if !st.OK() || len(got) != 8192 || got[0] != 0 || got[4096] != 16 {
		t.Fatalf("assembly wrong: status=%v len=%d", st, len(got))
	}
}

// TestShortReadEscalatesToDataXferError: a target claiming success while
// having delivered fewer data bytes than the read requested must not
// surface as a clean read — the coverage gap becomes StatusDataXferError.
func TestShortReadEscalatesToDataXferError(t *testing.T) {
	h := newHarness(t, tcConfig(1, 2))
	h.connect(t, 1)
	var st nvme.Status
	_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 2, Done: func(r Result) { st = r.Status }})
	cid := h.lastCmd(t).Cmd.CID
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: 0, Data: make([]byte, 4096)}); err != nil {
		t.Fatal(err)
	}
	// 4096 of 8192 bytes delivered, yet the target claims success.
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid, Status: nvme.StatusSuccess}}); err != nil {
		t.Fatal(err)
	}
	if st != nvme.StatusDataXferError {
		t.Fatalf("short read completed with %v, want StatusDataXferError", st)
	}
}

// TestReadBufferHooksLifecycle: Submit preallocates the full destination and announces it via OnReadBuffer; completion (and
// FailAll) retire the registration via OnReadRetire — the window in which
// a transport zero-copy sink may land payload bytes directly.
func TestReadBufferHooksLifecycle(t *testing.T) {
	bufs := make(map[nvme.CID][]byte)
	retired := make(map[nvme.CID]int)
	cfg := tcConfig(1, 4)
	cfg.OnReadBuffer = func(cid nvme.CID, buf []byte) { bufs[cid] = buf }
	cfg.OnReadRetire = func(cid nvme.CID) { retired[cid]++ }
	h := newHarness(t, cfg)
	h.connect(t, 1)

	var got []byte
	_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 0, Blocks: 2, Done: func(r Result) { got = r.Data }})
	cid := h.lastCmd(t).Cmd.CID
	buf, ok := bufs[cid]
	if !ok || len(buf) != 8192 {
		t.Fatalf("OnReadBuffer: got %d bytes registered, want 8192", len(buf))
	}
	// Simulate the transport sink: land bytes directly in the registered
	// buffer and hand the session an aliasing fragment (Borrowed).
	copy(buf[:4096], bytes47(4096))
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: 0, Data: buf[:4096], Borrowed: true}); err != nil {
		t.Fatal(err)
	}
	copy(buf[4096:], bytes47(4096))
	if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Offset: 4096, Data: buf[4096:], Borrowed: true}); err != nil {
		t.Fatal(err)
	}
	if retired[cid] != 0 {
		t.Fatal("read retired before its response")
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); err != nil {
		t.Fatal(err)
	}
	if retired[cid] != 1 {
		t.Fatalf("OnReadRetire ran %d times, want 1", retired[cid])
	}
	if len(got) != 8192 || got[0] != 47 || got[8191] != 47 {
		t.Fatalf("zero-copy landed data wrong: len=%d", len(got))
	}

	// Writes never register buffers.
	_ = h.sess.Submit(IO{Op: nvme.OpWrite, LBA: 0, Blocks: 1, Data: make([]byte, 4096), Done: func(Result) {}})
	if len(bufs) != 1 {
		t.Fatalf("write registered a read buffer: %d registrations", len(bufs))
	}

	// FailAll retires the write's CID-adjacent reads too: submit another
	// read, then kill the session.
	_ = h.sess.Submit(IO{Op: nvme.OpRead, LBA: 8, Blocks: 1, Done: func(Result) {}})
	readCID := h.lastCmd(t).Cmd.CID
	h.sess.FailAll(errors.New("link lost"))
	if retired[readCID] != 1 {
		t.Fatalf("FailAll did not retire the in-flight read (retired=%d)", retired[readCID])
	}
}

func bytes47(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 47
	}
	return b
}

// TestCIDOutsideQueueDepthIsProtocolError: the session has one slot per CID
// of its queue depth. A response or a data PDU naming any other CID comes
// from a target that is not speaking the negotiated protocol — a typed
// *ProtocolError, with the in-flight request untouched — where a CID that
// is in range but idle keeps its plain "unknown CID" error.
func TestCIDOutsideQueueDepthIsProtocolError(t *testing.T) {
	h := newHarness(t, Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 2, NSID: 1})
	h.connect(t, 1)
	if err := h.sess.Submit(IO{Op: nvme.OpRead, Blocks: 1, Done: func(Result) { t.Error("request completed") }}); err != nil {
		t.Fatal(err)
	}
	var pe *ProtocolError
	for _, cid := range []nvme.CID{2, 3, 4096, 65535} {
		if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}}); !errors.As(err, &pe) {
			t.Fatalf("response for CID %d at depth 2 surfaced as %T (%v), want *ProtocolError", cid, err, err)
		}
		if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: cid}, Coalesced: true}); !errors.As(err, &pe) {
			t.Fatalf("coalesced response for CID %d surfaced as %T (%v), want *ProtocolError", cid, err, err)
		}
		if err := h.sess.HandlePDU(&proto.C2HData{CCCID: cid, Data: make([]byte, 8)}); !errors.As(err, &pe) {
			t.Fatalf("C2HData for CID %d surfaced as %T (%v), want *ProtocolError", cid, err, err)
		}
	}
	if err := h.sess.HandlePDU(&proto.CapsuleResp{Cpl: nvme.Completion{CID: 1}}); err == nil || errors.As(err, &pe) {
		t.Fatalf("response for the idle in-range CID 1: %v, want a plain unknown-CID error", err)
	}
	if h.sess.Outstanding() != 1 {
		t.Fatalf("outstanding = %d after the rejected PDUs, want the one read", h.sess.Outstanding())
	}
}

// TestReclaimedCapsuleStaysWithItsSession: a capsule handed back through
// Reclaim is cleared and goes out again only in a later Submit of the
// session that reclaimed it, never a sibling's; a PDU type the session
// does not send passes through to proto.Recycle.
func TestReclaimedCapsuleStaysWithItsSession(t *testing.T) {
	a, b := newHarness(t, tcConfig(4, 8)), newHarness(t, tcConfig(4, 8))
	a.connect(t, 1)
	b.connect(t, 2)
	submit := func(h *harness) *proto.CapsuleCmd {
		t.Helper()
		if err := h.sess.Submit(IO{Op: nvme.OpWrite, Blocks: 1, Data: make([]byte, 4096), Done: func(Result) {}}); err != nil {
			t.Fatal(err)
		}
		return h.lastCmd(t)
	}
	first := submit(a)
	a.sess.Reclaim(first)
	if first.Data != nil || first.Cmd != (nvme.Command{}) || first.Tenant != 0 {
		t.Fatal("Reclaim left the capsule's fields set")
	}
	a.sess.Reclaim(&proto.CapsuleResp{}) // not a capsule: recycled, not listed
	if got := submit(b); got == first {
		t.Fatal("a sibling session sent a capsule another session reclaimed")
	}
	if got := submit(a); got != first {
		t.Fatal("the reclaiming session did not reuse its capsule")
	}
	if got := submit(a); got == first {
		t.Fatal("one reclaimed capsule went out twice")
	}
}
