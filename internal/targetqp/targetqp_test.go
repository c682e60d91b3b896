package targetqp

import (
	"bytes"
	"math/rand"
	"testing"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// fakeBackend executes commands against an in-memory store, holding
// completions until the test releases them (in any order).
type fakeBackend struct {
	ns    nvme.Namespace
	store *bdev.Memory
	queue []func()
	auto  bool // complete immediately on Submit
	highs int  // count of high-priority submissions
}

func newFakeBackend(t *testing.T, auto bool) *fakeBackend {
	t.Helper()
	ns := nvme.Namespace{ID: 1, BlockSize: 512, Capacity: 4096}
	store, err := bdev.NewMemory(ns.BlockSize, ns.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeBackend{ns: ns, store: store, auto: auto}
}

func (f *fakeBackend) Namespace() nvme.Namespace { return f.ns }

func (f *fakeBackend) Submit(cmd nvme.Command, data []byte, highPrio bool, done func(nvme.Completion, []byte)) {
	if highPrio {
		f.highs++
	}
	run := func() {
		cpl := nvme.Completion{CID: cmd.CID, Status: nvme.StatusSuccess}
		var out []byte
		if st := f.ns.CheckRange(cmd.SLBA, cmd.Blocks()); !st.OK() {
			cpl.Status = st
		} else {
			switch cmd.Opcode {
			case nvme.OpRead:
				out = make([]byte, f.ns.Bytes(cmd.Blocks()))
				if err := f.store.ReadBlocks(out, cmd.SLBA); err != nil {
					cpl.Status, out = nvme.StatusInternalError, nil
				}
			case nvme.OpWrite:
				if len(data) != f.ns.Bytes(cmd.Blocks()) {
					cpl.Status = nvme.StatusDataXferError
				} else if err := f.store.WriteBlocks(data, cmd.SLBA); err != nil {
					cpl.Status = nvme.StatusInternalError
				}
			case nvme.OpFlush:
			default:
				cpl.Status = nvme.StatusInvalidOpcode
			}
		}
		done(cpl, out)
	}
	if f.auto {
		run()
	} else {
		f.queue = append(f.queue, run)
	}
}

// releaseAll completes pending device commands in FIFO order.
func (f *fakeBackend) releaseAll() {
	for len(f.queue) > 0 {
		run := f.queue[0]
		f.queue = f.queue[1:]
		run()
	}
}

// releaseShuffled completes pending device commands in random order.
func (f *fakeBackend) releaseShuffled(rng *rand.Rand) {
	rng.Shuffle(len(f.queue), func(i, j int) { f.queue[i], f.queue[j] = f.queue[j], f.queue[i] })
	f.releaseAll()
}

// pair wires one host session to one target session with synchronous PDU
// delivery (round-tripping through the wire codec to exercise it).
func pair(t *testing.T, tgt *Target, hostCfg hostqp.Config) (*hostqp.Session, *Session) {
	t.Helper()
	clock := int64(0)
	var host *hostqp.Session
	var tsess *Session
	var err error
	tsess, err = tgt.NewSession(func(p proto.PDU) {
		// target -> host
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
	host, err = hostqp.New(hostCfg, func(p proto.PDU) {
		// host -> target
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
	return host, tsess
}

// ticks returns a clock that advances one nanosecond per reading.
func ticks() func() int64 {
	var now int64
	return func() int64 { now++; return now }
}

// TestNewTargetRequiresClock: service latency, queue ages, the watchdog and
// the ICResp's clock share all read Config.Clock, so a target refuses to
// exist without one.
func TestNewTargetRequiresClock(t *testing.T) {
	if _, err := NewTarget(Config{Mode: ModeOPF}, newFakeBackend(t, true)); err == nil {
		t.Fatal("NewTarget accepted a nil Clock")
	}
}

func opfTarget(t *testing.T, be Backend) *Target {
	t.Helper()
	tgt, err := NewTarget(Config{Mode: ModeOPF, Clock: ticks()}, be)
	if err != nil {
		t.Fatal(err)
	}
	return tgt
}

func tcCfg(window, qd int) hostqp.Config {
	return hostqp.Config{Class: proto.PrioThroughputCritical, Window: window, QueueDepth: qd, NSID: 1}
}

func lsCfg() hostqp.Config {
	return hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1}
}

func TestHandshakeAssignsTenants(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	h1, _ := pair(t, tgt, lsCfg())
	h2, _ := pair(t, tgt, tcCfg(4, 16))
	if h1.Tenant() == h2.Tenant() {
		t.Fatalf("tenants collide: %d", h1.Tenant())
	}
	if tgt.Stats().Connections != 2 {
		t.Fatalf("connections = %d", tgt.Stats().Connections)
	}
}

func TestWriteReadBackIntegrity(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	host, _ := pair(t, tgt, tcCfg(1, 8))             // window 1: every request drains
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 512) // 2 blocks
	var wrote, read bool
	err := host.Submit(hostqp.IO{
		Op: nvme.OpWrite, LBA: 100, Blocks: 2, Data: payload,
		Done: func(r hostqp.Result) {
			if !r.Status.OK() {
				t.Errorf("write status %v", r.Status)
			}
			wrote = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = host.Submit(hostqp.IO{
		Op: nvme.OpRead, LBA: 100, Blocks: 2,
		Done: func(r hostqp.Result) {
			if !r.Status.OK() {
				t.Errorf("read status %v", r.Status)
			}
			if !bytes.Equal(r.Data, payload) {
				t.Error("read-back mismatch")
			}
			read = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !wrote || !read {
		t.Fatalf("wrote=%v read=%v", wrote, read)
	}
}

func TestCoalescingReducesResponses(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	const window, n = 8, 64
	host, _ := pair(t, tgt, tcCfg(window, n))
	completed := 0
	for i := 0; i < n; i++ {
		err := host.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(r hostqp.Result) { completed++ },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if completed != n {
		t.Fatalf("completed %d/%d", completed, n)
	}
	// One response PDU per window instead of per request.
	if got := tgt.Stats().RespPDUs; got != n/window {
		t.Fatalf("response PDUs = %d, want %d", got, n/window)
	}
	if got := host.Stats().RespPDUs; got != n/window {
		t.Fatalf("host-observed response PDUs = %d", got)
	}
}

func TestBaselineSendsOneResponsePerRequest(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt, err := NewTarget(Config{Mode: ModeBaseline, Clock: ticks()}, be)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := pair(t, tgt, tcCfg(8, 64))
	const n = 32
	completed := 0
	for i := 0; i < n; i++ {
		if err := host.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(hostqp.Result) { completed++ },
		}); err != nil {
			t.Fatal(err)
		}
	}
	if completed != n {
		t.Fatalf("completed %d/%d", completed, n)
	}
	if got := tgt.Stats().RespPDUs; got != n {
		t.Fatalf("baseline response PDUs = %d, want %d", got, n)
	}
	if be.highs != 0 {
		t.Fatalf("baseline submitted %d high-priority commands", be.highs)
	}
}

func TestLSBypassSubmitsHighPriority(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	host, _ := pair(t, tgt, lsCfg())
	done := false
	if err := host.Submit(hostqp.IO{
		Op: nvme.OpRead, LBA: 0, Blocks: 1,
		Done: func(r hostqp.Result) { done = r.Status.OK() },
	}); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("LS request did not complete")
	}
	if be.highs != 1 {
		t.Fatalf("high-priority submissions = %d, want 1", be.highs)
	}
	if tgt.PMStats().LSBypassed != 1 {
		t.Fatalf("LSBypassed = %d", tgt.PMStats().LSBypassed)
	}
}

func TestReadDataFlowsPerRequestEvenWhenCoalesced(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	const window = 4
	host, _ := pair(t, tgt, tcCfg(window, window))
	// Seed data.
	seed := make([]byte, 512*window)
	for i := range seed {
		seed[i] = byte(i)
	}
	if err := be.store.WriteBlocks(seed, 0); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	for i := 0; i < window; i++ {
		i := i
		if err := host.Submit(hostqp.IO{
			Op: nvme.OpRead, LBA: uint64(i), Blocks: 1,
			Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					t.Errorf("read %d status %v", i, r.Status)
				}
				got = append(got, r.Data)
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != window {
		t.Fatalf("completed %d/%d", len(got), window)
	}
	for i, data := range got {
		if !bytes.Equal(data, seed[i*512:(i+1)*512]) {
			t.Fatalf("read %d data mismatch", i)
		}
	}
	// window data PDUs but only 1 response PDU.
	st := tgt.Stats()
	if st.DataPDUs != window || st.RespPDUs != 1 {
		t.Fatalf("data=%d resp=%d", st.DataPDUs, st.RespPDUs)
	}
}

func TestOutOfOrderDeviceCompletionsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		be := newFakeBackend(t, false) // manual completion release
		tgt := opfTarget(t, be)
		const window, n = 4, 32
		host, _ := pair(t, tgt, tcCfg(window, n))
		completions := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			lba := uint64(i)
			if err := host.Submit(hostqp.IO{
				Op: nvme.OpWrite, LBA: lba, Blocks: 1, Data: make([]byte, 512),
				Done: func(r hostqp.Result) {
					if completions[lba] {
						t.Fatalf("double completion for %d", lba)
					}
					completions[lba] = true
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		be.releaseShuffled(rng)
		if len(completions) != n {
			t.Fatalf("trial %d: completed %d/%d", trial, len(completions), n)
		}
		if host.Outstanding() != 0 {
			t.Fatalf("trial %d: %d CIDs leaked", trial, host.Outstanding())
		}
	}
}

func TestErrorInsideWindowPropagates(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	host, _ := pair(t, tgt, tcCfg(2, 4))
	var statuses []nvme.Status
	// First request out of range, second valid; both in one window.
	if err := host.Submit(hostqp.IO{
		Op: nvme.OpWrite, LBA: 1 << 20, Blocks: 1, Data: make([]byte, 512),
		Done: func(r hostqp.Result) { statuses = append(statuses, r.Status) },
	}); err != nil {
		t.Fatal(err)
	}
	if err := host.Submit(hostqp.IO{
		Op: nvme.OpWrite, LBA: 0, Blocks: 1, Data: make([]byte, 512),
		Done: func(r hostqp.Result) { statuses = append(statuses, r.Status) },
	}); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Fatalf("completed %d", len(statuses))
	}
	// The coalesced response carries the window's error status: both
	// callbacks observe it (documented coalescing semantics).
	for _, st := range statuses {
		if st != nvme.StatusLBAOutOfRange {
			t.Fatalf("status = %v, want LBAOutOfRange", st)
		}
	}
}

func TestQueueDepthEnforced(t *testing.T) {
	be := newFakeBackend(t, false) // hold completions
	tgt := opfTarget(t, be)
	host, _ := pair(t, tgt, tcCfg(4, 4))
	for i := 0; i < 4; i++ {
		if err := host.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(hostqp.Result) {},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if host.CanSubmit() {
		t.Fatal("CanSubmit true at full QD")
	}
	if err := host.Submit(hostqp.IO{Op: nvme.OpRead, LBA: 0, Blocks: 1, Done: func(hostqp.Result) {}}); err == nil {
		t.Fatal("submit beyond QD accepted")
	}
	be.releaseAll()
	if !host.CanSubmit() {
		t.Fatal("CanSubmit false after drain")
	}
}

func TestFlushTailWindow(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	host, _ := pair(t, tgt, tcCfg(8, 16))
	done := 0
	for i := 0; i < 3; i++ { // partial window
		if err := host.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(hostqp.Result) { done++ },
		}); err != nil {
			t.Fatal(err)
		}
	}
	if done != 0 {
		t.Fatalf("tail window completed early: %d", done)
	}
	// Flush: the next request drains the tail.
	host.Flush()
	if err := host.Submit(hostqp.IO{
		Op: nvme.OpWrite, LBA: 3, Blocks: 1, Data: make([]byte, 512),
		Done: func(hostqp.Result) { done++ },
	}); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Fatalf("flush completed %d/4", done)
	}
}

func TestPerIOPriorityOverride(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	host, _ := pair(t, tgt, tcCfg(8, 16))
	// An LS-tagged metadata read on a TC connection completes immediately
	// without waiting for the window.
	done := false
	if err := host.Submit(hostqp.IO{
		Op: nvme.OpRead, LBA: 0, Blocks: 1, Prio: proto.PrioLatencySensitive,
		Done: func(r hostqp.Result) { done = r.Status.OK() },
	}); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("LS override request did not complete immediately")
	}
	if be.highs != 1 {
		t.Fatalf("high submissions = %d", be.highs)
	}
}

func TestSharedQueueAblationStillCompletesEverything(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt, err := NewTarget(Config{Mode: ModeOPF, Clock: ticks(), SharedQueueAblation: true}, be)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := pair(t, tgt, tcCfg(4, 16))
	h2, _ := pair(t, tgt, tcCfg(4, 16))
	done1, done2 := 0, 0
	// Interleave submissions from two tenants into the shared queue.
	for i := 0; i < 8; i++ {
		if err := h1.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 512),
			Done: func(hostqp.Result) { done1++ }}); err != nil {
			t.Fatal(err)
		}
		if err := h2.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(64 + i), Blocks: 1, Data: make([]byte, 512),
			Done: func(hostqp.Result) { done2++ }}); err != nil {
			t.Fatal(err)
		}
	}
	if done1 != 8 || done2 != 8 {
		t.Fatalf("done1=%d done2=%d", done1, done2)
	}
	if tgt.PMStats().PrematureFlush == 0 {
		t.Fatal("shared queue produced no premature flushes; ablation not exercised")
	}
	// The hazard shows up as lost coalescing: more responses than the
	// isolated design's one-per-window.
	if tgt.Stats().RespPDUs <= 4 {
		t.Fatalf("resp PDUs = %d; expected coalescing loss", tgt.Stats().RespPDUs)
	}
}

func TestDuplicateCIDRejected(t *testing.T) {
	be := newFakeBackend(t, false)
	tgt := opfTarget(t, be)
	var tsess *Session
	var got []proto.PDU
	tsess, err := tgt.NewSession(func(p proto.PDU) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	if err := tsess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion, QueueDepth: 8}); err != nil {
		t.Fatal(err)
	}
	cmd := &proto.CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 5, NSID: 1}, Prio: proto.PrioNormal}
	if err := tsess.HandlePDU(cmd); err != nil {
		t.Fatal(err)
	}
	if err := tsess.HandlePDU(cmd); err != nil {
		t.Fatal(err)
	}
	// Second submission with same CID answered with IDConflict.
	found := false
	for _, p := range got {
		if r, ok := p.(*proto.CapsuleResp); ok && r.Cpl.Status == nvme.StatusIDConflict {
			found = true
		}
	}
	if !found {
		t.Fatalf("no IDConflict response in %d PDUs", len(got))
	}
}

func TestProtocolVersionMismatch(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	var got []proto.PDU
	tsess, _ := tgt.NewSession(func(p proto.PDU) { got = append(got, p) })
	if err := tsess.HandlePDU(&proto.ICReq{PFV: 99}); err == nil {
		t.Fatal("bad PFV accepted")
	}
	if len(got) != 1 {
		t.Fatalf("pdus = %d", len(got))
	}
	if _, ok := got[0].(*proto.TermReq); !ok {
		t.Fatalf("want TermReq, got %v", got[0].PDUType())
	}
}

func TestCommandBeforeHandshakeRejected(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	tsess, _ := tgt.NewSession(func(proto.PDU) {})
	err := tsess.HandlePDU(&proto.CapsuleCmd{Cmd: nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1}})
	if err == nil {
		t.Fatal("command before handshake accepted")
	}
}

func TestOversizedInCapsuleDataRejected(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt, _ := NewTarget(Config{Mode: ModeOPF, Clock: ticks(), MaxDataLen: 1024}, be)
	var got []proto.PDU
	tsess, _ := tgt.NewSession(func(p proto.PDU) { got = append(got, p) })
	if err := tsess.HandlePDU(&proto.ICReq{PFV: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	if err := tsess.HandlePDU(&proto.CapsuleCmd{
		Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, NLB: 7},
		Data: make([]byte, 4096),
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range got {
		if r, ok := p.(*proto.CapsuleResp); ok && r.Cpl.Status == nvme.StatusInvalidField {
			found = true
		}
	}
	if !found {
		t.Fatal("oversized capsule not rejected")
	}
}

func TestTenantSpaceExhaustion(t *testing.T) {
	be := newFakeBackend(t, true)
	// Start the allocator two IDs below the 16-bit ceiling so exhaustion
	// is reached after two handshakes instead of 65536.
	tgt, err := NewTarget(Config{Mode: ModeOPF, Clock: ticks(), TenantBase: 65534}, be)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		s, err := tgt.NewSession(func(proto.PDU) {})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if err := s.HandlePDU(&proto.ICReq{PFV: ProtocolVersion}); err != nil {
			t.Fatalf("handshake %d: %v", i, err)
		}
	}
	if _, err := tgt.NewSession(func(proto.PDU) {}); err == nil {
		t.Fatal("session past the 65536-ID space accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModeBaseline.String() == "" || ModeOPF.String() == "" {
		t.Fatal("empty mode strings")
	}
}

func TestCloseSessionDropsQueueAndRecyclesTenantID(t *testing.T) {
	be := newFakeBackend(t, false)
	tgt := opfTarget(t, be)
	host, tsess := pair(t, tgt, tcCfg(8, 16)) // window 8: nothing drains
	for i := 0; i < 3; i++ {
		err := host.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1,
			Data: make([]byte, 512), Done: func(hostqp.Result) {}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := tgt.ActiveSessions(); n != 1 {
		t.Fatalf("active sessions = %d", n)
	}
	tgt.CloseSession(tsess)
	if !tsess.Dead() {
		t.Fatal("session not marked dead")
	}
	if n := tgt.ActiveSessions(); n != 0 {
		t.Fatalf("active sessions after close = %d", n)
	}
	st := tgt.Stats()
	if st.Disconnects != 1 || st.TeardownDrops != 3 {
		t.Fatalf("disconnects=%d teardownDrops=%d", st.Disconnects, st.TeardownDrops)
	}
	if pm := tgt.PMStats(); pm.TeardownDrops != 3 {
		t.Fatalf("PM TeardownDrops = %d", pm.TeardownDrops)
	}
	// A second close is a no-op.
	tgt.CloseSession(tsess)
	if tgt.Stats().Disconnects != 1 {
		t.Fatal("CloseSession not idempotent")
	}
	// No in-flight requests remained, so the tenant ID recycles at once.
	h2, _ := pair(t, tgt, lsCfg())
	if h2.Tenant() != host.Tenant() {
		t.Fatalf("tenant not recycled: old=%d new=%d", host.Tenant(), h2.Tenant())
	}
}

func TestCloseSessionDefersTenantReuseUntilInFlightDrains(t *testing.T) {
	be := newFakeBackend(t, false)
	tgt := opfTarget(t, be)
	host, tsess := pair(t, tgt, tcCfg(2, 16)) // window 2: 2nd submit drains
	for i := 0; i < 2; i++ {
		err := host.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1,
			Data: make([]byte, 512), Done: func(hostqp.Result) {}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(be.queue) != 2 {
		t.Fatalf("in-flight = %d, want the drained window of 2", len(be.queue))
	}
	// One more sits queued (window half full) when the connection dies.
	err := host.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: 9, Blocks: 1,
		Data: make([]byte, 512), Done: func(hostqp.Result) {}})
	if err != nil {
		t.Fatal(err)
	}
	tgt.CloseSession(tsess)
	if st := tgt.Stats(); st.TeardownDrops != 1 {
		t.Fatalf("TeardownDrops = %d, want only the queued request", st.TeardownDrops)
	}
	// Two device callbacks are still in flight: the tenant ID must NOT be
	// reusable yet, or their completions could be attributed to a new owner.
	h2, _ := pair(t, tgt, lsCfg())
	if h2.Tenant() == host.Tenant() {
		t.Fatalf("tenant %d recycled while callbacks in flight", host.Tenant())
	}
	// Completions land in the tombstoned session: no response PDU goes out.
	be.releaseAll()
	if st := tgt.Stats(); st.RespPDUs != 0 {
		t.Fatalf("dead session sent %d responses", st.RespPDUs)
	}
	// Now the pool is drained and the ID is safe to reuse.
	h3, _ := pair(t, tgt, lsCfg())
	if h3.Tenant() != host.Tenant() {
		t.Fatalf("tenant not recycled after drain: old=%d new=%d", host.Tenant(), h3.Tenant())
	}
}

func TestCloseSessionSurvivorsKeepCompleting(t *testing.T) {
	be := newFakeBackend(t, false)
	tgt := opfTarget(t, be)
	victim, vsess := pair(t, tgt, tcCfg(4, 16))
	survivor, _ := pair(t, tgt, tcCfg(2, 16))
	for i := 0; i < 2; i++ {
		if err := victim.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1,
			Data: make([]byte, 512), Done: func(hostqp.Result) {}}); err != nil {
			t.Fatal(err)
		}
	}
	tgt.CloseSession(vsess)
	// The survivor's window drains and completes normally.
	completed := 0
	for i := 0; i < 2; i++ {
		err := survivor.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(100 + i), Blocks: 1,
			Data: make([]byte, 512), Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					t.Errorf("survivor status %v", r.Status)
				}
				completed++
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	be.releaseAll()
	if completed != 2 {
		t.Fatalf("survivor completed %d of 2 after neighbour teardown", completed)
	}
}

func TestCloseSessionBeforeHandshakeIsNoop(t *testing.T) {
	be := newFakeBackend(t, true)
	tgt := opfTarget(t, be)
	tsess, err := tgt.NewSession(func(proto.PDU) {})
	if err != nil {
		t.Fatal(err)
	}
	tgt.CloseSession(tsess)
	tgt.CloseSession(nil)
	if st := tgt.Stats(); st.Disconnects != 0 {
		t.Fatalf("Disconnects = %d for unconnected session", st.Disconnects)
	}
}
