// Package hostqp implements the NVMe-oPF initiator queue-pair state
// machine. It is sans-IO: the session consumes inbound PDUs through
// HandlePDU and emits outbound PDUs through a caller-provided send
// function, so the same state machine drives both the real TCP transport
// and the discrete-event simulator.
//
// The session implements the host half of the paper's design: it opens the
// connection with a priority class, stamps every command capsule with the
// class's flags and the target-assigned tenant ID, lets the host priority
// manager insert draining flags each window (Alg. 1), and replays
// coalesced completions over the submission-ordered pending queue
// (Alg. 2), which also reconciles out-of-order device completions (§IV-C).
package hostqp

import (
	"errors"
	"fmt"
	"sort"

	"nvmeopf/internal/core"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// ProtocolVersion is the PFV this runtime speaks.
const ProtocolVersion = 1

// ErrQueueFull is returned by Submit when QueueDepth commands are already
// outstanding; callers doing their own flow control retry after the next
// completion. The rejection has no side effects: no CID is consumed, no
// PDU is emitted, and nothing is left in the pending queue — submit,
// complete, and retry cycles keep depth accounting exact (regression-
// tested by TestErrQueueFullLeavesNoState).
var ErrQueueFull = errors.New("hostqp: queue depth exceeded")

// ProtocolError is a handshake- or protocol-level rejection by the peer:
// a TermReq (bad PFV, unknown NSID) or an incompatible ICResp. It marks
// failures where retrying the same dial against the same target cannot
// succeed, so transports abort their retry loops instead of burning
// attempts against a healthy-but-incompatible target.
type ProtocolError struct {
	// FES is the fatal error status from a TermReq (0 when the error was
	// detected locally, e.g. an ICResp version mismatch).
	FES uint16
	// Reason is the peer's diagnostic string or the local detection.
	Reason string
}

// Error implements error.
func (e *ProtocolError) Error() string {
	if e.FES != 0 {
		return fmt.Sprintf("hostqp: connection rejected: FES=%d %s", e.FES, e.Reason)
	}
	return "hostqp: " + e.Reason
}

// Config describes one initiator connection.
type Config struct {
	// Class is the connection's priority class: PrioLatencySensitive,
	// PrioThroughputCritical, PrioScavenger (best-effort), or PrioNormal
	// (legacy NVMe-oF). Individual IOs may override it, except across the
	// TC/scavenger boundary — both classes replay the same
	// submission-ordered pending queue, so they must not share a session
	// (Submit rejects such overrides).
	Class proto.Priority
	// Window is the drain window size for throughput-critical traffic.
	Window int
	// QueueDepth bounds outstanding commands (TC initiators use 128 and
	// LS initiators 1 in the paper's evaluation).
	QueueDepth int
	// Dynamic optionally attaches the §IV-D runtime window tuner.
	Dynamic *core.DynamicWindow
	// NSID is the namespace addressed by Read/Write helpers.
	NSID uint32
	// Telemetry optionally attaches a live metrics registry recording
	// host-side instruments (submitted/completed/bytes/latency, window
	// decisions) keyed by the target-assigned tenant ID. Nil disables at
	// zero cost.
	Telemetry *telemetry.Registry
	// Recorder optionally attaches a host-side flight recorder: it receives
	// the session's PDU lifecycle events (submit, drain-mark, replay,
	// complete), and the ICReq/ICResp handshake feeds it the clock-offset
	// estimate that lets opf-trace merge host and target dumps onto one
	// time axis. Nil disables.
	Recorder *telemetry.Recorder
	// OnReadBuffer and OnReadRetire are transport-owned hooks for the
	// zero-copy read path. Submit settles each read's destination buffer
	// (IO.Data, or one lent from the session's free list) and announces it
	// via OnReadBuffer(cid, buf) before the command reaches the wire; the
	// transport registers it so its reader can land C2HData payloads
	// directly at the right offset (proto.Reader.SetC2HSink).
	// OnReadRetire(cid) runs when the read leaves the pending set —
	// completion, replay, or FailAll — so the registration never outlives
	// the request. Nil hooks disable the path at zero cost.
	//
	// A session without OnReadBuffer keeps a C2HData payload that covers a
	// whole read submitted without IO.Data as that read's Result.Data,
	// instead of copying it into a lent buffer (see IO.Data). A transport
	// that reuses inbound payload buffers must therefore register the hook.
	OnReadBuffer func(cid nvme.CID, buf []byte)
	OnReadRetire func(cid nvme.CID)
}

// Validate checks the configuration. QueueDepth is capped at 65535: the
// ICReq carries it in a uint16, so 65536 would silently truncate to a
// zero-depth connection on the wire.
func (c Config) Validate() error {
	if c.QueueDepth < 1 || c.QueueDepth > 65535 {
		return fmt.Errorf("hostqp: queue depth %d out of range [1, 65535]", c.QueueDepth)
	}
	if c.Window < 1 {
		return fmt.Errorf("hostqp: window %d < 1", c.Window)
	}
	if c.NSID == 0 {
		return fmt.Errorf("hostqp: NSID 0 is reserved")
	}
	return nil
}

// Result is delivered to the IO callback on completion.
type Result struct {
	Status nvme.Status
	// Data is the read payload (nil for writes and flushes). For a read
	// submitted with IO.Data set it aliases that buffer; for a read
	// submitted with IO.Data nil it is read-only and valid only until the
	// Done callback returns (see IO.Data).
	Data        []byte
	SubmittedAt int64 // clock value at submission
	CompletedAt int64 // clock value at application-visible completion
	// Err is non-nil exactly when the request ended without a device
	// status: it never reached a completion because its connection was
	// lost or closed (FailAll's cause). Status is then StatusAborted (or
	// the local rejection).
	Err error
}

// Latency returns the request's end-to-end latency in clock units.
func (r Result) Latency() int64 { return r.CompletedAt - r.SubmittedAt }

// IO describes one I/O request.
type IO struct {
	Op     nvme.Opcode
	LBA    uint64
	Blocks uint32
	// Data is the write payload, or the read destination; either way it
	// must be Blocks × block size bytes, and it stays the caller's: the
	// session only references it until Done runs.
	//
	// A read may leave Data nil. The session then lends a buffer from its
	// own free list: Result.Data is valid until the Done callback returns,
	// after which the buffer is reused for a later read — a caller that
	// hands the bytes onward (returns them, stores them, passes them to
	// another goroutine) must supply its own Data instead. Session-owned
	// buffers are recycled only after a normal completion; the buffers of
	// requests failed by FailAll are dropped, because the transport's
	// reader may still be landing bytes in them. On a session without
	// Config.OnReadBuffer (the simulator) a payload that arrives whole is
	// kept as Result.Data instead, uncopied: it may be the device's shared
	// zero view, so Result.Data of such a read is never written to.
	Data []byte
	// Prio optionally overrides the connection class for this request
	// (zero value means "use the connection class"). PrioTCDraining is a
	// TC request that closes the current window: it carries the draining
	// flag whatever the window count.
	Prio proto.Priority
	// Done receives the completion. It runs in the session's event
	// context: the simulator loop, or the transport's reactor — over
	// tcptrans that is the connection's reactor goroutine or, on a
	// latency-sensitive connection, the reader goroutine that borrowed the
	// idle reactor to complete a burst. Never two at once for one session,
	// never on the goroutine that submitted, and before the transport's
	// Close returns.
	Done func(Result)
}

// pendingReq is the host-side request state.
type pendingReq struct {
	io           IO
	prio         proto.Priority // wire priority (selects the LS/TC histogram)
	coalescable  bool           // routed through the host PM's pending queue
	submittedAt  int64
	readBuf      []byte
	lentBuf      bool    // readBuf came from the session's free list
	lendLate     bool    // lend readBuf when data arrives, unless a payload covers the read
	readBytes    int     // bytes covered by accepted (non-overlapping) fragments
	expectedRead int     // Blocks × block size
	spans        []span  // accepted C2HData fragments, kept sorted by start
	oneSpan      [1]span // spans' first backing array: a one-fragment read needs no other
	bytesMoved   int64   // accounted on completion for the dynamic tuner
}

// span is one accepted C2HData fragment, [start, end) in buffer bytes.
type span struct{ start, end int }

// addSpan records fragment [start, end) in the request's coverage map,
// rejecting any overlap with an already-accepted fragment — a duplicate
// or overlapping retransmission would otherwise double-count readBytes
// and let a read complete "fully covered" with holes in the data.
// Fragments per read are few (usually one), so the sorted insert is
// cheap.
func (r *pendingReq) addSpan(start, end int) bool {
	i := sort.Search(len(r.spans), func(i int) bool { return r.spans[i].end > start })
	if i < len(r.spans) && r.spans[i].start < end {
		return false // overlaps spans[i]
	}
	r.spans = append(r.spans, span{})
	copy(r.spans[i+1:], r.spans[i:])
	r.spans[i] = span{start, end}
	return true
}

// Stats counts host-session events.
type Stats struct {
	Submitted   int64
	Completed   int64
	Errors      int64
	CmdPDUs     int64
	RespPDUs    int64 // completion notifications received (Fig. 6(c) metric)
	DataPDUs    int64
	BytesRead   int64
	BytesWrited int64
}

// Session is an initiator queue pair. It is not safe for concurrent use;
// the transport layer serializes calls (event loop or a per-connection
// goroutine).
type Session struct {
	cfg   Config
	send  func(proto.PDU)
	clock func() int64
	pm    *core.HostPM
	reqs  nvme.Slots[pendingReq] // in flight, by CID
	// free holds the CIDs whose slots are vacant, taken from the end:
	// filled with depth-1 … 0, so never-used CIDs come out in ascending
	// order, and a CID a completion vacates is the next one handed out.
	free   []nvme.CID
	tenant proto.TenantID

	connected    bool
	onConnect    []func()
	drainedBytes int64 // bytes completed since last drain (tuner input)
	nsBlockSize  uint32
	nsCapacity   uint64

	// Clock correlation from the handshake (see handleICResp), refreshed
	// by every TelemetryAck when the feedback channel runs.
	icReqSentAt  int64
	clockOffset  int64 // target clock minus host clock
	handshakeRTT int64 // RTT of the most recent estimate (its error bound)

	// e2e accumulates host-observed end-to-end telemetry between
	// TelemetryUpdates. Nil until EnableE2E: sessions on transports that
	// never emit updates pay nothing.
	e2e *telemetry.E2EAccum

	// Free lists, so a steady-state read allocates neither its destination
	// nor its request state. Per session, never a shared pool: a target
	// that sends C2HData after the response it belongs to can then only
	// scribble on reads of its own connection.
	freeBufs [][]byte
	freeReqs []*pendingReq
	// freeCmds holds capsules handed back by Reclaim. Only a fabric that
	// delivers on the session's own goroutine reclaims (the simulator);
	// over TCP the writer recycles into proto's pools and this stays empty.
	freeCmds []*proto.CapsuleCmd
	one      [1]nvme.CID // handleResp's single-completion list

	stats Stats
}

// New creates a session. send emits outbound PDUs; clock provides
// timestamps (virtual in simulation, wall elsewhere).
func New(cfg Config, send func(proto.PDU), clock func() int64) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if send == nil || clock == nil {
		return nil, errors.New("hostqp: nil send or clock")
	}
	if cfg.Window > cfg.QueueDepth {
		// A window deeper than the queue depth could never fill, so the
		// drain flag would never be sent and the window would wait at the
		// target forever — the lockup analysed in §IV-A. Clamp.
		cfg.Window = cfg.QueueDepth
	}
	pm := core.NewHostPM(proto.PrioThroughputCritical, cfg.Window)
	if cfg.Dynamic != nil {
		pm.EnableDynamicWindow(cfg.Dynamic)
	}
	free := make([]nvme.CID, cfg.QueueDepth)
	for i := range free {
		free[i] = nvme.CID(cfg.QueueDepth - 1 - i)
	}
	return &Session{
		cfg:   cfg,
		send:  send,
		clock: clock,
		pm:    pm,
		reqs:  nvme.NewSlots[pendingReq](cfg.QueueDepth),
		free:  free,
	}, nil
}

// Start sends the connection request. The session accepts submissions only
// after the ICResp arrives (use OnConnect to sequence).
func (s *Session) Start() {
	s.icReqSentAt = s.clock()
	// Validate caps QueueDepth at 65535, so this conversion is exact — no
	// silent masking that could advertise a zero-depth queue. A window past
	// the queue depth could never fill, so the declared one is at most it.
	s.send(&proto.ICReq{
		PFV:        ProtocolVersion,
		QueueDepth: uint16(s.cfg.QueueDepth),
		Prio:       s.cfg.Class,
		Window:     uint16(min(s.pm.Window(), s.cfg.QueueDepth)),
		NSID:       s.cfg.NSID,
	})
}

// OnConnect registers fn to run once the handshake completes (immediately
// if already connected).
func (s *Session) OnConnect(fn func()) {
	if s.connected {
		fn()
		return
	}
	s.onConnect = append(s.onConnect, fn)
}

// Connected reports whether the handshake completed.
func (s *Session) Connected() bool { return s.connected }

// Tenant returns the target-assigned tenant ID (valid after connect).
func (s *Session) Tenant() proto.TenantID { return s.tenant }

// BlockSize returns the namespace logical block size learned during the
// handshake (0 before connect).
func (s *Session) BlockSize() uint32 { return s.nsBlockSize }

// Capacity returns the namespace capacity in logical blocks learned during
// the handshake.
func (s *Session) Capacity() uint64 { return s.nsCapacity }

// Window returns the current drain window size.
func (s *Session) Window() int { return s.pm.Window() }

// ClockOffset returns the handshake-estimated target-minus-host clock
// offset and the round-trip time bounding its error (both zero before
// connect, or when the target did not share a clock).
func (s *Session) ClockOffset() (offset, rtt int64) {
	return s.clockOffset, s.handshakeRTT
}

// Stats returns a copy of the session counters.
func (s *Session) Stats() Stats { return s.stats }

// EnableE2E attaches the end-to-end accumulator: from here on every
// completion's host-observed latency (and busy push-back) is folded into
// the deltas BuildTelemetryUpdate ships. Transports call it when their
// telemetry cadence is configured; idempotent.
func (s *Session) EnableE2E() {
	if s.e2e == nil {
		s.e2e = telemetry.NewE2EAccum()
	}
}

// BuildTelemetryUpdate assembles the next TelemetryUpdate PDU: the e2e
// histogram deltas accumulated since the previous call, the current
// outstanding depth, and the host clock for the ack's offset re-estimate.
// Returns nil when the feedback channel is off or the handshake has not
// completed — callers send whatever non-nil update they get, since even an
// empty one refreshes the clock estimate and queue-depth gauge.
func (s *Session) BuildTelemetryUpdate() *proto.TelemetryUpdate {
	if s.e2e == nil || !s.connected {
		return nil
	}
	u := &proto.TelemetryUpdate{
		HostClock:  s.clock(),
		QueueDepth: uint32(s.reqs.Len()),
	}
	s.e2e.FillUpdate(u)
	return u
}

// Outstanding returns the number of commands in flight.
func (s *Session) Outstanding() int { return s.reqs.Len() }

// CanSubmit reports whether another Submit would be admitted by the queue
// depth bound.
func (s *Session) CanSubmit() bool { return s.connected && len(s.free) > 0 }

// Submit issues one I/O. It returns an error if the session is not
// connected, the queue is full, or the request is malformed. A rejected
// Submit leaves no state behind — in particular an ErrQueueFull rejection
// happens before the TC pending queue or the wire is touched, so depth
// accounting stays exact across retry cycles.
func (s *Session) Submit(io IO) error {
	if !s.connected {
		return errors.New("hostqp: submit before handshake")
	}
	if io.Done == nil {
		return errors.New("hostqp: IO without Done callback")
	}
	if io.Blocks == 0 && io.Op != nvme.OpFlush {
		return errors.New("hostqp: zero-length IO")
	}
	// Zero priority means "inherit the connection class" (PrioNormal is
	// the zero value; a connection classed normal stays normal).
	eff := io.Prio
	if eff == 0 {
		eff = s.cfg.Class
	}
	// TC and scavenger requests replay the same submission-ordered
	// pending queue, so mixing them on one session would let a coalesced
	// response of one class prematurely complete the other's parked CIDs.
	// Checked before the CID allocation so the rejection leaves no state.
	if eff.Scavenger() && !s.cfg.Class.Scavenger() {
		return errors.New("hostqp: scavenger override on a non-scavenger connection; open a scavenger-class connection instead")
	}
	if eff.ThroughputCritical() && s.cfg.Class.Scavenger() {
		return errors.New("hostqp: throughput-critical override on a scavenger connection; open a TC-class connection instead")
	}
	// A write payload and a caller-supplied read destination are checked
	// here, before the CID allocation, for the same reason.
	size := int(io.Blocks) * int(s.nsBlockSize)
	if io.Op == nvme.OpWrite && len(io.Data) != size {
		return fmt.Errorf("hostqp: write payload is %d bytes, want %d (%d blocks of %d)",
			len(io.Data), size, io.Blocks, s.nsBlockSize)
	}
	if io.Op == nvme.OpRead && io.Data != nil && len(io.Data) != size {
		return fmt.Errorf("hostqp: read destination is %d bytes, want %d (%d blocks of %d)",
			len(io.Data), size, io.Blocks, s.nsBlockSize)
	}
	k := len(s.free)
	if k == 0 {
		return ErrQueueFull
	}
	cid := s.free[k-1]
	s.free = s.free[:k-1]

	req := s.getReq()
	req.io, req.submittedAt = io, s.clock()
	var wire proto.Priority
	switch {
	case eff.ThroughputCritical():
		// Alg. 1: queue the CID and let the PM decide when to drain. A
		// flush command is a durability barrier, so it closes the current
		// window: everything before it completes with it.
		if eff.Draining() || io.Op == nvme.OpFlush {
			s.pm.ForceDrainNext()
		}
		wire = s.pm.Stamp(cid)
		req.coalescable = true
	case eff.Scavenger():
		// Scavenger requests ride the same pending queue (the target's
		// coalesced drain response replays them) but carry no draining
		// flags: the target decides when leftover capacity or aging
		// releases the window.
		wire = s.pm.Track(cid)
		req.coalescable = true
	default:
		wire = eff
	}
	req.prio = wire

	cmd := nvme.Command{Opcode: io.Op, CID: cid, NSID: s.cfg.NSID, SLBA: io.LBA}
	if io.Op != nvme.OpFlush {
		cmd.NLB = uint16(io.Blocks - 1)
	}
	var data []byte
	switch io.Op {
	case nvme.OpWrite:
		data = io.Data
		req.bytesMoved = int64(len(data))
		s.stats.BytesWrited += int64(len(data))
	case nvme.OpRead:
		// The whole destination exists up front — the caller's buffer, or
		// one lent from the free list — so inbound C2HData can land
		// directly at Offset (the transport's reader sinks payload bytes
		// straight into it) and wire offsets are validated against the
		// expected length, not trusted.
		req.expectedRead = size
		// Without a sink nothing needs a lent destination before the data
		// arrives, and a payload that covers the read can stand in for it.
		req.readBuf = io.Data
		switch {
		case req.readBuf != nil:
		case s.cfg.OnReadBuffer == nil:
			req.lendLate = true
		default:
			req.readBuf, req.lentBuf = s.getReadBuf(size), true
		}
		if s.cfg.OnReadBuffer != nil {
			s.cfg.OnReadBuffer(cid, req.readBuf)
		}
	}
	s.reqs.Set(cid, req)
	s.stats.Submitted++
	s.stats.CmdPDUs++
	s.cfg.Telemetry.IncSubmitted(s.tenant, int64(len(data)))
	if s.cfg.Recorder != nil {
		// Causal order: the request exists (submit) before the flag it
		// carries does, so the window's own draining request reconstructs
		// like every other.
		s.cfg.Recorder.Trace(telemetry.Event{Stage: telemetry.StageSubmit, Tenant: s.tenant, CID: cid, Prio: wire})
		if wire.Draining() {
			s.cfg.Recorder.Trace(telemetry.Event{Stage: telemetry.StageDrainMark, Tenant: s.tenant, CID: cid, Prio: wire, Aux: int64(s.pm.Window())})
		}
	}
	// From the session's own list when the fabric reclaims (the
	// simulator, once the target has handled the capsule), else from the
	// pool the TCP writer recycles into after marshal. A send hook that
	// does neither just keeps drawing new.
	var c *proto.CapsuleCmd
	if n := len(s.freeCmds); n > 0 {
		c = s.freeCmds[n-1]
		s.freeCmds = s.freeCmds[:n-1]
	} else {
		c = proto.GetCapsuleCmd()
	}
	c.Cmd, c.Prio, c.Tenant, c.Data = cmd, wire, s.tenant, data
	s.send(c)
	return nil
}

// Reclaim takes back a PDU this session sent once its receiver is done
// with it, as proto.Recycle does: a capsule goes to the session's own free
// list for its next Submit, anything else to proto.Recycle. The payload is
// never released, only the reference dropped. The list is not
// synchronized: only a fabric that delivers on the session's goroutine
// may call Reclaim.
func (s *Session) Reclaim(p proto.PDU) {
	c, ok := p.(*proto.CapsuleCmd)
	if !ok {
		proto.Recycle(p)
		return
	}
	*c = proto.CapsuleCmd{}
	s.freeCmds = append(s.freeCmds, c)
}

// getReq draws request state from the session's free list.
func (s *Session) getReq() *pendingReq {
	if n := len(s.freeReqs); n > 0 {
		r := s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
		return r
	}
	r := new(pendingReq)
	r.spans = r.oneSpan[:0]
	return r
}

// putReq retires request state, keeping the span slice's backing array.
func (s *Session) putReq(r *pendingReq) {
	*r = pendingReq{spans: r.spans[:0]}
	s.freeReqs = append(s.freeReqs, r)
}

// getReadBuf lends an n-byte read destination from the free list. The
// bytes are stale: a read completes successfully only once accepted
// fragments cover all of it.
func (s *Session) getReadBuf(n int) []byte {
	if k := len(s.freeBufs); k > 0 {
		b := s.freeBufs[k-1]
		s.freeBufs[k-1] = nil
		s.freeBufs = s.freeBufs[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// Flush forces the next TC request to carry a draining flag, so a tail
// window does not linger unfinished at the target. It affects only future
// submissions.
func (s *Session) Flush() { s.pm.ForceDrainNext() }

// HandlePDU processes one inbound PDU.
func (s *Session) HandlePDU(p proto.PDU) error {
	switch pdu := p.(type) {
	case *proto.ICResp:
		return s.handleICResp(pdu)
	case *proto.C2HData:
		return s.handleData(pdu)
	case *proto.CapsuleResp:
		return s.handleResp(pdu)
	case *proto.TelemetryAck:
		return s.handleTelemetryAck(pdu)
	case *proto.TermReq:
		return &ProtocolError{FES: pdu.FES, Reason: "terminated by target: " + pdu.Reason}
	default:
		return fmt.Errorf("hostqp: unexpected PDU %v", p.PDUType())
	}
}

func (s *Session) handleICResp(pdu *proto.ICResp) error {
	if s.connected {
		return errors.New("hostqp: duplicate ICResp")
	}
	if pdu.PFV != ProtocolVersion {
		return &ProtocolError{Reason: fmt.Sprintf("protocol version mismatch: target speaks PFV %d, host speaks %d", pdu.PFV, ProtocolVersion)}
	}
	// Every transfer is sized from the geometry: without it a read has no
	// length and a write none to check.
	if err := (nvme.Namespace{ID: s.cfg.NSID, BlockSize: pdu.BlockSize, Capacity: pdu.Capacity}).Validate(); err != nil {
		return &ProtocolError{Reason: "handshake without a usable namespace geometry: " + err.Error()}
	}
	s.tenant = pdu.Tenant
	s.nsBlockSize = pdu.BlockSize
	s.nsCapacity = pdu.Capacity
	if pdu.TargetClock != 0 {
		// NTP-style one-shot estimate: the target sampled its clock midway
		// through our round trip, so offset = T - (t0 + rtt/2), with the
		// error bounded by the (asymmetric part of the) RTT.
		t1 := s.clock()
		s.handshakeRTT = t1 - s.icReqSentAt
		s.clockOffset = pdu.TargetClock - (s.icReqSentAt + s.handshakeRTT/2)
		s.cfg.Recorder.SetClockOffset(s.clockOffset, s.handshakeRTT)
	}
	s.connected = true
	// The tenant ID is only known now, so the observability hooks attach
	// here rather than in New.
	s.pm.SetTelemetry(s.tenant, s.cfg.Telemetry)
	s.cfg.Telemetry.SetClass(s.tenant, s.cfg.Class)
	s.cfg.Telemetry.IncConnection()
	for _, fn := range s.onConnect {
		fn()
	}
	s.onConnect = nil
	return nil
}

// handleTelemetryAck re-estimates the host↔target clock offset from the
// keep-alive round trip — the same NTP-style midpoint math as the
// handshake, repeated on the telemetry cadence so the merged-trace time
// axis tracks drift instead of freezing the handshake's one-shot estimate.
func (s *Session) handleTelemetryAck(pdu *proto.TelemetryAck) error {
	if pdu.TargetClock == 0 {
		return nil // target does not share a clock
	}
	now := s.clock()
	rtt := now - pdu.EchoHostClock
	if rtt < 0 {
		// An echo from our future means a stale or corrupt ack; drop the
		// estimate, keep the session.
		return nil
	}
	off := pdu.TargetClock - (pdu.EchoHostClock + rtt/2)
	delta := off - s.clockOffset
	s.clockOffset = off
	s.handshakeRTT = rtt
	s.cfg.Recorder.SetClockOffset(off, rtt)
	s.cfg.Telemetry.RecordClockReestimate(s.tenant, delta)
	return nil
}

// handleData assembles one C2HData fragment into the read's destination
// buffer. Wire offsets are never trusted: a fragment must fit inside the
// request's expected read length, so a corrupt or hostile target cannot
// force a ~4 GiB allocation with an attacker-chosen uint32 offset, and
// overlapping or duplicate fragments are rejected rather than
// double-counted. Every rejection is a typed *ProtocolError, which
// transports escalate to a connection reset.
func (s *Session) handleData(pdu *proto.C2HData) error {
	s.stats.DataPDUs++
	req := s.reqs.Get(pdu.CCCID)
	if req == nil {
		if !s.reqs.InRange(pdu.CCCID) {
			return s.outOfRange("C2HData", pdu.CCCID)
		}
		return &ProtocolError{Reason: fmt.Sprintf("C2HData for unknown CID %d", pdu.CCCID)}
	}
	if req.io.Op != nvme.OpRead {
		return &ProtocolError{Reason: fmt.Sprintf("C2HData for non-read CID %d", pdu.CCCID)}
	}
	off := int(pdu.Offset)
	end := off + len(pdu.Data)
	limit := req.expectedRead
	if end > limit {
		return &ProtocolError{Reason: fmt.Sprintf(
			"C2HData [%d, %d) for CID %d exceeds the %d-byte read", off, end, pdu.CCCID, limit)}
	}
	if len(pdu.Data) == 0 {
		return nil // carries no coverage; nothing to assemble
	}
	if !req.addSpan(off, end) {
		return &ProtocolError{Reason: fmt.Sprintf(
			"overlapping C2HData [%d, %d) for CID %d", off, end, pdu.CCCID)}
	}
	if req.lendLate {
		req.lendLate = false
		if len(pdu.Data) == limit {
			req.readBuf = pdu.Data // the whole read: kept, never pooled
		} else {
			req.readBuf, req.lentBuf = s.getReadBuf(limit), true
		}
	}
	if &req.readBuf[off] != &pdu.Data[0] {
		// Not already landed in place by the transport's zero-copy sink.
		copy(req.readBuf[off:], pdu.Data)
	}
	req.readBytes += len(pdu.Data)
	req.bytesMoved = int64(req.readBytes)
	s.stats.BytesRead += int64(len(pdu.Data))
	return nil
}

// outOfRange is the rejection of a PDU naming a CID this queue pair never
// had: the session sized its slots from the depth it advertised, so the
// peer is not speaking the protocol the handshake agreed.
func (s *Session) outOfRange(what string, cid nvme.CID) error {
	return &ProtocolError{Reason: fmt.Sprintf("%s for CID %d, outside the queue depth of %d", what, cid, s.cfg.QueueDepth)}
}

func (s *Session) handleResp(pdu *proto.CapsuleResp) error {
	s.stats.RespPDUs++
	cid := pdu.Cpl.CID
	req := s.reqs.Get(cid)
	if req == nil {
		if !s.reqs.InRange(cid) {
			return s.outOfRange("response", cid)
		}
		return fmt.Errorf("hostqp: response for unknown CID %d", cid)
	}
	var done []nvme.CID
	var err error
	if pdu.Coalesced || req.coalescable {
		// TC path: the PM replays the pending prefix (coalesced) or
		// removes the one CID (individual response to a TC request).
		done, err = s.pm.OnResponse(cid, pdu.Coalesced)
		if err != nil {
			return err
		}
	} else {
		s.one[0] = cid
		done = s.one[:]
	}
	now := s.clock()
	var windowBytes int64
	for _, c := range done {
		r := s.reqs.Delete(c)
		if r == nil {
			return fmt.Errorf("hostqp: completion replay names unknown CID %d", c)
		}
		s.free = append(s.free, c)
		if r.io.Op == nvme.OpRead && s.cfg.OnReadRetire != nil {
			s.cfg.OnReadRetire(c)
		}
		st := pdu.Cpl.Status
		if st.OK() && r.readBytes < r.expectedRead {
			// The target claims success but the accepted fragments do not
			// cover the read (dropped or rejected-duplicate data): surface
			// a transfer error instead of returning a buffer with holes.
			st = nvme.StatusDataXferError
		}
		if !st.OK() {
			s.stats.Errors++
		}
		s.stats.Completed++
		windowBytes += r.bytesMoved
		if st == nvme.StatusBusy {
			s.e2e.AddBusy()
			if r.prio.ThroughputCritical() {
				// The refused request counted toward the window but parked
				// nothing. Close the window on the next TC request (draining
				// requests bypass the caps), or what the target did admit
				// stays parked until the count comes round.
				s.pm.ForceDrainNext()
			}
		} else if st.OK() {
			s.e2e.Record(r.prio, now-r.submittedAt)
		}
		s.cfg.Telemetry.IncCompleted(s.tenant, r.prio, now-r.submittedAt, int64(r.readBytes), st.OK())
		if s.cfg.Recorder != nil {
			if pdu.Coalesced {
				s.cfg.Recorder.Trace(telemetry.Event{Stage: telemetry.StageReplay, Tenant: s.tenant, CID: c, Prio: r.prio, Aux: now - r.submittedAt})
			}
			s.cfg.Recorder.Trace(telemetry.Event{Stage: telemetry.StageComplete, Tenant: s.tenant, CID: c, Prio: r.prio, Aux: now - r.submittedAt})
		}
		r.io.Done(Result{
			Status:      st,
			Data:        r.readBuf,
			SubmittedAt: r.submittedAt,
			CompletedAt: now,
		})
		// The response follows the read's data on the byte stream, so
		// nothing is landing in a lent buffer any more: Done has returned,
		// the next read may have it.
		if r.lentBuf {
			s.freeBufs = append(s.freeBufs, r.readBuf)
		}
		s.putReq(r)
	}
	if pdu.Coalesced {
		s.drainedBytes += windowBytes
		s.pm.OnDrainCompleted(s.drainedBytes, now)
		s.drainedBytes = 0
	}
	return nil
}

// OldestSubmittedAt returns the submission timestamp of the oldest
// in-flight request (ok is false when nothing is outstanding). Transports
// sweep it against their request deadline: if the oldest request has been
// waiting longer than the deadline, the connection is declared dead.
func (s *Session) OldestSubmittedAt() (ts int64, ok bool) {
	if s.reqs.Len() == 0 {
		return 0, false
	}
	for cid := 0; cid < s.reqs.Cap(); cid++ {
		if req := s.reqs.Get(nvme.CID(cid)); req != nil && (!ok || req.submittedAt < ts) {
			ts = req.submittedAt
			ok = true
		}
	}
	return ts, ok
}

// FailAll completes every in-flight request with StatusAborted and cause
// as Result.Err, releases all
// CIDs, clears the PM pending queue, and marks the session disconnected
// so no further submissions are accepted. Transports call it when the
// connection dies (read error, request deadline, teardown) so no Done
// callback is stranded and no queue depth leaks. It returns the number of
// requests failed. Completions are delivered in CID order for
// determinism. Lent read buffers are dropped, not recycled: the peer never
// acknowledged these reads, so the transport's reader may still be landing
// bytes in them.
func (s *Session) FailAll(cause error) int {
	s.connected = false
	s.pm.DropPending()
	now := s.clock()
	failed := 0
	for i := 0; i < s.reqs.Cap(); i++ {
		cid := nvme.CID(i)
		req := s.reqs.Delete(cid)
		if req == nil {
			continue
		}
		failed++
		s.free = append(s.free, cid)
		if req.io.Op == nvme.OpRead && s.cfg.OnReadRetire != nil {
			s.cfg.OnReadRetire(cid)
		}
		s.stats.Completed++
		s.stats.Errors++
		s.cfg.Telemetry.IncCompleted(s.tenant, req.prio, now-req.submittedAt, int64(req.readBytes), false)
		if s.cfg.Recorder != nil {
			s.cfg.Recorder.Trace(telemetry.Event{Stage: telemetry.StageComplete, Tenant: s.tenant, CID: cid, Prio: req.prio, Aux: now - req.submittedAt})
		}
		req.io.Done(Result{
			Status:      nvme.StatusAborted,
			SubmittedAt: req.submittedAt,
			CompletedAt: now,
			Err:         cause,
		})
	}
	return failed
}

// PendingTC returns the number of throughput-critical requests whose
// completion notifications are still owed (queued or executing at the
// target). Transports use it to decide whether an idle-drain is needed.
func (s *Session) PendingTC() int { return s.pm.Pending() }

// PartialWindow returns the number of TC requests submitted since the last
// draining flag: the requests sitting in the target's tenant queue with no
// drain scheduled to release them.
func (s *Session) PartialWindow() int { return s.pm.SinceDrain() }

// Scavenger reports whether this connection runs in the best-effort
// class. Transports consult it to skip the idle-drain machinery: a
// parked scavenger window is released by the target (leftover capacity
// or aging), never by a host drain flag, so flushing it from the host
// would be a no-op loop.
func (s *Session) Scavenger() bool { return s.cfg.Class.Scavenger() }
