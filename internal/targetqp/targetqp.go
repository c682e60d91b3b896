// Package targetqp implements the NVMe-oPF target: a Target that owns the
// target-side priority manager, the backing device, and tenant-ID
// assignment, plus one sans-IO Session per initiator connection. Sessions
// consume inbound PDUs via HandlePDU and emit outbound PDUs through a
// caller-provided send function, so the same code serves the TCP transport
// and the simulator.
//
// Two modes are provided:
//
//   - ModeOPF: the paper's design. Latency-sensitive requests bypass all
//     queues (target-side and device-side), throughput-critical requests
//     batch per tenant until a draining flag, and batch completions
//     coalesce into one response (Fig. 5, Algorithms 3–4).
//   - ModeBaseline: the unmodified SPDK-equivalent. Priority flags are
//     ignored, every request executes FIFO, and every completion produces
//     its own response PDU.
package targetqp

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/core"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// ProtocolVersion is the PFV this runtime speaks.
const ProtocolVersion = 1

// Mode selects baseline (SPDK-equivalent) or NVMe-oPF behaviour.
type Mode int

// Modes.
const (
	ModeBaseline Mode = iota
	ModeOPF
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeOPF {
		return "nvme-opf"
	}
	return "spdk-baseline"
}

// Backend abstracts the device under the target: the simulator SSD or a
// bdev-backed executor. Submit hands over one command; done must be
// invoked exactly once with the completion and, besides it, the read data
// of a successful read, or — for a write whose payload the backend kept —
// the buffer to release in the payload's place (see Request.Complete).
// highPrio requests jump the device queue — the LS bypass; baseline mode
// never sets it.
type Backend interface {
	Submit(cmd nvme.Command, data []byte, highPrio bool, done func(cpl nvme.Completion, data []byte))
	Namespace() nvme.Namespace
}

// RequestBackend is a Backend that can queue the target's own request
// handle instead of a copy of the command, its payload and a callback: the
// target then calls SubmitRequest in place of Submit, and the backend
// finishes the request with Request.Complete. A backend that runs commands
// from a list of its own (the TCP transport's reactor) implements it to
// keep a list entry to two words.
type RequestBackend interface {
	Backend
	SubmitRequest(r *Request, highPrio bool)
}

// maxPending is the per-queue safety valve handed to the PM: a TC queue
// that parks this many requests with no draining flag force-drains (the
// §IV-A lockup guard). SetTenantLimit tightens it per tenant.
const maxPending = 4096

// Config describes a target.
type Config struct {
	Mode Mode
	// SharedQueueAblation disables per-tenant queue isolation (for the
	// ablation benchmark only).
	SharedQueueAblation bool
	// MaxPendingPerTenant caps one tenant's admitted-but-uncompleted
	// requests; past the cap commands are answered with the retryable
	// nvme.StatusBusy instead of buffered. Zero disables.
	MaxPendingPerTenant int
	// MaxPendingGlobal caps admitted-but-uncompleted requests across all
	// tenants. Zero disables.
	MaxPendingGlobal int
	// LSHeadroom reserves slots of MaxPendingGlobal for latency-sensitive
	// requests so a TC flood cannot starve LS admission.
	LSHeadroom int
	// ScavengerHeadroom reserves slots of MaxPendingGlobal (on top of
	// LSHeadroom) that scavenger requests may never occupy, so best-effort
	// floods always yield admission capacity to LS and TC. Zero means
	// scavengers compete for the same non-LS slots TC does.
	ScavengerHeadroom int
	// ScavengerAging bounds how long a parked scavenger queue can wait
	// while the target stays busy with LS/TC work: once the oldest parked
	// request has aged past it, the queue force-drains even though
	// capacity is not free. Zero disables the bound
	// (scavengers drain only on idle capacity).
	ScavengerAging time.Duration
	// DrainWatchdog force-drains a TC queue whose oldest parked request
	// has waited this long with no draining flag (host crashed or went
	// silent mid-window). Zero disables.
	DrainWatchdog time.Duration
	// MaxDataLen is the largest in-capsule data accepted (advertised in
	// ICResp). Zero means 1 MiB.
	MaxDataLen uint32
	// Telemetry optionally attaches a live metrics registry recording
	// target-side instruments per tenant (commands, queue depths, drains,
	// suppressions, responses, service latency). Nil disables at zero
	// cost.
	Telemetry *telemetry.Registry
	// Trace optionally receives PDU lifecycle events (arrive, enqueue,
	// drain-start, device-complete, coalesced-notify): a flight recorder's
	// Trace wherever one is attached. Nil disables.
	Trace telemetry.TraceFunc
	// Clock provides timestamps for service-latency samples, queue ages and
	// the drain watchdog (virtual in the simulator, wall clock on the TCP
	// transport). It is also the clock the ICResp shares with hosts for
	// cross-runtime trace correlation. Required.
	//
	// The target does not call it per use. It keeps one reading — a stamp —
	// and refreshes it in Stamp: on entry to HandlePDU, CheckWatchdog and
	// CheckScavenger, and whenever a device command completes. Arrival
	// times, queue ages, both scavenger polls and service latency all read
	// the stamp, so a service-latency sample still spans the device call. A
	// reactor that delivers a burst through HandleStamped after one Stamp
	// makes the stamp as stale as the burst is long: the time to handle the
	// PDUs of one burst that reach no device (those that do refresh it),
	// microseconds on the TCP transport, against aging and watchdog bounds
	// of milliseconds. In the simulator every read within one event returns
	// the same virtual time anyway.
	Clock func() int64
	// Autotune optionally attaches an adaptive drain-window controller
	// owned by this target's reactor shard, built on the target's Clock
	// (required) and Telemetry: it is bound to the PM and fed every drain
	// completion, LS service latencies and, with Autotune.E2E, the hosts'
	// TelemetryUpdates. Sibling shards share one LS signal by sharing
	// Autotune.Signal. Nil leaves the static window configuration
	// untouched — behavior is bit-identical to a target without the
	// field.
	Autotune *autotune.Config
	// TenantBase and TenantStride carve the shared 0..65535 tenant-ID space
	// between shard-partitioned targets: this target assigns TenantBase,
	// TenantBase+TenantStride, TenantBase+2*TenantStride, … so sibling
	// shards never collide and shared telemetry stays per-tenant exact.
	// Zero values mean base 0, stride 1 (a single unsharded target).
	TenantBase   int
	TenantStride int
	// PooledPayloads opts the target into the proto buffer pool: inbound
	// write payloads are treated as pool-owned (taken from the CapsuleCmd
	// and released once the device completes — or, when the backend keeps
	// one, the buffer it hands back is released instead), and read data
	// goes out in pooled buffers the send function releases after marshal.
	// Only a transport whose send path honours that ownership contract
	// (the TCP server) may set it; the simulator passes payloads by
	// reference and must leave it false. Outbound CapsuleResp and C2HData
	// structs come from proto's struct pools either way: the TCP writer
	// recycles them after marshal, the simulator once the host has handled
	// them.
	PooledPayloads bool
}

// Stats counts target-level PDU and request traffic. RespPDUs is the
// completion-notification count that Fig. 6(c) compares across designs.
type Stats struct {
	Connections int64
	CmdPDUs     int64
	RespPDUs    int64
	DataPDUs    int64
	Reads       int64
	Writes      int64
	Errors      int64
	// Disconnects counts sessions torn down by CloseSession;
	// TeardownDrops counts their queued requests that never executed.
	Disconnects   int64
	TeardownDrops int64
	// TelemetryUpdates counts host feedback PDUs merged — zero on any
	// deployment that never enabled the e2e channel.
	TelemetryUpdates int64
}

// Accumulate adds o's counters into s — the merge a sharded deployment
// uses to report target-wide stats across per-shard Targets.
func (s *Stats) Accumulate(o Stats) {
	s.Connections += o.Connections
	s.CmdPDUs += o.CmdPDUs
	s.RespPDUs += o.RespPDUs
	s.DataPDUs += o.DataPDUs
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Errors += o.Errors
	s.Disconnects += o.Disconnects
	s.TeardownDrops += o.TeardownDrops
	s.TelemetryUpdates += o.TelemetryUpdates
}

// Target is one NVMe-oPF target instance: one backing namespace served to
// many tenants. Create Sessions with NewSession as initiators connect.
//
// Target is not synchronized; in the simulator everything runs on the
// event loop, and the TCP transport serializes access through the reactor
// goroutine of the shard that owns this Target (one Target per shard,
// mirroring SPDK's reactor-per-core deployment).
type Target struct {
	cfg        Config
	be         Backend
	rb         RequestBackend // be, when it takes request handles; else nil
	nsid       uint32         // the one namespace be serves
	pm         *core.TargetPM
	at         *autotune.Controller // nil without Config.Autotune
	now        int64                // the current stamp of Config.Clock (see Stamp)
	nextTenant int
	// freeTenants holds IDs recycled from torn-down sessions, reusable
	// once the dead session's last in-flight device callback lands — so a
	// stale completion can never be attributed to the ID's new owner.
	freeTenants []proto.TenantID
	// freeReqs recycles request-pool entries so a steady-state datapath
	// never allocates a Request. Shard-local, like everything else here.
	freeReqs []*Request
	// freeData and freeResps hold PDUs handed back by Reclaim. Only a
	// fabric that delivers on the Target's own goroutine reclaims (the
	// simulator); over TCP the writer recycles into proto's pools and
	// these stay empty.
	freeData  []*proto.C2HData
	freeResps []*proto.CapsuleResp
	stats     Stats
	sessions  core.TenantTable[Session]
}

// NewTarget creates a target whose backend serves its namespace under the
// namespace's own ID; commands naming any other NSID are refused.
func NewTarget(cfg Config, backend Backend) (*Target, error) {
	if backend == nil || cfg.Clock == nil {
		return nil, errors.New("targetqp: nil backend or clock")
	}
	if cfg.MaxDataLen == 0 {
		cfg.MaxDataLen = 1 << 20
	}
	if cfg.TenantStride <= 0 {
		cfg.TenantStride = 1
	}
	if cfg.TenantBase < 0 || cfg.TenantBase > 65535 {
		return nil, fmt.Errorf("targetqp: tenant base %d outside 0..65535", cfg.TenantBase)
	}
	ns := backend.Namespace()
	if err := ns.Validate(); err != nil {
		return nil, err
	}
	t := &Target{
		cfg:        cfg,
		be:         backend,
		nsid:       ns.ID,
		nextTenant: cfg.TenantBase,
	}
	t.rb, _ = backend.(RequestBackend)
	t.pm = core.NewTargetPM(core.TargetPMConfig{
		Isolated:            !cfg.SharedQueueAblation,
		MaxPending:          maxPending,
		MaxPendingPerTenant: cfg.MaxPendingPerTenant,
		MaxPendingGlobal:    cfg.MaxPendingGlobal,
		LSHeadroom:          cfg.LSHeadroom,
		ScavengerHeadroom:   cfg.ScavengerHeadroom,
		WatchdogNS:          cfg.DrainWatchdog.Nanoseconds(),
		ScavengerAgingNS:    cfg.ScavengerAging.Nanoseconds(),
		// The PM anchors queue ages at the target's stamp, the same reading
		// its polls are handed.
		Clock: func() int64 { return t.now },
	})
	t.pm.SetTelemetry(cfg.Telemetry)
	t.pm.SetTrace(cfg.Trace)
	if cfg.Autotune != nil {
		at, err := autotune.New(*cfg.Autotune, t.pm, cfg.Clock, cfg.Telemetry)
		if err != nil {
			return nil, fmt.Errorf("targetqp: %w", err)
		}
		t.pm.SetDrainHook(at.OnDrainComplete)
		t.at = at
	}
	return t, nil
}

// Stamp reads Config.Clock and makes the reading the target's time until
// the next Stamp (see Config.Clock), and returns it. A reactor calls it
// once per burst of PDUs it is about to deliver through HandleStamped.
func (t *Target) Stamp() int64 {
	t.now = t.cfg.Clock()
	return t.now
}

// Stats returns a copy of the target counters.
func (t *Target) Stats() Stats { return t.stats }

// PMStats returns the priority manager's counters.
func (t *Target) PMStats() core.TargetPMStats { return t.pm.Stats() }

// ActiveSessions returns the number of handshaken sessions not yet torn
// down.
func (t *Target) ActiveSessions() int { return t.sessions.Len() }

// CloseSession tears down one initiator session after its connection
// dies. Queued-but-unexecuted requests are dropped from the PM (they can
// never be answered), the session stops sending PDUs and recording
// per-tenant telemetry, and its tenant ID returns to the free list once
// the last in-flight device callback lands — never earlier, so a stale
// completion cannot be attributed to the ID's next owner. A second call,
// or one for a session that never finished its handshake, is a no-op.
func (t *Target) CloseSession(s *Session) {
	if s == nil || !s.connected || s.dead {
		return
	}
	s.dead = true
	t.sessions.Set(s.tenant, nil)
	dropped := t.pm.DropTenant(s.tenant)
	for _, cid := range dropped {
		// Dropped CIDs are queued (TC or scavenger) requests, so their pool
		// entries exist; the priority feeds Release's class accounting.
		prio := proto.PrioNormal
		if req := s.reqs.Delete(cid); req != nil {
			prio = req.prio
			if t.cfg.PooledPayloads {
				proto.PutBuf(req.data)
			}
			t.putReq(req)
		}
		t.pm.Release(s.tenant, prio)
	}
	t.stats.Disconnects++
	t.stats.TeardownDrops += int64(len(dropped))
	if t.at != nil {
		// Drop the controller's loop state and clear its PM limit: the
		// tenant ID recycles, and the next owner must not inherit a window
		// shrunk for this one's behavior.
		t.at.Forget(s.tenant)
	}
	t.cfg.Telemetry.IncDisconnect()
	t.cfg.Telemetry.AddTeardownDrops(int64(len(dropped)))
	// Clear the dead host's last-reported gauges so the recycled tenant ID
	// does not inherit them.
	t.cfg.Telemetry.ResetE2EGauges(s.tenant)
	if t.cfg.Trace != nil {
		t.cfg.Trace(telemetry.Event{Stage: telemetry.StageTeardown, Tenant: s.tenant, Aux: int64(len(dropped))})
	}
	if s.reqs.Len() == 0 {
		t.freeTenants = append(t.freeTenants, s.tenant)
	}
}

// NewSession creates the server side of one initiator connection. send
// emits PDUs back to that initiator.
func (t *Target) NewSession(send func(proto.PDU)) (*Session, error) {
	if send == nil {
		return nil, errors.New("targetqp: nil send")
	}
	if t.nextTenant > 65535 && len(t.freeTenants) == 0 {
		return nil, errors.New("targetqp: tenant ID space exhausted (65536 initiators)")
	}
	return &Session{target: t, send: send}, nil
}

// Request is the target-side request pool entry: the single owner of the
// command and its in-capsule payload while the request waits in a PM
// queue (the PM itself stores only CIDs — the zero-copy property of
// §IV-B: this pool holds one reference per request, never copies). It sits
// in its session's slot table under its CID, and is the handle a
// RequestBackend queues.
type Request struct {
	cmd  nvme.Command
	prio proto.Priority
	data []byte
	// arrivedAt is the target's clock stamp at command arrival, for
	// target-side service-latency samples.
	arrivedAt int64
	// sess owns the request while it is admitted; nil in the free list.
	sess *Session
	// done is Complete as a func value, made once per pool entry: what a
	// plain Backend is handed, with no closure allocated per command.
	done func(nvme.Completion, []byte)
}

// Command returns the request's command. The backend must not modify it.
func (r *Request) Command() *nvme.Command { return &r.cmd }

// Data returns the request's in-capsule (write) payload.
func (r *Request) Data() []byte { return r.data }

// Complete delivers the request's device completion. For a successful
// read, data is the read data. For a write, nil data means the backend is
// done with the payload, and non-nil data that it kept the payload (a
// device that adopts whole-chunk writes, bdev.Adopter): data is then the
// buffer to release in the payload's place — empty when there is nothing
// to release — and the payload itself is never released by the target.
// The backend calls Complete exactly once; a call on a request that has
// already completed is ignored.
func (r *Request) Complete(cpl nvme.Completion, data []byte) {
	if s := r.sess; s != nil {
		s.onDeviceCompletion(r, cpl.Status, data)
	}
}

// getReq draws a request-pool entry from the shard-local freelist.
func (t *Target) getReq() *Request {
	if n := len(t.freeReqs); n > 0 {
		r := t.freeReqs[n-1]
		t.freeReqs = t.freeReqs[:n-1]
		return r
	}
	r := new(Request)
	r.done = r.Complete
	return r
}

// Reclaim takes back a PDU one of the Target's sessions sent once its
// receiver is done with it, as proto.Recycle does: read data and response
// PDUs go to the Target's own free lists for its next completions,
// anything else to proto.Recycle. The payload is never released, only the
// reference dropped. The lists are not synchronized: only a fabric that
// delivers on the Target's goroutine may call Reclaim.
func (t *Target) Reclaim(p proto.PDU) {
	switch v := p.(type) {
	case *proto.C2HData:
		*v = proto.C2HData{}
		t.freeData = append(t.freeData, v)
	case *proto.CapsuleResp:
		*v = proto.CapsuleResp{}
		t.freeResps = append(t.freeResps, v)
	default:
		proto.Recycle(p)
	}
}

// getData draws a C2HData from the Target's list, else from proto's pool.
func (t *Target) getData() *proto.C2HData {
	if n := len(t.freeData); n > 0 {
		d := t.freeData[n-1]
		t.freeData = t.freeData[:n-1]
		return d
	}
	return proto.GetC2HData()
}

// putReq retires a request-pool entry. The caller releases req.data first
// when it is pool-owned; putReq only drops the reference.
func (t *Target) putReq(r *Request) {
	*r = Request{done: r.done}
	t.freeReqs = append(t.freeReqs, r)
}

// Session is the target side of one initiator connection.
type Session struct {
	target    *Target
	send      func(proto.PDU)
	tenant    proto.TenantID
	connected bool
	// dead marks a session torn down by CloseSession: no PDU may be sent
	// and no per-tenant telemetry recorded, but in-flight device callbacks
	// still run PM completion accounting so sibling batches release.
	dead bool
	// reqs holds the admitted requests by CID, sized at the handshake from
	// the queue depth the initiator advertised.
	reqs nvme.Slots[Request]
}

// Tenant returns the tenant ID assigned to this connection.
func (s *Session) Tenant() proto.TenantID { return s.tenant }

// Dead reports whether the session has been torn down.
func (s *Session) Dead() bool { return s.dead }

// HandlePDU processes one inbound PDU from the initiator, at the time
// Config.Clock shows now.
func (s *Session) HandlePDU(p proto.PDU) error {
	s.target.Stamp()
	return s.HandleStamped(p)
}

// HandleStamped is HandlePDU at the time of the target's last Stamp: the
// entry point for a reactor that stamps the clock once per burst.
func (s *Session) HandleStamped(p proto.PDU) error {
	switch pdu := p.(type) {
	case *proto.ICReq:
		return s.handleICReq(pdu)
	case *proto.CapsuleCmd:
		return s.handleCmd(pdu)
	case *proto.TelemetryUpdate:
		return s.handleTelemetryUpdate(pdu)
	case *proto.TermReq:
		return fmt.Errorf("targetqp: connection terminated by host: FES=%d %s", pdu.FES, pdu.Reason)
	default:
		return fmt.Errorf("targetqp: unexpected PDU %v", p.PDUType())
	}
}

func (s *Session) handleICReq(pdu *proto.ICReq) error {
	if s.connected {
		return errors.New("targetqp: duplicate ICReq")
	}
	if pdu.PFV != ProtocolVersion {
		s.send(&proto.TermReq{Dir: proto.TypeC2HTermReq, FES: 1, Reason: "bad PFV"})
		return fmt.Errorf("targetqp: protocol version mismatch: %d", pdu.PFV)
	}
	t := s.target
	if nsid := pdu.NSID; nsid != 0 && nsid != t.nsid {
		s.send(&proto.TermReq{Dir: proto.TypeC2HTermReq, FES: 2,
			Reason: fmt.Sprintf("unknown namespace %d", nsid)})
		return fmt.Errorf("targetqp: connect to unknown namespace %d", nsid)
	}
	if n := len(t.freeTenants); n > 0 {
		// Reuse an ID released by a fully drained dead session.
		s.tenant = t.freeTenants[n-1]
		t.freeTenants = t.freeTenants[:n-1]
	} else {
		if t.nextTenant > 65535 {
			s.send(&proto.TermReq{Dir: proto.TypeC2HTermReq, FES: 2,
				Reason: "tenant ID space exhausted"})
			return errors.New("targetqp: tenant ID space exhausted (65536 initiators)")
		}
		s.tenant = proto.TenantID(t.nextTenant)
		t.nextTenant += t.cfg.TenantStride
	}
	t.sessions.Set(s.tenant, s)
	// One slot per CID the initiator said it would use. A depth of zero
	// (a peer that advertises none) leaves the table to grow on demand,
	// bounded by the 16-bit CID space.
	s.reqs = nvme.NewSlots[Request](int(pdu.QueueDepth))
	if t.at != nil {
		// The host's declared window bounds the controller for this tenant.
		t.at.Open(s.tenant, int(pdu.Window))
	}
	t.stats.Connections++
	t.cfg.Telemetry.IncConnection()
	t.cfg.Telemetry.SetClass(s.tenant, pdu.Prio)
	s.connected = true
	ns := t.be.Namespace()
	s.send(&proto.ICResp{
		PFV:        ProtocolVersion,
		Tenant:     s.tenant,
		MaxDataLen: t.cfg.MaxDataLen,
		BlockSize:  ns.BlockSize,
		Capacity:   ns.Capacity,
		// Share the target clock so the host can estimate the offset
		// between the runtimes (flight-recorder correlation).
		TargetClock: t.cfg.Clock(),
	})
	return nil
}

// handleTelemetryUpdate merges one host feedback PDU into the tenant's
// end-to-end view, feeds the autotune e2e term when it is enabled, and
// acks with the target clock so the host can re-estimate the clock offset
// on the same round trip. A geometry mismatch is a protocol error — the
// connection dies rather than silently corrupting per-tenant quantiles.
func (s *Session) handleTelemetryUpdate(pdu *proto.TelemetryUpdate) error {
	if !s.connected {
		return errors.New("targetqp: telemetry before handshake")
	}
	if s.dead {
		return nil
	}
	t := s.target
	if err := t.cfg.Telemetry.MergeE2E(s.tenant, pdu); err != nil {
		return fmt.Errorf("targetqp: %w", err)
	}
	t.stats.TelemetryUpdates++
	if t.at != nil {
		t.at.ObserveE2E(pdu)
	}
	s.send(&proto.TelemetryAck{EchoHostClock: pdu.HostClock, TargetClock: t.cfg.Clock()})
	return nil
}

func (s *Session) handleCmd(pdu *proto.CapsuleCmd) error {
	if !s.connected {
		return errors.New("targetqp: command before handshake")
	}
	t := s.target
	t.stats.CmdPDUs++
	cid := pdu.Cmd.CID
	if !s.reqs.InRange(cid) {
		// At or past the queue depth the initiator itself advertised: no
		// slot exists for it, and it is refused before it can touch the
		// slot table, the admission counts or the PM.
		s.respond(cid, nvme.StatusInvalidField, false)
		return nil
	}
	if s.reqs.Get(cid) != nil {
		s.respond(cid, nvme.StatusIDConflict, false)
		return nil
	}
	if len(pdu.Data) > int(t.cfg.MaxDataLen) {
		s.respond(cid, nvme.StatusInvalidField, false)
		return nil
	}

	prio := pdu.Prio
	if t.cfg.Mode == ModeBaseline {
		// Unmodified SPDK: the flag bits are reserved and ignored; all
		// requests take the FIFO path with per-request completions.
		prio = proto.PrioNormal
	}
	if !t.pm.Admit(s.tenant, prio) {
		// Admission control: past the pending cap the target pushes back
		// with a retryable busy status instead of buffering unboundedly.
		// The command never executes, so a verbatim resubmit is safe.
		s.respond(cid, nvme.StatusBusy, false)
		return nil
	}
	req := t.getReq()
	req.cmd, req.prio, req.data = pdu.Cmd, prio, pdu.Data
	req.sess, req.arrivedAt = s, t.now
	if t.cfg.PooledPayloads {
		// Take ownership of the pooled payload: the transport's
		// ReleaseInbound must not free data parked in the request pool.
		pdu.Data = nil
	}
	s.reqs.Set(cid, req)
	t.cfg.Telemetry.IncSubmitted(s.tenant, int64(len(req.data)))
	if t.cfg.Trace != nil {
		t.cfg.Trace(telemetry.Event{Stage: telemetry.StageArrive, Tenant: s.tenant, CID: cid, Prio: prio, Aux: int64(len(req.data))})
	}

	disposition, batch := t.pm.OnCommand(s.tenant, cid, prio)
	switch disposition {
	case core.DispositionExecute:
		s.execute(req)
	case core.DispositionQueued:
		// Absorbed; the drain will release it.
	case core.DispositionDrainBatch:
		// Alg. 3: transition the whole window to the execution state.
		if err := t.executeBatch(batch); err != nil {
			return err
		}
	}
	// A scavenger command parked on an idle target, or a drained TC window,
	// may have made leftover capacity available — drain it now.
	_, err := t.pollScavenger()
	return err
}

// executeBatch transitions one released window (drain-, valve-, or
// watchdog-triggered) to the execution state, in FIFO order.
func (t *Target) executeBatch(batch []core.TaggedCID) error {
	for _, m := range batch {
		owner := t.sessions.Get(m.Tenant)
		if owner == nil {
			return fmt.Errorf("targetqp: batch member for unknown tenant %d", m.Tenant)
		}
		r := owner.reqs.Get(m.CID)
		if r == nil {
			return fmt.Errorf("targetqp: batch member CID %d missing from pool", m.CID)
		}
		owner.execute(r)
	}
	return nil
}

// CheckWatchdog runs the PM's drain watchdog: every TC queue stale past
// Config.DrainWatchdog is force-drained and executed now. Returns the
// number of queues expired. The caller must invoke it from the same
// context that delivers PDUs (the reactor/event loop); the transport runs
// it on a timer. No-op unless DrainWatchdog is set.
func (t *Target) CheckWatchdog() (int, error) {
	if t.cfg.DrainWatchdog <= 0 {
		return 0, nil
	}
	batches := t.pm.ExpireStale(t.Stamp())
	for _, batch := range batches {
		if err := t.executeBatch(batch); err != nil {
			return len(batches), err
		}
	}
	return len(batches), nil
}

// CheckScavenger runs the PM's scavenger poll: parked best-effort queues
// drain when the target holds no LS request and no un-drained TC window
// (leftover capacity only), and force-drain once aged past
// Config.ScavengerAging so continuous foreground traffic cannot starve
// them forever. Returns the number of queues drained. Same caller
// contract as CheckWatchdog: invoke from the context that delivers PDUs;
// the TCP transport also runs it on a timer so a parked window ages out
// on an otherwise idle connection. The target calls it opportunistically
// after every command dispatch and device completion — the two points
// where leftover capacity appears — at the stamp it already holds, so
// those polls read no clock.
func (t *Target) CheckScavenger() (int, error) {
	t.Stamp()
	return t.pollScavenger()
}

// pollScavenger is CheckScavenger at the target's current stamp. The
// batches are the PM's scratch, and a batch that completes inline polls
// the PM again before executeBatch returns: a lone batch runs from its own
// slice header, and several are copied out first.
func (t *Target) pollScavenger() (int, error) {
	batches := t.pm.PollScavenger(t.now)
	if len(batches) == 1 {
		return 1, t.executeBatch(batches[0])
	}
	for _, batch := range slices.Clone(batches) {
		if err := t.executeBatch(batch); err != nil {
			return len(batches), err
		}
	}
	return len(batches), nil
}

// execute hands one request to the backend. LS requests jump the device
// queue in oPF mode.
func (s *Session) execute(req *Request) {
	t := s.target
	if req.cmd.NSID != t.nsid {
		// Unknown namespace: complete with an error through the normal
		// completion path so PM window accounting stays exact.
		s.onDeviceCompletion(req, nvme.StatusInvalidNSID, nil)
		return
	}
	high := t.cfg.Mode == ModeOPF && req.prio.LatencySensitive()
	switch req.cmd.Opcode {
	case nvme.OpRead:
		t.stats.Reads++
	case nvme.OpWrite:
		t.stats.Writes++
	}
	if t.rb != nil {
		t.rb.SubmitRequest(req, high)
	} else {
		t.be.Submit(req.cmd, req.data, high, req.done)
	}
}

// onDeviceCompletion runs Alg. 4: ship read data, then ask the PM whether
// a response PDU goes on the wire.
func (s *Session) onDeviceCompletion(req *Request, st nvme.Status, data []byte) {
	t := s.target
	tenant, cid := s.tenant, req.cmd.CID
	if req.cmd.Opcode == nvme.OpWrite && data != nil {
		// The backend kept the payload: what it handed back is released in
		// its place, and is not read data.
		req.data, data = data, nil
	}
	// The device command has just returned: this reading closes its
	// service-latency sample, and whatever the completion releases below is
	// dispatched at it.
	now := t.Stamp()
	// Retire the pool entry before any PDU goes out: the host is entitled
	// to reuse the CID the moment it sees the response, and with an
	// in-process transport the reused command can arrive re-entrantly,
	// before this function returns.
	s.reqs.Delete(cid)
	t.pm.Release(tenant, req.prio)
	if !st.OK() {
		t.stats.Errors++
	}
	if !s.dead {
		var svcLat int64 = -1 // <0 skips the latency sample
		if req.arrivedAt != 0 {
			svcLat = now - req.arrivedAt
		}
		if t.at != nil && svcLat >= 0 && req.prio.LatencySensitive() {
			// Feed the controller's LS signal with the target-side service
			// latency — the quantity its objective is declared against.
			t.at.ObserveLS(svcLat)
		}
		t.cfg.Telemetry.IncCompleted(tenant, req.prio, svcLat, int64(len(data)), st.OK())
		if t.cfg.Trace != nil {
			t.cfg.Trace(telemetry.Event{Stage: telemetry.StageDeviceComplete, Tenant: tenant, CID: cid, Prio: req.prio, Aux: svcLat})
		}
		if req.cmd.Opcode == nvme.OpRead && st.OK() && len(data) > 0 {
			// Read data always flows per request; only the completion
			// notification is coalesced (§III-B). Reads larger than
			// MaxDataLen are segmented into fragments with ascending
			// offsets, honouring the transfer bound the ICResp advertised
			// (and the protocol's 16 MiB PDU cap).
			maxSeg := int(t.cfg.MaxDataLen)
			if len(data) <= maxSeg {
				t.stats.DataPDUs++
				d := t.getData()
				d.CCCID = cid
				d.Data = data
				data = nil // the PDU carries it on (and, pooled, releases it)
				s.send(d)
			} else {
				for off := 0; off < len(data); off += maxSeg {
					end := off + maxSeg
					if end > len(data) {
						end = len(data)
					}
					t.stats.DataPDUs++
					d := t.getData()
					d.CCCID = cid
					d.Offset = uint32(off)
					if t.cfg.PooledPayloads {
						// Fragments must not alias one pooled buffer: the
						// send path returns each payload to the pool
						// independently, so every fragment gets its own.
						d.Data = proto.GetBuf(end - off)
						copy(d.Data, data[off:end])
					} else {
						d.Data = data[off:end]
					}
					s.send(d)
				}
				if t.cfg.PooledPayloads {
					proto.PutBuf(data)
					data = nil
				}
			}
		}
	}
	if t.cfg.PooledPayloads {
		proto.PutBuf(data)     // read data that never went on the wire
		proto.PutBuf(req.data) // write payload, or what the backend gave for it
		req.data = nil
	}
	t.putReq(req)
	// PM completion accounting runs even for tombstoned sessions: the dead
	// tenant's in-flight commands may be members of a shared drain window,
	// and siblings' coalesced responses must still release in order. The
	// dead tenant's own responses find no session and are discarded.
	rds := t.pm.OnDeviceCompletion(tenant, cid, st)
	if len(rds) > 1 {
		// The decisions are the PM's scratch, and sending one can re-enter
		// the PM (an in-process transport hands the host's next command
		// straight back). Several at once is the rare case — windows
		// released together, or the shared-queue ablation — and pays a copy.
		rds = append([]core.RespDecision(nil), rds...)
	}
	for _, rd := range rds {
		if !rd.Send {
			continue
		}
		dest := s
		if rd.Tenant != tenant {
			dest = t.sessions.Get(rd.Tenant)
		}
		if dest == nil || dest.dead {
			continue
		}
		dest.respond(rd.CID, rd.Status, rd.Coalesced)
	}
	// The completion may have retired the last LS request or released a TC
	// window, freeing leftover capacity for parked scavenger queues. An
	// executeBatch failure here mirrors CheckWatchdog's (a batch member
	// whose tenant vanished — impossible while DropTenant purges dead
	// tenants' queues) and has no caller to surface to on this path.
	_, _ = t.pollScavenger()
	if s.dead && s.reqs.Len() == 0 {
		// Last in-flight callback has landed: the tenant ID is now safe to
		// hand to a new connection.
		t.freeTenants = append(t.freeTenants, s.tenant)
	}
}

// respond emits one CapsuleResp. For coalesced responses, every pool
// entry the response covers is retired.
func (s *Session) respond(cid nvme.CID, st nvme.Status, coalesced bool) {
	t := s.target
	t.stats.RespPDUs++
	var r *proto.CapsuleResp
	if n := len(t.freeResps); n > 0 {
		r = t.freeResps[n-1]
		t.freeResps = t.freeResps[:n-1]
	} else {
		r = proto.GetCapsuleResp()
	}
	r.Cpl = nvme.Completion{CID: cid, Status: st}
	r.Coalesced = coalesced
	s.send(r)
}
