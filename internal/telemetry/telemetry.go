// Package telemetry is the live observability plane of the NVMe-oPF
// runtime: a low-overhead metrics registry, a pluggable PDU-lifecycle
// trace hook, and an HTTP exporter.
//
// Everything internal/stats offers is post-hoc — histograms read after a
// run finishes. The paper's contribution is a queueing/QoS scheme, and
// operating one (window tuning, admission control, SLO enforcement)
// requires continuous per-tenant signal while the target serves traffic:
// queue depths, drain windows, coalescing ratios, LS tail latency. This
// package provides that signal with a design constraint inherited from the
// datapath it instruments: the hot path pays only an atomic add.
//
// Cost model:
//
//   - A nil *Registry is fully usable and free: every method is
//     nil-receiver-safe and returns immediately, so disabled telemetry
//     costs a predictable branch and zero allocations (verified by
//     TestDisabledRegistryZeroAllocs).
//   - An enabled Registry keeps one fixed slot per possible tenant
//     (proto.TenantID is uint16) in lazily installed pages holding only atomic
//     counters/gauges and per-class latency histograms. No maps, no locks,
//     no allocation on the record path.
//   - Cold paths — the autotune decision log and the exporter's snapshots
//     — take a mutex; they run once per controller decision or per scrape,
//     never per request.
//
// Lifecycle events are emitted by internal/core and internal/targetqp
// through a TraceFunc, and by internal/hostqp into its Recorder, at the PDU
// lifecycle points of Algorithms 1–4, so a flight recorder on each side
// can reconstruct a request's full timeline:
//
//	submit → drain-mark → enqueue → drain-start → device-complete →
//	coalesced-notify → replay
package telemetry

import (
	"fmt"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// Stage is one point in a request's lifecycle at which the runtime invokes
// the trace hook.
type Stage uint8

// Lifecycle stages, in the order a coalesced TC request traverses them.
// LS/normal requests skip the queueing stages (submit → device-complete).
const (
	// StageSubmit: the host session put a command capsule on the wire.
	StageSubmit Stage = iota
	// StageDrainMark: the host PM stamped the draining flag on this
	// request (Alg. 1) — it will flush the tenant's window at the target.
	StageDrainMark
	// StageEnqueue: the target PM absorbed a TC request into its tenant
	// queue (Alg. 3); Aux carries the queue depth after the push.
	StageEnqueue
	// StageDrainStart: the target PM released a whole window for
	// execution; Aux carries the batch size. The event's CID is the
	// triggering (draining or overflow) request.
	StageDrainStart
	// StageDeviceComplete: the backend finished the command; Aux carries
	// the service latency in clock units when the target has a clock, else
	// zero.
	StageDeviceComplete
	// StageCoalescedNotify: the target PM emitted one coalesced response
	// covering the tenant's whole window (Alg. 4); the CID is the drain
	// request's.
	StageCoalescedNotify
	// StageReplay: the host PM replayed one request's completion from a
	// coalesced response (Alg. 2); Aux carries the end-to-end latency in
	// clock units.
	StageReplay
	// StageArrive: the target session received a command capsule, before
	// the PM classified it; Aux carries the in-capsule payload bytes.
	// (Appended after StageReplay to keep earlier stage values stable in
	// recorded dumps; causally it sits between submit and enqueue.)
	StageArrive
	// StageComplete: the host session delivered the application-visible
	// completion — coalesced or individual, any class; Aux carries the
	// end-to-end latency in clock units. Emitted after StageReplay for
	// coalesced members.
	StageComplete
	// StageTeardown: a session was torn down after its connection died.
	// Emitted once per teardown (CID zero); Aux carries the number of
	// queued requests dropped with it.
	StageTeardown
	// StageForcedDrain: the drain watchdog force-released a tenant's
	// parked TC queue because no draining flag arrived within the deadline
	// (host crashed or went silent mid-window). Aux carries the batch
	// size; the CID is the last parked request's. Emitted alongside
	// StageDrainStart so window correlation keeps working. (Appended after
	// StageTeardown to keep recorded stage values stable; causally it sits
	// with drain-start.)
	StageForcedDrain
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageSubmit:
		return "submit"
	case StageDrainMark:
		return "drain-mark"
	case StageEnqueue:
		return "enqueue"
	case StageDrainStart:
		return "drain-start"
	case StageDeviceComplete:
		return "device-complete"
	case StageCoalescedNotify:
		return "coalesced-notify"
	case StageReplay:
		return "replay"
	case StageArrive:
		return "arrive"
	case StageComplete:
		return "complete"
	case StageTeardown:
		return "teardown"
	case StageForcedDrain:
		return "forced-drain"
	default:
		return fmt.Sprintf("Stage(%d)", uint8(s))
	}
}

// rank orders stages causally within one request's lifecycle (the const
// order is historical: arrive/complete were appended to keep recorded
// numeric values stable).
func (s Stage) rank() int {
	switch s {
	case StageSubmit:
		return 0
	case StageDrainMark:
		return 1
	case StageArrive:
		return 2
	case StageEnqueue:
		return 3
	case StageDrainStart, StageForcedDrain:
		return 4
	case StageDeviceComplete:
		return 5
	case StageCoalescedNotify:
		return 6
	case StageReplay:
		return 7
	case StageComplete:
		return 8
	case StageTeardown:
		return 9
	default:
		return 10
	}
}

// Event is one trace point. Events carry no timestamp: the layers that
// emit them are sans-IO and clock-free; a consumer that needs wall or
// virtual time stamps events as they arrive (it runs on the emitting
// reactor, so arrival order is lifecycle order per tenant).
type Event struct {
	Stage  Stage
	Tenant proto.TenantID
	CID    nvme.CID
	Prio   proto.Priority
	// Aux is stage-specific: queue depth after enqueue, batch size at
	// drain-start, latency at device-complete/replay.
	Aux int64
}

// String renders the event for debug logs.
func (e Event) String() string {
	return fmt.Sprintf("%s tenant=%d cid=%d prio=%s aux=%d",
		e.Stage, e.Tenant, e.CID, e.Prio, e.Aux)
}

// TraceFunc receives lifecycle events. It is called synchronously on the
// emitting reactor goroutine: implementations must be fast and must not
// call back into the session/PM that emitted the event. A nil TraceFunc
// disables tracing at zero cost (the emitters check before building the
// Event).
type TraceFunc func(Event)
