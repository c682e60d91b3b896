package core

import (
	"fmt"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// HostPM is the initiator-side priority manager. It stamps outgoing
// requests with the connection's priority class, automatically inserts the
// draining flag on every window-th throughput-critical request (§III-C:
// "the NVMe-oPF initiator sends it automatically according to the desired
// window size"), tracks pending TC CIDs in submission order in a zero-copy
// queue, and replays coalesced completions (Alg. 1 and Alg. 2).
//
// The same submission-ordered pending queue is what reconciles the
// device's out-of-order completions (§IV-C): the initiator marks local
// completions in queue order, so callers observe a consistent stream even
// though the SSD finished the window in any order.
type HostPM struct {
	prio    proto.Priority // class for this connection: LS, TC, or normal
	window  int
	sinceDr int // TC requests sent since the last drain
	pending CIDQueue
	// one holds OnResponse's answer for a single CID, so individual
	// responses allocate nothing.
	one   [1]nvme.CID
	dyn   *DynamicWindow
	stats HostPMStats
	// Observability hook (optional; see SetTelemetry). tenant is the
	// target-assigned ID the instruments are keyed by.
	tel    *telemetry.Registry
	tenant proto.TenantID
}

// HostPMStats counts host-side PM events.
type HostPMStats struct {
	Sent            int64 // requests stamped
	DrainsInserted  int64 // draining flags auto-inserted
	CoalescedResps  int64 // coalesced responses received
	ReplayCompleted int64 // requests completed by coalesced replay
	IndividualResps int64 // per-request responses received
}

// NewHostPM creates a host PM for a connection of the given priority
// class. window is the drain window size for TC connections; it is
// ignored for LS/normal classes. window < 1 is clamped to 1 (every TC
// request drains, i.e. no coalescing).
func NewHostPM(class proto.Priority, window int) *HostPM {
	if window < 1 {
		window = 1
	}
	return &HostPM{prio: class, window: window}
}

// Window returns the current drain window size.
func (h *HostPM) Window() int { return h.window }

// SetWindow changes the drain window size at run time (§IV-D: "the window
// size can be dynamically changed during runtime after a draining request
// completion notification is received"). Values < 1 clamp to 1. The
// telemetry window gauge follows the live value across runtime resizes,
// not just the SetTelemetry snapshot and dynamic-tuner decisions.
func (h *HostPM) SetWindow(w int) {
	if w < 1 {
		w = 1
	}
	h.window = w
	if h.tel != nil {
		h.tel.SetWindow(h.tenant, h.window)
	}
}

// EnableDynamicWindow attaches a runtime tuner that adjusts the window
// after each drain completion based on observed throughput.
func (h *HostPM) EnableDynamicWindow(d *DynamicWindow) {
	h.dyn = d
	if d != nil {
		h.window = d.Window()
	}
}

// SetTelemetry attaches the live metrics registry (nil disables), keyed
// by the target-assigned tenant ID (known only after the handshake, which
// is why this is not a constructor argument). The PM emits no trace events
// of its own: the session that owns it reports the draining flag Stamp
// returns, after the submit event of the request that carries it.
func (h *HostPM) SetTelemetry(tenant proto.TenantID, tel *telemetry.Registry) {
	h.tenant = tenant
	h.tel = tel
	// Only the window gauge: the PM always runs in TC mode (the session
	// routes non-TC requests around it), so h.prio is not the connection
	// class — the session records that itself.
	h.tel.SetWindow(tenant, h.window)
}

// Stats returns a copy of the PM counters.
func (h *HostPM) Stats() HostPMStats { return h.stats }

// Pending returns the number of TC requests awaiting completion.
func (h *HostPM) Pending() int { return h.pending.Len() }

// SinceDrain returns the number of TC requests sent since the last
// draining flag — the size of the partial window currently parked in the
// target's queue.
func (h *HostPM) SinceDrain() int { return h.sinceDr }

// Stamp assigns the wire priority for the next request with the given CID
// (Alg. 1: set the TC flag, queue the CID, and set the draining flag on
// the window's last request). It returns the priority to put on the wire.
func (h *HostPM) Stamp(cid nvme.CID) proto.Priority {
	h.stats.Sent++
	if !h.prio.ThroughputCritical() {
		return h.prio
	}
	h.pending.Push(cid)
	h.sinceDr++
	if h.sinceDr >= h.window {
		h.sinceDr = 0
		h.stats.DrainsInserted++
		return proto.PrioTCDraining
	}
	return proto.PrioThroughputCritical
}

// Track enqueues one scavenger request with the given CID and returns
// the wire priority to stamp. Scavenger requests share the TC pending
// queue (submission-ordered, replayed on coalesced responses) but never
// count toward the drain window: the host stamps no draining flag —
// scavenger drains are target-driven (leftover capacity or aging) — so
// SinceDrain stays zero and the transport's idle-drain machinery sees no
// partial window to flush.
func (h *HostPM) Track(cid nvme.CID) proto.Priority {
	h.stats.Sent++
	h.pending.Push(cid)
	return proto.PrioScavenger
}

// ForceDrainNext makes the next TC request carry the draining flag
// regardless of the window counter; callers use it to flush a tail window
// before going idle.
func (h *HostPM) ForceDrainNext() {
	if h.prio.ThroughputCritical() {
		h.sinceDr = h.window // next Stamp triggers a drain
	}
}

// DropPending empties the pending TC queue and resets the window counter,
// returning the dropped CIDs in submission order. The host session uses it
// when its transport dies: the target will never answer these CIDs, so
// keeping them queued would strand the replay logic and leak queue depth.
func (h *HostPM) DropPending() []nvme.CID {
	h.sinceDr = 0
	return h.pending.PopAll()
}

// OnResponse processes one wire response (Alg. 2). It returns the CIDs
// the application must observe as completed, in submission order. For a
// coalesced response naming CID c, that is every pending CID up to and
// including c, in a slice of its own; for individual responses it is just
// the named CID, in an array the PM owns and overwrites on the next call
// (a caller reads it before completing anything that could re-enter the
// PM, as ranging over it does). An unknown CID is a protocol violation and
// returns an error.
func (h *HostPM) OnResponse(cid nvme.CID, coalesced bool) ([]nvme.CID, error) {
	if !h.prio.ThroughputCritical() {
		// LS/normal connections get one response per request and keep no
		// pending queue.
		h.stats.IndividualResps++
		h.one[0] = cid
		return h.one[:], nil
	}
	if coalesced {
		done, ok := h.pending.DrainThrough(cid)
		if !ok {
			return nil, fmt.Errorf("core: coalesced response names unknown CID %d", cid)
		}
		h.stats.CoalescedResps++
		h.stats.ReplayCompleted += int64(len(done))
		return done, nil
	}
	// Individual response on a TC connection: a premature-flush victim's
	// completion (shared-queue ablation) or an error response. Remove it
	// from the pending queue wherever it sits.
	if !h.pending.Remove(cid) {
		return nil, fmt.Errorf("core: response names unknown CID %d", cid)
	}
	h.stats.IndividualResps++
	h.one[0] = cid
	return h.one[:], nil
}

// OnDrainCompleted notifies the dynamic tuner (if enabled) that a window
// finished, carrying the bytes moved since the previous drain. It returns
// the window size to use next.
func (h *HostPM) OnDrainCompleted(bytesMoved int64, now int64) int {
	if h.dyn == nil {
		return h.window
	}
	h.window = h.dyn.Observe(bytesMoved, now)
	h.tel.SetWindow(h.tenant, h.window)
	return h.window
}
