package telemetry

import (
	"sort"
)

// Cross-runtime timeline correlation: merge a host-side and a target-side
// flight-recorder dump into per-request timelines on one time axis.
//
// Correlation key. CIDs are reused (the host session recycles a CID as
// soon as its completion lands), so (tenant, CID) alone is ambiguous
// across a long run. But both sides observe one TCP byte stream, so the
// k-th StageSubmit of (tenant, cid) on the host pairs with the k-th
// StageArrive of (tenant, cid) on the target — the pair (tenant, CID,
// submit-epoch k) is unique. The correlator counts epochs per key on each
// side independently and zips them.
//
// Time axis. Target timestamps are normalized onto the *host* axis, since
// the analyst usually holds the host dump: t_host = t_target - offset, where
// offset = target_clock - host_clock as estimated during the ICReq/ICResp
// handshake (see hostqp: offset = T - (t0 + rtt/2)). The estimate's error
// is bounded by the handshake RTT, which Correlation carries as Tolerance
// so validity checks don't flag sub-RTT inversions between runtimes.

// TimelinePoint is one stage observation inside a request timeline.
type TimelinePoint struct {
	Stage Stage
	TS    int64 // host-axis nanoseconds
	Aux   int64
	Host  bool // observed by the host-side recorder
}

// Timeline is one request's merged lifecycle.
type Timeline struct {
	Tenant uint16
	CID    uint16
	Epoch  int // k-th reuse of this (tenant, CID)
	Prio   uint8
	Points []TimelinePoint // causally ordered (Stage rank, then TS)
}

// point returns the first observation of a stage (nil if absent).
func (tl *Timeline) point(s Stage) *TimelinePoint {
	for i := range tl.Points {
		if tl.Points[i].Stage == s {
			return &tl.Points[i]
		}
	}
	return nil
}

// TS returns a stage's host-axis timestamp and whether it was observed.
func (tl *Timeline) TS(s Stage) (int64, bool) {
	if p := tl.point(s); p != nil {
		return p.TS, true
	}
	return 0, false
}

// Has reports whether the timeline observed a stage.
func (tl *Timeline) Has(s Stage) bool { return tl.point(s) != nil }

// E2E returns the submit→complete latency (0, false when either end is
// missing — e.g. a single-sided dump).
func (tl *Timeline) E2E() (int64, bool) {
	s, okS := tl.TS(StageSubmit)
	c, okC := tl.TS(StageComplete)
	if !okS || !okC {
		return 0, false
	}
	return c - s, true
}

// Complete reports whether the timeline has both ends of the request
// (submit and complete) plus the target-side arrival when a target dump
// participated — the acceptance bar for "reconstructed".
func (tl *Timeline) Complete(twoSided bool) bool {
	if !tl.Has(StageSubmit) || !tl.Has(StageComplete) {
		return false
	}
	if twoSided && !tl.Has(StageArrive) {
		return false
	}
	return true
}

// Monotonic verifies causal order: within one runtime timestamps must be
// non-decreasing along stage rank; across runtimes an inversion up to tol
// (the clock-offset error bound) is allowed.
func (tl *Timeline) Monotonic(tol int64) bool {
	for i := 1; i < len(tl.Points); i++ {
		a, b := tl.Points[i-1], tl.Points[i]
		if b.TS >= a.TS {
			continue
		}
		if a.Host != b.Host && a.TS-b.TS <= tol {
			continue // cross-runtime, within clock-estimate error
		}
		return false
	}
	return true
}

// sortPoints orders by causal stage rank, breaking ties by timestamp.
func (tl *Timeline) sortPoints() {
	sort.SliceStable(tl.Points, func(i, j int) bool {
		a, b := tl.Points[i], tl.Points[j]
		if ra, rb := a.Stage.rank(), b.Stage.rank(); ra != rb {
			return ra < rb
		}
		return a.TS < b.TS
	})
}

// Correlation is the result of merging one or two dumps.
type Correlation struct {
	Timelines []Timeline
	// Offset is the applied clock offset (target minus host, ns).
	Offset int64
	// Tolerance bounds the offset's error (the handshake RTT).
	Tolerance int64
	// TwoSided reports whether both a host and a target dump contributed.
	TwoSided bool
	// Submitted counts StageSubmit events seen (the denominator for the
	// reconstruction ratio).
	Submitted int
	// Anomalies aggregates the auto-captured snapshots from both dumps.
	Anomalies []AnomalySnapshot
}

// CompleteCount returns how many timelines pass Complete+Monotonic.
func (c *Correlation) CompleteCount() int {
	n := 0
	for i := range c.Timelines {
		tl := &c.Timelines[i]
		if tl.Complete(c.TwoSided) && tl.Monotonic(c.Tolerance) {
			n++
		}
	}
	return n
}

type reqKey struct {
	tenant uint16
	cid    uint16
}

// correlator accumulates timelines while scanning a dump.
type correlator struct {
	byKey map[reqKey][]*Timeline
	order []*Timeline // creation order, for deterministic output
}

func newCorrelator() *correlator {
	return &correlator{byKey: make(map[reqKey][]*Timeline)}
}

// open starts a new epoch for the key.
func (c *correlator) open(k reqKey, prio uint8) *Timeline {
	tl := &Timeline{Tenant: k.tenant, CID: k.cid, Epoch: len(c.byKey[k]), Prio: prio}
	c.byKey[k] = append(c.byKey[k], tl)
	c.order = append(c.order, tl)
	return tl
}

// last returns the key's most recent epoch (nil when none).
func (c *correlator) last(k reqKey) *Timeline {
	l := c.byKey[k]
	if len(l) == 0 {
		return nil
	}
	return l[len(l)-1]
}

// at returns the key's epoch i (nil when out of range).
func (c *correlator) at(k reqKey, i int) *Timeline {
	l := c.byKey[k]
	if i < 0 || i >= len(l) {
		return nil
	}
	return l[i]
}

// Correlate merges dumps into per-request timelines. Either dump may be
// nil for single-sided analysis. Events must be dump-ordered (ReadDump
// and Recorder.Events both guarantee it).
func Correlate(host, target *Dump) *Correlation {
	out := &Correlation{}
	off, rtt := int64(0), int64(0)
	if host != nil && host.Meta.ClockOffset != 0 {
		off, rtt = host.Meta.ClockOffset, host.Meta.RTT
	} else if target != nil && target.Meta.ClockOffset != 0 {
		off, rtt = target.Meta.ClockOffset, target.Meta.RTT
	}
	out.Offset, out.Tolerance = off, rtt
	out.TwoSided = host != nil && target != nil

	corr := newCorrelator()

	if host != nil {
		out.Anomalies = append(out.Anomalies, host.Anomalies...)
		// Every host event after a request's submit — the drain-mark the
		// session emits right behind the submit of the request carrying the
		// flag, then replay and complete — belongs to the key's open epoch.
		for _, e := range host.Events {
			k := reqKey{e.Tenant, e.CID}
			pt := TimelinePoint{Stage: Stage(e.Stage), TS: e.TS, Aux: e.Aux, Host: true}
			switch Stage(e.Stage) {
			case StageSubmit:
				tl := corr.open(k, e.Prio)
				tl.Points = append(tl.Points, pt)
			case StageDrainMark, StageReplay, StageComplete:
				if tl := corr.last(k); tl != nil {
					tl.Points = append(tl.Points, pt)
				}
			}
		}
	}

	if target != nil {
		out.Anomalies = append(out.Anomalies, target.Anomalies...)
		// arriveEpoch counts arrivals per key; cur points at the epoch the
		// key's in-flight instance belongs to. Batch-level events fan out
		// to the tenant's open members via the state sets below.
		arriveEpoch := map[reqKey]int{}
		enqueued := map[uint16][]*Timeline{} // tenant → enqueue seen, drain pending
		draining := map[uint16][]*Timeline{} // drain seen, notify pending
		for _, e := range target.Events {
			k := reqKey{e.Tenant, e.CID}
			st := Stage(e.Stage)
			pt := TimelinePoint{Stage: st, TS: e.TS - off, Aux: e.Aux, Host: false}
			switch st {
			case StageArrive:
				ep := arriveEpoch[k]
				arriveEpoch[k] = ep + 1
				tl := corr.at(k, ep)
				if tl == nil {
					// Single-sided target dump (or host dump truncated by
					// ring wrap): open an epoch from the target's view.
					tl = corr.open(k, e.Prio)
				}
				tl.Points = append(tl.Points, pt)
			case StageEnqueue:
				if tl := corr.at(k, arriveEpoch[k]-1); tl != nil {
					tl.Points = append(tl.Points, pt)
					enqueued[e.Tenant] = append(enqueued[e.Tenant], tl)
				}
			case StageDrainStart:
				for _, tl := range enqueued[e.Tenant] {
					tl.Points = append(tl.Points, pt)
					draining[e.Tenant] = append(draining[e.Tenant], tl)
				}
				enqueued[e.Tenant] = enqueued[e.Tenant][:0]
			case StageDeviceComplete:
				if tl := corr.at(k, arriveEpoch[k]-1); tl != nil {
					tl.Points = append(tl.Points, pt)
				}
			case StageCoalescedNotify:
				// Drain windows pipeline: a notify can fire while a later
				// batch is still in device service. Only members whose
				// device completion has already been seen belong to this
				// notify; the rest wait for the next one.
				keep := draining[e.Tenant][:0]
				for _, tl := range draining[e.Tenant] {
					if tl.Has(StageDeviceComplete) {
						tl.Points = append(tl.Points, pt)
					} else {
						keep = append(keep, tl)
					}
				}
				draining[e.Tenant] = keep
			}
		}
	}

	for _, tl := range corr.order {
		tl.sortPoints()
		if tl.Has(StageSubmit) {
			out.Submitted++
		} else if out.TwoSided {
			out.Submitted++ // arrived without a recorded submit: still a request
		}
		out.Timelines = append(out.Timelines, *tl)
	}
	// Deterministic report order: tenant, then first timestamp, then CID.
	sort.SliceStable(out.Timelines, func(i, j int) bool {
		a, b := &out.Timelines[i], &out.Timelines[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		at, bt := int64(0), int64(0)
		if len(a.Points) > 0 {
			at = a.Points[0].TS
		}
		if len(b.Points) > 0 {
			bt = b.Points[0].TS
		}
		if at != bt {
			return at < bt
		}
		if a.CID != b.CID {
			return a.CID < b.CID
		}
		return a.Epoch < b.Epoch
	})
	return out
}
