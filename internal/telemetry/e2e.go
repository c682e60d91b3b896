package telemetry

import (
	"fmt"
	"sync/atomic"

	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
)

// The end-to-end feedback plane: hosts accumulate what they actually
// observe — end-to-end latency per class, busy push-back, resubmissions —
// and ship sparse histogram deltas to the target inside TelemetryUpdate
// PDUs on the transport's keep-alive cadence. The target merges each
// tenant's deltas into per-tenant e2e histograms on the one stats grid the
// service histograms and the simulator use, so the merge is exact
// (bucket-wise addition, no re-sampling) and the egress gap — host e2e p99
// minus target service p99 — is directly comparable. This closes the blind spot
// the service-side signal has by construction: queueing that happens
// after a completion leaves the target's NIC.

// wirePriority maps a latency class back to the representative wire
// priority TelemetryUpdate carries for it.
func (c Class) wirePriority() proto.Priority {
	switch c {
	case ClassLS:
		return proto.PrioLatencySensitive
	case ClassScav:
		return proto.PrioScavenger
	default:
		return proto.PrioThroughputCritical
	}
}

// E2EAccum accumulates one host session's end-to-end observations between
// TelemetryUpdates. Record runs on the completion path (lock-free, no
// allocation after the first sample per class); FillUpdate runs on the
// emission cadence and extracts the delta since the previous call.
// AddBusy is safe from any goroutine; Record and FillUpdate
// must run on the session's event context (they share the delta
// baseline).
type E2EAccum struct {
	hist [numClasses]*stats.AtomicHistogram
	prev [numClasses]*stats.Histogram // baseline of the next delta
	busy atomic.Int64
}

// NewE2EAccum creates an accumulator.
func NewE2EAccum() *E2EAccum { return &E2EAccum{} }

// Record adds one end-to-end completion latency (clock units; negative
// samples are dropped). A nil accumulator ignores the call.
func (a *E2EAccum) Record(prio proto.Priority, latency int64) {
	if a == nil || latency < 0 {
		return
	}
	c := ClassOf(prio)
	if a.hist[c] == nil {
		a.hist[c] = &stats.AtomicHistogram{}
		a.prev[c] = &stats.Histogram{}
	}
	a.hist[c].Record(latency)
}

// AddBusy counts one StatusBusy completion.
func (a *E2EAccum) AddBusy() {
	if a == nil {
		return
	}
	a.busy.Add(1)
}

// FillUpdate writes the deltas since the previous FillUpdate into u
// (Classes, SubBits, Busy; Retries is always 0, since a host resubmits
// nothing) and advances the baseline. The caller fills HostClock and
// QueueDepth. Returns true when the update carries any new information
// (samples or busy counts) — heartbeat-only
// updates still refresh the clock estimate and queue-depth gauge, so
// callers typically send either way.
func (a *E2EAccum) FillUpdate(u *proto.TelemetryUpdate) bool {
	u.SubBits = stats.SubBucketBits
	u.Classes = nil
	if a == nil {
		return false
	}
	u.Busy = uint32(a.busy.Swap(0))
	u.Retries = 0
	fresh := u.Busy > 0
	for c := Class(0); c < numClasses; c++ {
		if a.hist[c] == nil {
			continue
		}
		snap := a.hist[c].Snapshot()
		d := snap.Since(a.prev[c])
		if d.Count() == 0 {
			continue
		}
		// The interval's maximum is bounded by its top bucket and the
		// lifetime maximum (Since).
		cd := proto.TelemetryClassDelta{Class: c.wirePriority(), Sum: uint64(d.Sum()), Max: uint64(d.Max())}
		for i := 0; i < stats.NumBuckets; i++ {
			if n := d.Bucket(i); n > 0 {
				cd.Buckets = append(cd.Buckets, proto.TelemetryBucket{Index: uint16(i), Count: uint32(n)})
			}
		}
		a.prev[c] = snap
		u.Classes = append(u.Classes, cd)
		fresh = true
	}
	return fresh
}

// ClassDeltaGoodBad splits one wire class delta's samples into within/over-
// objective counts by bucket bound: a bucket whose upper bound meets the
// objective counts as good. The verdict carries the histogram's resolution
// (≤1.6% relative error) — the same contract as every quantile the
// registry serves. Out-of-range indices are skipped, as the merge skips
// them.
func ClassDeltaGoodBad(cd *proto.TelemetryClassDelta, objectiveNS int64) (good, bad int64) {
	for _, b := range cd.Buckets {
		if int(b.Index) >= stats.NumBuckets {
			continue
		}
		if stats.BucketUpper(int(b.Index)) <= objectiveNS {
			good += int64(b.Count)
		} else {
			bad += int64(b.Count)
		}
	}
	return good, bad
}

// MergeE2E merges one host's TelemetryUpdate into the tenant's end-to-end
// view. The geometry tag must match this registry's grid — a mismatch is
// an error (merging across grids would silently corrupt quantiles). A nil
// registry accepts and drops the update.
func (r *Registry) MergeE2E(t proto.TenantID, u *proto.TelemetryUpdate) error {
	if u.SubBits != stats.SubBucketBits {
		return fmt.Errorf("telemetry: TelemetryUpdate geometry sub-bits %d != %d", u.SubBits, stats.SubBucketBits)
	}
	if r == nil {
		return nil
	}
	s := r.slot(t)
	s.e2eUpdates.Add(1)
	s.e2eQueueDepth.Store(int64(u.QueueDepth))
	s.e2eBusy.Add(int64(u.Busy))
	s.e2eRetries.Add(int64(u.Retries))
	for i := range u.Classes {
		cd := &u.Classes[i]
		if len(cd.Buckets) == 0 && cd.Sum == 0 {
			continue
		}
		installHist(&s.e2eHist[ClassOf(cd.Class)]).MergeBuckets(func(add func(int, int64)) {
			for _, b := range cd.Buckets {
				add(int(b.Index), int64(b.Count))
			}
		}, int64(cd.Sum), int64(cd.Max))
	}
	return nil
}

// E2EHist returns the tenant's merged end-to-end histogram for a class
// (nil when no host reported samples for it yet).
func (r *Registry) E2EHist(t proto.TenantID, c Class) *stats.AtomicHistogram {
	if r == nil || c >= numClasses {
		return nil
	}
	s := r.peek(t)
	if s == nil {
		return nil
	}
	return s.e2eHist[c].Load()
}

// ResetE2EGauges clears the tenant's last-value e2e gauges on session
// teardown so a recycled tenant ID does not inherit a dead host's
// outstanding queue depth. Cumulative counters and histograms are kept,
// like every other tenant metric.
func (r *Registry) ResetE2EGauges(t proto.TenantID) {
	if r == nil {
		return
	}
	if s := r.peek(t); s != nil {
		s.e2eQueueDepth.Store(0)
	}
}

// RecordClockReestimate records one periodic clock-offset refresh on the
// host: delta is the new estimate minus the previous one (ns), the drift
// the keep-alive round trip just corrected.
func (r *Registry) RecordClockReestimate(t proto.TenantID, delta int64) {
	if r == nil {
		return
	}
	s := r.slot(t)
	s.clockReest.Add(1)
	s.clockReestDelta.Store(delta)
}

// ClockReestimates returns how many re-estimates the tenant performed and
// the last one's delta.
func (r *Registry) ClockReestimates(t proto.TenantID) (count, lastDelta int64) {
	if r == nil {
		return 0, 0
	}
	s := r.peek(t)
	if s == nil {
		return 0, 0
	}
	return s.clockReest.Load(), s.clockReestDelta.Load()
}

// E2EClassSnapshot is one class's end-to-end view next to the target-side
// service latency it telescopes over.
type E2EClassSnapshot struct {
	Class   string `json:"class"`
	Samples int64  `json:"samples"`
	P50NS   int64  `json:"p50_ns"`
	P99NS   int64  `json:"p99_ns"`
	MaxNS   int64  `json:"max_ns"`
	// ServiceP99NS is the target-side service p99 for the same class;
	// GapP99NS = P99NS − ServiceP99NS is the egress gap: latency the host
	// saw that the target's own telemetry cannot.
	ServiceP99NS int64 `json:"service_p99_ns"`
	GapP99NS     int64 `json:"gap_p99_ns"`
}

// E2ESnapshot is one tenant's state on the feedback channel.
type E2ESnapshot struct {
	Tenant     uint16             `json:"tenant"`
	Updates    int64              `json:"updates"`
	QueueDepth int64              `json:"queue_depth"`
	Busy       int64              `json:"busy"`
	Retries    int64              `json:"retries"`
	Classes    []E2EClassSnapshot `json:"classes"`
}

// E2E snapshots every tenant that reported at least one TelemetryUpdate,
// in tenant order (served at /debug/e2e).
func (r *Registry) E2E() []E2ESnapshot {
	if r == nil {
		return nil
	}
	var out []E2ESnapshot
	r.eachTouched(func(i int, s *tenantSlot) {
		if s.e2eUpdates.Load() == 0 {
			return
		}
		snap := E2ESnapshot{
			Tenant:     uint16(i),
			Updates:    s.e2eUpdates.Load(),
			QueueDepth: s.e2eQueueDepth.Load(),
			Busy:       s.e2eBusy.Load(),
			Retries:    s.e2eRetries.Load(),
		}
		for c := Class(0); c < numClasses; c++ {
			h := s.e2eHist[c].Load()
			if h == nil {
				continue
			}
			hs := h.Snapshot()
			if hs.Count() == 0 {
				continue
			}
			cs := E2EClassSnapshot{
				Class:   c.String(),
				Samples: hs.Count(),
				P50NS:   hs.P50(),
				P99NS:   hs.P99(),
				MaxNS:   hs.Max(),
			}
			if sh := s.hist[c].Load(); sh != nil {
				cs.ServiceP99NS = sh.Snapshot().P99()
			}
			cs.GapP99NS = cs.P99NS - cs.ServiceP99NS
			snap.Classes = append(snap.Classes, cs)
		}
		out = append(out, snap)
	})
	return out
}
