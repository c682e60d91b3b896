package telemetry

import (
	"sync"
	"sync/atomic"

	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
)

// MaxTenants is the tenant ID space (proto.TenantID is uint16). Slots are
// organised as lazily installed fixed-size pages so the record path stays
// a fixed-offset atomic add with no map lookup and no lock, while an idle
// registry does not pay for 65536 pre-allocated slots.
const MaxTenants = 65536

// tenantPageSize is the slot count per lazily allocated page; pages are
// CAS-installed once on a tenant's first touch and never freed.
const (
	tenantPageSize = 256
	numTenantPages = MaxTenants / tenantPageSize
)

// tenantPage is one contiguous block of tenant slots.
type tenantPage [tenantPageSize]tenantSlot

// tenantSlot holds one tenant's instruments. Counters only ever grow;
// gauges are last-value.
type tenantSlot struct {
	// touched is set on the first write so the exporter can skip the
	// never-used slots without comparing every field.
	touched atomic.Bool
	class   atomic.Int32 // proto.Priority of the connection (gauge)

	submitted    atomic.Int64
	completed    atomic.Int64
	errors       atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	lsBypassed   atomic.Int64
	tcQueued     atomic.Int64
	queueDepth   atomic.Int64 // gauge: pending TC requests at the target PM
	window       atomic.Int64 // gauge: drain window (host: chosen; target: observed)
	drains       atomic.Int64
	forcedDrains atomic.Int64
	suppressed   atomic.Int64 // completions absorbed by coalescing
	responses    atomic.Int64 // wire responses emitted for this tenant
	coalesced    atomic.Int64 // of which coalesced

	busyRejections atomic.Int64 // admissions refused with StatusBusy

	// Scavenger (best-effort) class instruments. Exported in their own
	// gated block so deployments without scavenger traffic keep their
	// exposition byte-identical.
	scavQueued     atomic.Int64 // scavenger requests absorbed into queues
	scavQueueDepth atomic.Int64 // gauge: parked scavenger requests
	scavDrains     atomic.Int64 // scavenger windows released
	scavAgedDrains atomic.Int64 // of which forced by the aging bound

	// hist holds the per-class latency histograms. Installed lazily (one
	// 22 KiB histogram per active tenant-class, CAS once) so an idle
	// registry stays small; after installation Record is allocation-free.
	hist [numClasses]atomic.Pointer[stats.AtomicHistogram]

	// Host-reported end-to-end view, merged from TelemetryUpdate PDUs
	// (see e2e.go). The histograms share the service-side geometry, so
	// host deltas add in exactly.
	e2eHist       [numClasses]atomic.Pointer[stats.AtomicHistogram]
	e2eUpdates    atomic.Int64 // TelemetryUpdates merged for this tenant
	e2eQueueDepth atomic.Int64 // gauge: host outstanding at the last update
	e2eBusy       atomic.Int64 // host-observed StatusBusy completions

	// Periodic clock re-estimation (host side): how many keep-alive
	// round trips refreshed the offset, and the last refresh's delta
	// against the previous estimate.
	clockReest      atomic.Int64
	clockReestDelta atomic.Int64
}

// installHist returns the histogram in p, installing one on first use
// (CAS once; the loser of a race adopts the winner's).
func installHist(p *atomic.Pointer[stats.AtomicHistogram]) *stats.AtomicHistogram {
	if h := p.Load(); h != nil {
		return h
	}
	h := &stats.AtomicHistogram{}
	if p.CompareAndSwap(nil, h) {
		return h
	}
	return p.Load()
}

// Registry is the metrics store. The zero value is not used directly —
// create one with New — but a nil *Registry is a first-class value: every
// method checks the receiver and returns immediately, so components wired
// with a nil registry run un-instrumented at zero cost.
//
// Record methods are safe for concurrent use from any goroutine.
type Registry struct {
	tenants [numTenantPages]atomic.Pointer[tenantPage]

	connections     atomic.Int64
	transportErrors atomic.Int64
	disconnects     atomic.Int64
	teardownDrops   atomic.Int64
	shards          atomic.Int64

	// Adaptive drain-window controller state (see autotune.go).
	atMu    sync.Mutex
	atSeq   uint64
	atLog   []AutotuneDecision // ring of the last autotuneLogCap decisions
	atPos   int
	atState map[uint16]*autotuneTenant

	// rec is the attached flight recorder (nil: /debug/trace disabled).
	rec atomic.Pointer[Recorder]
}

// New creates an enabled registry.
func New() *Registry { return &Registry{} }

func (r *Registry) slot(t proto.TenantID) *tenantSlot {
	pg := r.tenants[t>>8].Load()
	if pg == nil {
		fresh := new(tenantPage)
		if r.tenants[t>>8].CompareAndSwap(nil, fresh) {
			pg = fresh
		} else {
			pg = r.tenants[t>>8].Load()
		}
	}
	s := &pg[t&(tenantPageSize-1)]
	if !s.touched.Load() {
		s.touched.Store(true)
	}
	return s
}

// peek returns the tenant's slot without installing a page: nil when the
// tenant's page was never touched. Read-only accessors use it so a probe
// of an idle tenant stays allocation-free.
func (r *Registry) peek(t proto.TenantID) *tenantSlot {
	pg := r.tenants[t>>8].Load()
	if pg == nil {
		return nil
	}
	return &pg[t&(tenantPageSize-1)]
}

// eachTouched visits every tenant slot with recorded activity, in tenant
// order. Cold path (exports and snapshots).
func (r *Registry) eachTouched(fn func(id int, s *tenantSlot)) {
	for p := range r.tenants {
		pg := r.tenants[p].Load()
		if pg == nil {
			continue
		}
		for i := range pg {
			s := &pg[i]
			if !s.touched.Load() {
				continue
			}
			fn(p*tenantPageSize+i, s)
		}
	}
}

// SetRecorder attaches a flight recorder so the HTTP exporter can serve
// /debug/trace dumps alongside the metrics (nil detaches).
func (r *Registry) SetRecorder(rec *Recorder) {
	if r == nil {
		return
	}
	r.rec.Store(rec)
}

// SetClass records the tenant's connection priority class (shown in the
// /debug/tenants table).
func (r *Registry) SetClass(t proto.TenantID, p proto.Priority) {
	if r == nil {
		return
	}
	r.slot(t).class.Store(int32(p))
}

// IncSubmitted records one submitted request and the payload bytes it
// moves (write payload on submission; read payload is accounted by
// IncCompleted's byte argument).
func (r *Registry) IncSubmitted(t proto.TenantID, bytesWritten int64) {
	if r == nil {
		return
	}
	s := r.slot(t)
	s.submitted.Add(1)
	if bytesWritten > 0 {
		s.bytesWritten.Add(bytesWritten)
	}
}

// IncCompleted records one application-visible completion: the request's
// wire priority (selecting the LS or TC latency histogram), its
// end-to-end latency (clock units; <0 skips the sample), and the bytes
// read.
func (r *Registry) IncCompleted(t proto.TenantID, prio proto.Priority, latency int64, bytesRead int64, ok bool) {
	if r == nil {
		return
	}
	s := r.slot(t)
	s.completed.Add(1)
	if !ok {
		s.errors.Add(1)
	}
	if bytesRead > 0 {
		s.bytesRead.Add(bytesRead)
	}
	if latency >= 0 {
		installHist(&s.hist[ClassOf(prio)]).Record(latency)
	}
}

// LatencyHist returns the tenant's histogram for a class (nil when that
// class recorded nothing yet).
func (r *Registry) LatencyHist(t proto.TenantID, c Class) *stats.AtomicHistogram {
	if r == nil || c >= numClasses {
		return nil
	}
	s := r.peek(t)
	if s == nil {
		return nil
	}
	return s.hist[c].Load()
}

// IncLSBypass records one latency-sensitive request sent straight to
// execution past the TC queues.
func (r *Registry) IncLSBypass(t proto.TenantID) {
	if r == nil {
		return
	}
	r.slot(t).lsBypassed.Add(1)
}

// IncTCQueued records one throughput-critical request absorbed into the
// tenant's queue.
func (r *Registry) IncTCQueued(t proto.TenantID) {
	if r == nil {
		return
	}
	r.slot(t).tcQueued.Add(1)
}

// SetQueueDepth records the tenant queue's pending request count.
func (r *Registry) SetQueueDepth(t proto.TenantID, depth int) {
	if r == nil {
		return
	}
	r.slot(t).queueDepth.Store(int64(depth))
}

// IncScavQueued records one scavenger (best-effort) request absorbed
// into the tenant's scavenger queue.
func (r *Registry) IncScavQueued(t proto.TenantID) {
	if r == nil {
		return
	}
	r.slot(t).scavQueued.Add(1)
}

// SetScavQueueDepth records the tenant's parked scavenger request count.
func (r *Registry) SetScavQueueDepth(t proto.TenantID, depth int) {
	if r == nil {
		return
	}
	r.slot(t).scavQueueDepth.Store(int64(depth))
}

// ObserveScavDrain records one scavenger window released for execution
// and whether the aging bound (rather than leftover capacity) forced it.
// The batch size is deliberately not stored in the drain-window gauge:
// that gauge tracks the foreground TC window, and scavenger batches are
// opportunistic, not tuned.
func (r *Registry) ObserveScavDrain(t proto.TenantID, aged bool) {
	if r == nil {
		return
	}
	s := r.slot(t)
	s.scavDrains.Add(1)
	if aged {
		s.scavAgedDrains.Add(1)
	}
}

// SetWindow records the tenant's drain window size (host side: the PM's
// current choice; target side: the batch size observed at drain).
func (r *Registry) SetWindow(t proto.TenantID, w int) {
	if r == nil {
		return
	}
	r.slot(t).window.Store(int64(w))
}

// ObserveDrain records one window released for execution at the target:
// its size (also stored in the window gauge) and whether the safety valve
// (forced) rather than a draining flag triggered it.
func (r *Registry) ObserveDrain(t proto.TenantID, window int, forced bool) {
	if r == nil {
		return
	}
	s := r.slot(t)
	if forced {
		s.forcedDrains.Add(1)
	} else {
		s.drains.Add(1)
	}
	s.window.Store(int64(window))
}

// IncSuppressed records one device completion absorbed by coalescing (no
// wire response of its own).
func (r *Registry) IncSuppressed(t proto.TenantID) {
	if r == nil {
		return
	}
	r.slot(t).suppressed.Add(1)
}

// IncResponse records one wire response emitted for the tenant.
func (r *Registry) IncResponse(t proto.TenantID, coalesced bool) {
	if r == nil {
		return
	}
	s := r.slot(t)
	s.responses.Add(1)
	if coalesced {
		s.coalesced.Add(1)
	}
}

// IncBusyRejection records one request refused admission with StatusBusy
// (the tenant or the target globally was past its pending-request cap).
func (r *Registry) IncBusyRejection(t proto.TenantID) {
	if r == nil {
		return
	}
	r.slot(t).busyRejections.Add(1)
}

// IncConnection counts one accepted/established connection.
func (r *Registry) IncConnection() {
	if r == nil {
		return
	}
	r.connections.Add(1)
}

// IncTransportError counts one transport-level failure (broken socket,
// codec error, handshake failure).
func (r *Registry) IncTransportError() {
	if r == nil {
		return
	}
	r.transportErrors.Add(1)
}

// SetShards records how many reactor shards the attached target runs
// (exported as the nvmeopf_target_shards gauge; 0 — never set — omits
// it).
func (r *Registry) SetShards(n int) {
	if r == nil {
		return
	}
	r.shards.Store(int64(n))
}

// IncDisconnect counts one session teardown: an initiator connection that
// died (or closed) and had its target-side session reclaimed.
func (r *Registry) IncDisconnect() {
	if r == nil {
		return
	}
	r.disconnects.Add(1)
}

// AddTeardownDrops counts queued requests discarded because their
// tenant's session was torn down before they executed.
func (r *Registry) AddTeardownDrops(n int64) {
	if r == nil || n == 0 {
		return
	}
	r.teardownDrops.Add(n)
}

// TenantSnapshot is a point-in-time copy of one tenant's instruments.
type TenantSnapshot struct {
	Tenant       uint16 `json:"tenant"`
	Class        string `json:"class"`
	Submitted    int64  `json:"submitted"`
	Completed    int64  `json:"completed"`
	Errors       int64  `json:"errors"`
	BytesRead    int64  `json:"bytes_read"`
	BytesWritten int64  `json:"bytes_written"`
	LSBypassed   int64  `json:"ls_bypassed"`
	TCQueued     int64  `json:"tc_queued"`
	QueueDepth   int64  `json:"queue_depth"`
	Window       int64  `json:"window"`
	Drains       int64  `json:"drains"`
	ForcedDrains int64  `json:"forced_drains"`
	Suppressed   int64  `json:"suppressed"`
	Responses    int64  `json:"responses"`
	Coalesced    int64  `json:"coalesced"`
	// BusyRejections counts requests refused admission with StatusBusy.
	BusyRejections int64 `json:"busy_rejections"`
	// Scavenger (best-effort) class instruments; all zero for tenants
	// that never submitted scavenger traffic (omitted from JSON then).
	ScavQueued     int64 `json:"scav_queued,omitempty"`
	ScavQueueDepth int64 `json:"scav_queue_depth,omitempty"`
	ScavDrains     int64 `json:"scav_drains,omitempty"`
	ScavAgedDrains int64 `json:"scav_aged_drains,omitempty"`
	// CoalescingRatio is completions per wire response — the live form of
	// the paper's Fig. 6(c) metric; > 1 means coalescing is paying off.
	CoalescingRatio float64 `json:"coalescing_ratio"`
	// Latency quantiles merged across both class histograms (per-class
	// detail is on /metrics and in LatencyHist).
	LatencyP50     int64 `json:"latency_p50_ns"`
	LatencyP95     int64 `json:"latency_p95_ns"`
	LatencyP99     int64 `json:"latency_p99_ns"`
	LatencyP999    int64 `json:"latency_p999_ns"`
	LatencyMax     int64 `json:"latency_max_ns"`
	LatencySamples int64 `json:"latency_samples"`
}

// GlobalSnapshot is a point-in-time copy of the registry-wide instruments.
type GlobalSnapshot struct {
	Connections     int64 `json:"connections"`
	TransportErrors int64 `json:"transport_errors"`
	Disconnects     int64 `json:"disconnects"`
	TeardownDrops   int64 `json:"teardown_drops"`
}

// Global snapshots the registry-wide counters.
func (r *Registry) Global() GlobalSnapshot {
	if r == nil {
		return GlobalSnapshot{}
	}
	return GlobalSnapshot{
		Connections:     r.connections.Load(),
		TransportErrors: r.transportErrors.Load(),
		Disconnects:     r.disconnects.Load(),
		TeardownDrops:   r.teardownDrops.Load(),
	}
}

// Tenants snapshots every tenant with recorded activity, in tenant order.
func (r *Registry) Tenants() []TenantSnapshot {
	if r == nil {
		return nil
	}
	var out []TenantSnapshot
	r.eachTouched(func(i int, s *tenantSlot) {
		snap := TenantSnapshot{
			Tenant:       uint16(i),
			Class:        proto.Priority(s.class.Load()).String(),
			Submitted:    s.submitted.Load(),
			Completed:    s.completed.Load(),
			Errors:       s.errors.Load(),
			BytesRead:    s.bytesRead.Load(),
			BytesWritten: s.bytesWritten.Load(),
			LSBypassed:   s.lsBypassed.Load(),
			TCQueued:     s.tcQueued.Load(),
			QueueDepth:   s.queueDepth.Load(),
			Window:       s.window.Load(),
			Drains:       s.drains.Load(),
			ForcedDrains: s.forcedDrains.Load(),
			Suppressed:   s.suppressed.Load(),
			Responses:    s.responses.Load(),
			Coalesced:    s.coalesced.Load(),

			BusyRejections: s.busyRejections.Load(),

			ScavQueued:     s.scavQueued.Load(),
			ScavQueueDepth: s.scavQueueDepth.Load(),
			ScavDrains:     s.scavDrains.Load(),
			ScavAgedDrains: s.scavAgedDrains.Load(),
		}
		if snap.Responses > 0 {
			snap.CoalescingRatio = float64(snap.Completed) / float64(snap.Responses)
		}
		var hs stats.Histogram
		for c := Class(0); c < numClasses; c++ {
			if h := s.hist[c].Load(); h != nil {
				hs.Merge(h.Snapshot())
			}
		}
		if hs.Count() > 0 {
			snap.LatencySamples = hs.Count()
			snap.LatencyP50 = hs.Quantile(0.50)
			snap.LatencyP95 = hs.Quantile(0.95)
			snap.LatencyP99 = hs.Quantile(0.99)
			snap.LatencyP999 = hs.Quantile(0.999)
			snap.LatencyMax = hs.Max()
		}
		out = append(out, snap)
	})
	return out
}
