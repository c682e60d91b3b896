package core

import (
	"fmt"
	"sort"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// Disposition tells the target qpair what to do with an arriving command
// (Alg. 3, "NVMe target algorithm: ready to execute request").
type Disposition int

// Disposition values.
const (
	// DispositionExecute: hand the command to the device now. Used for
	// normal/legacy requests and for latency-sensitive requests, which
	// bypass every TC queue regardless of backlog.
	DispositionExecute Disposition = iota
	// DispositionQueued: the command was absorbed into a TC queue;
	// nothing reaches the device yet.
	DispositionQueued
	// DispositionDrainBatch: the command carried the draining flag (or
	// tripped the safety valve); the caller must execute the whole
	// returned batch now.
	DispositionDrainBatch
)

// String implements fmt.Stringer.
func (d Disposition) String() string {
	switch d {
	case DispositionExecute:
		return "execute"
	case DispositionQueued:
		return "queued"
	case DispositionDrainBatch:
		return "drain-batch"
	default:
		return fmt.Sprintf("Disposition(%d)", int(d))
	}
}

// TaggedCID is a CID qualified by its owner tenant. CIDs are only unique
// per queue pair, so any structure that can mix tenants (the shared-queue
// ablation) must carry the owner alongside.
type TaggedCID struct {
	Tenant proto.TenantID
	CID    nvme.CID
}

// RespDecision tells the target qpair whether a device completion produces
// a wire response (Alg. 4, "NVMe target algorithm: ready to complete
// request").
type RespDecision struct {
	// Send is false for suppressed completions (TC batch members whose
	// notification the drain response will cover).
	Send bool
	// Tenant that must receive the response.
	Tenant proto.TenantID
	// CID of the response (the drain request's CID for coalesced ones).
	CID nvme.CID
	// Coalesced marks the response as covering every earlier TC request
	// of the tenant (sets proto.FlagCoalesced on the wire).
	Coalesced bool
	// Status of the response. A coalesced response carries the batch's
	// first non-success status, or success.
	Status nvme.Status
}

// TargetPMConfig configures a target-side priority manager.
type TargetPMConfig struct {
	// Isolated selects one TC queue per tenant (the paper's lock-free
	// design, §IV-A). When false, a single queue is shared by every
	// tenant — the hazardous layout the paper rejects: a drain from one
	// tenant prematurely flushes the others' windows. Kept for the
	// ablation benchmark.
	Isolated bool
	// MaxPending is the per-queue safety valve: if a queue accumulates
	// this many TC requests with no drain (e.g. a lost drain flag), the
	// PM force-drains to avoid the lockup described in §IV-A. Zero
	// disables the valve.
	MaxPending int

	// MaxPendingPerTenant caps how many requests one tenant may have
	// pending (admitted but not yet completed) at the target, any class.
	// Past the cap Admit refuses and the target answers StatusBusy
	// instead of buffering unboundedly. Zero disables the per-tenant cap.
	MaxPendingPerTenant int
	// MaxPendingGlobal caps pending requests across all tenants. Zero
	// disables the global cap.
	MaxPendingGlobal int
	// LSHeadroom reserves this many of the global cap's slots for
	// latency-sensitive requests: non-LS admission stops at
	// MaxPendingGlobal-LSHeadroom, so a TC flood cannot starve LS
	// admission. Ignored when MaxPendingGlobal is zero.
	LSHeadroom int
	// ScavengerHeadroom reserves additional global slots that scavenger
	// requests may never take: scavenger admission stops at
	// MaxPendingGlobal-LSHeadroom-ScavengerHeadroom, so background floods
	// yield global capacity to LS and TC before the LSHeadroom check even
	// applies. Ignored when MaxPendingGlobal is zero.
	ScavengerHeadroom int

	// Clock supplies monotonic time for the drain watchdog (nanoseconds;
	// virtual clocks work too — only differences matter). Nil disables
	// the watchdog regardless of WatchdogNS.
	//
	// The PM calls it only to anchor a queue's age when the queue goes
	// non-empty, and compares that anchor with the now its caller passes to
	// ExpireStale and PollScavenger. Both may be cached readings of one
	// clock (targetqp passes its per-turn stamp for both): an anchor stale
	// by a and a now stale by b misjudge an age by b-a, so a bound fires at
	// most max(a, b) early or late — one reactor burst, against bounds of
	// milliseconds.
	Clock func() int64
	// WatchdogNS is the drain watchdog deadline: a TC queue whose oldest
	// parked request has waited this long with no draining flag is
	// force-drained by ExpireStale (host crashed or went silent
	// mid-window). Zero disables the watchdog.
	WatchdogNS int64
	// ScavengerAgingNS bounds scavenger starvation: a parked scavenger
	// queue whose oldest request has waited this long is force-drained by
	// PollScavenger even while LS/TC traffic is still pending, so
	// continuous foreground load can delay background work but never
	// park it forever. Needs Clock; zero disables aging (scavenger then
	// drains only on leftover capacity).
	ScavengerAgingNS int64
}

// DefaultScavengerChunk caps how many requests one scavenger drain
// releases to the device at once. Leftover capacity is momentary — an
// instant with no LS request pending — so dumping a deep best-effort
// backlog into the device in one batch would make the next LS arrival
// queue behind it inside the device, defeating the class's whole point.
// Small chunks keep device-level interference bounded; the remainder
// drains on subsequent polls (every dispatch and completion re-polls, so
// an idle target still clears a backlog quickly).
const DefaultScavengerChunk = 4

// DrainCompletion describes one TC window whose device work has fully
// completed and released (in window order). The drain hook receives it so a
// feedback controller (internal/autotune) can re-evaluate the tenant's
// limit once per drain epoch — the cadence QWin-style tuners decide at,
// and the only point where a whole window's occupancy is known.
type DrainCompletion struct {
	// Tenant owning the completed window.
	Tenant proto.TenantID
	// Window is the batch size at formation (the achieved occupancy).
	Window int
	// Scavenger marks a best-effort window. Controllers must treat it as
	// a free-capacity signal, never a burn/fill signal: scavenger windows
	// drain from leftover capacity by design, so their occupancy says
	// nothing about foreground pressure.
	Scavenger bool
}

// drainBatch tracks one executing TC window awaiting coalesced completion.
// Records are recycled: a steady stream of windows allocates none.
type drainBatch struct {
	owner     *tenantState // tenant whose drain (or overflow) formed the batch
	drainCID  nvme.CID
	size      int // window size at formation (remaining counts down)
	remaining int
	status    nvme.Status
	done      bool
	// noCoalesce disables the coalesced response for this batch. Set in
	// shared-queue mode: a drain there may flush other tenants' requests,
	// and a coalesced response can only be ordered safely against the
	// owner's own stream — with cross-tenant batches no global order
	// exists, so correctness demands per-request responses. This is the
	// §IV-A argument for isolated per-tenant queues, made executable.
	noCoalesce bool
	// scavenger marks a best-effort window (propagated to the drain hook).
	scavenger bool
	// members is the window as handed to the caller. The record keeps the
	// backing array until the window has completed — the caller iterates it
	// while executing — and the next window formed on this record hands it
	// to its queue to refill (formBatch).
	members []TaggedCID
}

// pendingQueue is one TC queue: FIFO of tagged CIDs. In isolated mode all
// entries share one tenant; in shared mode they interleave. firstAt is the
// clock reading when the queue went non-empty — the drain watchdog's
// deadline anchors there.
type pendingQueue struct {
	entries []TaggedCID
	firstAt int64
}

func (q *pendingQueue) push(e TaggedCID) { q.entries = append(q.entries, e) }
func (q *pendingQueue) depth() int       { return len(q.entries) }

// tenantState is everything the PM keeps for one tenant — its queues, its
// executing windows, its admission count and its controller limit —
// behind a single TenantTable lookup per call. Records are created on a
// tenant's first request and kept: tenant IDs recycle, so their number is
// bounded by the peak number of concurrent tenants.
type tenantState struct {
	id proto.TenantID
	// tc is the tenant's TC queue in isolated mode (the shared-queue
	// ablation parks every tenant in TargetPM.shared instead); scav is its
	// best-effort queue, per tenant in either mode, so a scavenger drain can
	// never flush foreign requests and its coalesced response stays safely
	// ordered against the owner's own stream.
	tc, scav pendingQueue
	// scavListed: the tenant is on TargetPM.scavs.
	scavListed bool
	// inflight holds the tenant's executing batches in window order.
	// Coalesced responses are released strictly in this order: a later
	// window that the out-of-order device finishes first must not be
	// announced before an earlier window, because the host replays its
	// pending queue prefix on every coalesced response (Alg. 2) and would
	// otherwise report the earlier window complete prematurely.
	inflight []*drainBatch
	// batches maps each of the tenant's executing window members to its
	// batch, indexed by CID. The PM is told no queue depth, so the table
	// grows to the highest CID seen; the session in front of it refuses
	// CIDs past the depth its peer advertised before they get here.
	batches nvme.Slots[drainBatch]
	// pending counts admitted-but-uncompleted requests (all classes) for
	// admission control.
	pending int
	// limit is the bound a controller may set at run time (SetTenantLimit),
	// tightening (never loosening) both the configured MaxPending valve and
	// MaxPendingPerTenant cap. Zero means "none", so an idle controller
	// leaves behavior bit-identical to the static configuration.
	limit int32
}

// byAge sorts tenants oldest queue first, tenant ID as the tie-break.
type byAge struct {
	ts   []*tenantState
	scav bool // order by the scavenger queue's age, not the TC queue's
}

func (s *byAge) Len() int      { return len(s.ts) }
func (s *byAge) Swap(i, j int) { s.ts[i], s.ts[j] = s.ts[j], s.ts[i] }
func (s *byAge) Less(i, j int) bool {
	a, b := s.ts[i], s.ts[j]
	ai, bi := a.tc.firstAt, b.tc.firstAt
	if s.scav {
		ai, bi = a.scav.firstAt, b.scav.firstAt
	}
	if ai != bi {
		return ai < bi
	}
	return a.id < b.id
}

// TargetPM is the target-side priority manager: it decides execution order
// (computation order) and completion-notification policy for every tenant
// connected to this target (§III-A Goals 1–2).
//
// TargetPM is not synchronized. The lock-free property of the paper's
// design is structural: with Isolated=true no queue is ever shared between
// tenants, so there is nothing to contend on; the runtime drives the PM
// from its single poller loop, exactly as SPDK reactors drive per-core
// state.
type TargetPM struct {
	cfg TargetPMConfig
	// tenants finds a tenant's record; all lists every record (the drain
	// watchdog's sweep) and scavs the tenants that have used a scavenger
	// queue since they last connected (the scavenger poll's).
	tenants TenantTable[tenantState]
	all     []*tenantState
	scavs   []*tenantState
	// shared is the one TC queue of the shared-queue ablation.
	shared pendingQueue
	// pendingTotal is the sum of every tenant's pending count.
	pendingTotal int
	// lsPending counts admitted-but-uncompleted latency-sensitive
	// requests and tcParked counts parked (queued, unexecuted) TC
	// requests across all queues: scavenger queues drain leftover
	// capacity only while both are zero. scavInFlight counts scavenger
	// batch members handed to the device and not yet completed — the
	// idle path releases a new chunk only when it is zero, so background
	// work in service never stacks deeper than one chunk and an LS
	// arrival always finds device capacity free.
	lsPending    int
	tcParked     int
	scavInFlight int
	stats        TargetPMStats
	// tel/trace are the live observability hooks. Both are optional: a
	// nil registry records nothing (its methods are nil-receiver no-ops)
	// and a nil trace skips event construction entirely.
	tel   *telemetry.Registry
	trace telemetry.TraceFunc

	// drainHook fires once per completed window (see SetDrainHook).
	drainHook func(DrainCompletion)

	// Reused across calls so the steady state allocates nothing: retired
	// batch records, the decisions OnDeviceCompletion returns, the batches
	// PollScavenger returns, and the sweep order of ExpireStale and
	// PollScavenger.
	freeBatches []*drainBatch
	resp        []RespDecision
	scavOut     [][]TaggedCID
	order       byAge
}

// TargetPMStats counts PM-level events for the experiments.
type TargetPMStats struct {
	LSBypassed      int64 // LS requests sent straight to execution
	TCQueued        int64 // TC requests absorbed into queues
	Drains          int64 // drain-triggered batch executions
	ForcedDrains    int64 // safety-valve executions (no drain flag)
	PrematureFlush  int64 // foreign CIDs flushed by another tenant's drain
	RespsSent       int64 // wire responses emitted
	RespsSuppressed int64 // completions absorbed by coalescing
	TeardownDrops   int64 // queued requests discarded by session teardown
	BusyRejections  int64 // requests refused admission with StatusBusy
	WatchdogDrains  int64 // of ForcedDrains, those fired by the drain watchdog
	ScavQueued      int64 // scavenger requests absorbed into best-effort queues
	ScavDrains      int64 // scavenger windows released (leftover capacity or aging)
	ScavAgedDrains  int64 // of ScavDrains, those forced by the aging bound
}

// Accumulate adds o's counters into s. A sharded target runs one PM per
// reactor shard; the serving layer merges the per-shard counters through
// this when reporting target-wide stats.
func (s *TargetPMStats) Accumulate(o TargetPMStats) {
	s.LSBypassed += o.LSBypassed
	s.TCQueued += o.TCQueued
	s.Drains += o.Drains
	s.ForcedDrains += o.ForcedDrains
	s.PrematureFlush += o.PrematureFlush
	s.RespsSent += o.RespsSent
	s.RespsSuppressed += o.RespsSuppressed
	s.TeardownDrops += o.TeardownDrops
	s.BusyRejections += o.BusyRejections
	s.WatchdogDrains += o.WatchdogDrains
	s.ScavQueued += o.ScavQueued
	s.ScavDrains += o.ScavDrains
	s.ScavAgedDrains += o.ScavAgedDrains
}

// NewTargetPM creates a priority manager.
func NewTargetPM(cfg TargetPMConfig) *TargetPM {
	return &TargetPM{cfg: cfg}
}

// Stats returns a copy of the PM counters.
func (pm *TargetPM) Stats() TargetPMStats { return pm.stats }

// SetTelemetry attaches a live metrics registry (nil disables).
func (pm *TargetPM) SetTelemetry(r *telemetry.Registry) { pm.tel = r }

// SetTrace attaches a lifecycle trace hook (nil disables).
func (pm *TargetPM) SetTrace(fn telemetry.TraceFunc) { pm.trace = fn }

// SetDrainHook attaches a function invoked once per TC window whose device
// work has fully completed, at in-order release (nil disables). The hook
// runs on the PM's own execution context (the reactor) and may call
// SetTenantLimit re-entrantly.
func (pm *TargetPM) SetDrainHook(fn func(DrainCompletion)) { pm.drainHook = fn }

// tenant returns t's record, creating it on first use.
func (pm *TargetPM) tenant(t proto.TenantID) *tenantState {
	ts := pm.tenants.Get(t)
	if ts == nil {
		ts = &tenantState{id: t}
		pm.tenants.Set(t, ts)
		pm.all = append(pm.all, ts)
	}
	return ts
}

// SetTenantLimit sets (n > 0) or clears (n <= 0) tenant t's controller
// limit. One limit binds twice: the tenant's TC queue force-drains at depth
// n even when the host keeps stamping a larger window, so the effective
// window becomes min(host window, n), and admission refuses the tenant past
// n pending requests. It can only tighten the configured MaxPending valve
// and MaxPendingPerTenant cap, never loosen them. Clearing the limit of a
// tenant the PM has never seen allocates nothing.
func (pm *TargetPM) SetTenantLimit(t proto.TenantID, n int) {
	if n > 0 {
		pm.tenant(t).limit = int32(n)
	} else if ts := pm.tenants.Get(t); ts != nil {
		ts.limit = 0
	}
}

// TenantLimit returns tenant t's controller limit (0 when none).
func (pm *TargetPM) TenantLimit(t proto.TenantID) int {
	if ts := pm.tenants.Get(t); ts != nil {
		return int(ts.limit)
	}
	return 0
}

// tighter returns the tighter of a configured bound c and ts's limit, where
// 0 means "none" for both.
func tighter(c int, ts *tenantState) int {
	if o := int(ts.limit); o > 0 && (c == 0 || o < c) {
		return o
	}
	return c
}

// valveFor returns the effective force-drain valve for a request arriving
// from ts (0 disables).
func (pm *TargetPM) valveFor(ts *tenantState) int { return tighter(pm.cfg.MaxPending, ts) }

// capFor returns ts's effective pending-request cap (0 disables).
func (pm *TargetPM) capFor(ts *tenantState) int { return tighter(pm.cfg.MaxPendingPerTenant, ts) }

// tcQueue returns the TC queue serving ts: its own when isolated, the one
// shared queue otherwise.
func (pm *TargetPM) tcQueue(ts *tenantState) *pendingQueue {
	if pm.cfg.Isolated {
		return &ts.tc
	}
	return &pm.shared
}

// QueueDepth returns the number of pending (unexecuted) TC requests in the
// queue serving tenant t.
func (pm *TargetPM) QueueDepth(t proto.TenantID) int {
	if !pm.cfg.Isolated {
		return pm.shared.depth()
	}
	if ts := pm.tenants.Get(t); ts != nil {
		return ts.tc.depth()
	}
	return 0
}

// ScavQueueDepth returns the number of parked scavenger requests tenant t
// has at this PM.
func (pm *TargetPM) ScavQueueDepth(t proto.TenantID) int {
	if ts := pm.tenants.Get(t); ts != nil {
		return ts.scav.depth()
	}
	return 0
}

// LSPending returns the admitted-but-uncompleted latency-sensitive
// request count (diagnostic/test hook; part of the leftover-capacity
// condition).
func (pm *TargetPM) LSPending() int { return pm.lsPending }

// TCParked returns the parked (queued, unexecuted) TC request count
// across all queues (diagnostic/test hook; part of the leftover-capacity
// condition).
func (pm *TargetPM) TCParked() int { return pm.tcParked }

// Admit decides whether one arriving command may enter the target, and on
// success charges it against the tenant's and the global pending caps
// (undone by Release when the device completion lands or teardown drops
// the request). Rules:
//
//   - Draining requests are always admitted: rejecting a drain would wedge
//     the tenant's already-admitted parked window forever.
//   - The per-tenant cap applies to every class — one tenant must not
//     monopolize the target no matter how it labels its traffic.
//   - The global cap reserves LSHeadroom slots for latency-sensitive
//     requests: non-LS admission stops LSHeadroom slots early, so a TC
//     flood saturating the target still leaves LS tenants room to admit.
//   - Scavenger admission stops ScavengerHeadroom slots earlier still:
//     the best-effort class yields its global slots to LS and TC before
//     the LSHeadroom check, so a background flood cannot crowd either
//     foreground class out of admission.
//
// A false return means the caller must answer StatusBusy — the command was
// never executed, so the host may resubmit verbatim.
func (pm *TargetPM) Admit(t proto.TenantID, prio proto.Priority) bool {
	ts := pm.tenant(t)
	if !prio.Draining() {
		if limit := pm.capFor(ts); limit > 0 && ts.pending >= limit {
			pm.reject(t)
			return false
		}
		if g := pm.cfg.MaxPendingGlobal; g > 0 {
			limit := g
			if prio.Scavenger() {
				limit = g - pm.cfg.LSHeadroom - pm.cfg.ScavengerHeadroom
			} else if !prio.LatencySensitive() {
				limit = g - pm.cfg.LSHeadroom
			}
			if pm.pendingTotal >= limit {
				pm.reject(t)
				return false
			}
		}
	}
	ts.pending++
	pm.pendingTotal++
	if prio.LatencySensitive() {
		pm.lsPending++
	}
	return true
}

func (pm *TargetPM) reject(t proto.TenantID) {
	pm.stats.BusyRejections++
	pm.tel.IncBusyRejection(t)
}

// Release returns one admitted request's slot (completion, or teardown of
// a request that never reached the device), given the wire priority the
// request was admitted with. The global decrement is tied to the
// per-tenant one, so a spurious double release cannot desynchronize
// sum(pending) from pendingTotal.
func (pm *TargetPM) Release(t proto.TenantID, prio proto.Priority) {
	if ts := pm.tenants.Get(t); ts != nil && ts.pending > 0 {
		ts.pending--
		pm.pendingTotal--
		if prio.LatencySensitive() && pm.lsPending > 0 {
			pm.lsPending--
		}
	}
}

// PendingRequests returns tenant t's admitted-but-uncompleted request
// count.
func (pm *TargetPM) PendingRequests(t proto.TenantID) int {
	if ts := pm.tenants.Get(t); ts != nil {
		return ts.pending
	}
	return 0
}

// PendingTotal returns the admitted-but-uncompleted request count across
// all tenants.
func (pm *TargetPM) PendingTotal() int { return pm.pendingTotal }

// OnCommand classifies one arriving command (Alg. 3). For
// DispositionDrainBatch, batch lists every request to execute now, in FIFO
// order, ending with the triggering command. The slice is the PM's: it
// stays intact until the window it names has completed, and is reused for a
// later window after that.
func (pm *TargetPM) OnCommand(t proto.TenantID, cid nvme.CID, prio proto.Priority) (d Disposition, batch []TaggedCID) {
	self := TaggedCID{Tenant: t, CID: cid}
	ts := pm.tenant(t)
	switch {
	case prio.Scavenger():
		q := &ts.scav
		if !ts.scavListed {
			ts.scavListed = true
			pm.scavs = append(pm.scavs, ts)
		}
		if q.depth() == 0 && pm.cfg.Clock != nil {
			q.firstAt = pm.cfg.Clock()
		}
		q.push(self)
		pm.stats.ScavQueued++
		pm.tel.IncScavQueued(t)
		pm.tel.SetScavQueueDepth(t, q.depth())
		if pm.trace != nil {
			pm.trace(telemetry.Event{Stage: telemetry.StageEnqueue, Tenant: t, CID: cid, Prio: prio, Aux: int64(q.depth())})
		}
		return DispositionQueued, nil

	case prio.Draining():
		q := pm.tcQueue(ts)
		pm.tcParked -= q.depth()
		q.push(self)
		b := pm.formBatch(q, q.depth(), 0, false)
		pm.stats.Drains++
		pm.tel.ObserveDrain(t, b.size, false)
		pm.tel.SetQueueDepth(t, 0)
		if pm.trace != nil {
			pm.trace(telemetry.Event{Stage: telemetry.StageDrainStart, Tenant: t, CID: cid, Prio: prio, Aux: int64(b.size)})
		}
		return DispositionDrainBatch, b.members

	case prio.ThroughputCritical():
		q := pm.tcQueue(ts)
		if q.depth() == 0 && pm.cfg.Clock != nil {
			q.firstAt = pm.cfg.Clock()
		}
		q.push(self)
		pm.tcParked++
		pm.stats.TCQueued++
		pm.tel.IncTCQueued(t)
		pm.tel.SetQueueDepth(t, q.depth())
		if pm.trace != nil {
			pm.trace(telemetry.Event{Stage: telemetry.StageEnqueue, Tenant: t, CID: cid, Prio: prio, Aux: int64(q.depth())})
		}
		if valve := pm.valveFor(ts); valve > 0 && q.depth() >= valve {
			b := pm.forceDrain(q, false)
			pm.tel.SetQueueDepth(t, 0)
			if pm.trace != nil {
				pm.trace(telemetry.Event{Stage: telemetry.StageDrainStart, Tenant: b.owner.id, CID: b.drainCID, Prio: prio, Aux: int64(b.size)})
			}
			return DispositionDrainBatch, b.members
		}
		return DispositionQueued, nil

	default:
		if prio.LatencySensitive() {
			pm.stats.LSBypassed++
			pm.tel.IncLSBypass(t)
		}
		return DispositionExecute, nil
	}
}

// forceDrain releases a whole TC queue with no draining flag — the safety
// valve, or (watchdog set) the drain watchdog. The batch owner is the last
// parked request's tenant.
func (pm *TargetPM) forceDrain(q *pendingQueue, watchdog bool) *drainBatch {
	pm.tcParked -= q.depth()
	b := pm.formBatch(q, q.depth(), 0, false)
	pm.stats.ForcedDrains++
	if watchdog {
		pm.stats.WatchdogDrains++
	}
	pm.tel.ObserveDrain(b.owner.id, b.size, true)
	return b
}

// ExpireStale is the drain watchdog (needs both Clock and WatchdogNS
// configured): every TC queue whose oldest parked request has waited at
// least WatchdogNS with no draining flag is force-drained, and its batch
// returned for the caller to execute — exactly as a DispositionDrainBatch
// would be, except no triggering command exists (the batch owner is the
// last parked request). Parked requests must never wedge forever just
// because their host crashed mid-window. Stale queues are released oldest
// first, tenant ID as the tie-break, so the order their windows reach the
// device is the same on every run. The runtime calls this from the same
// reactor that calls OnCommand; like the rest of the PM it is not
// synchronized.
func (pm *TargetPM) ExpireStale(now int64) [][]TaggedCID {
	if pm.cfg.Clock == nil || pm.cfg.WatchdogNS <= 0 {
		return nil
	}
	stale := func(q *pendingQueue) bool { return q.depth() > 0 && now-q.firstAt >= pm.cfg.WatchdogNS }
	if !pm.cfg.Isolated {
		if !stale(&pm.shared) {
			return nil
		}
		return [][]TaggedCID{pm.expire(&pm.shared)}
	}
	pm.order.ts, pm.order.scav = pm.order.ts[:0], false
	for _, ts := range pm.all {
		if stale(&ts.tc) {
			pm.order.ts = append(pm.order.ts, ts)
		}
	}
	sort.Sort(&pm.order)
	var out [][]TaggedCID
	for _, ts := range pm.order.ts {
		out = append(out, pm.expire(&ts.tc))
	}
	clear(pm.order.ts)
	return out
}

// expire force-drains one stale queue for the watchdog and returns its
// window.
func (pm *TargetPM) expire(q *pendingQueue) []TaggedCID {
	b := pm.forceDrain(q, true)
	pm.tel.SetQueueDepth(b.owner.id, 0)
	if pm.trace != nil {
		// DrainStart keeps window correlation working; ForcedDrain
		// marks why the window released.
		pm.trace(telemetry.Event{Stage: telemetry.StageDrainStart, Tenant: b.owner.id, CID: b.drainCID, Aux: int64(b.size)})
		pm.trace(telemetry.Event{Stage: telemetry.StageForcedDrain, Tenant: b.owner.id, CID: b.drainCID, Aux: int64(b.size)})
	}
	return b.members
}

// PollScavenger releases parked scavenger queues, returning the batches
// to execute now (same contract as a DispositionDrainBatch). Two release
// conditions, checked per queue:
//
//   - Leftover capacity: no latency-sensitive request is pending and no
//     TC window is parked un-drained. Scavenger work then consumes only
//     capacity the foreground classes are not using.
//   - Aging: the queue's oldest request has waited ScavengerAgingNS
//     (needs Clock). Continuous foreground load can delay background
//     work, but a parked scavenger window always eventually drains.
//
// Each release is capped at DefaultScavengerChunk requests so a deep backlog
// cannot flood the device ahead of the next foreground arrival; the
// remainder stays parked for later polls.
//
// The runtime calls this from the reactor after command dispatch and
// after device completions (the points where leftover capacity can
// appear), and from a ticker for the aging bound. With no scavenger tenant
// connected it returns at once, so callers need not read a clock for now
// before they know one is.
//
// The returned slice is the PM's scratch, overwritten by the next call (nil
// when nothing drains): a caller whose handling of one batch can re-enter
// the PM must copy the rest out first.
func (pm *TargetPM) PollScavenger(now int64) [][]TaggedCID {
	if len(pm.scavs) == 0 {
		return nil
	}
	const chunk = DefaultScavengerChunk
	// Deterministic release order: oldest queue first, tenant ID as the
	// tie-break. Any other order would vary run to run and leak into the
	// device's jitter stream, breaking same-seed reproducibility.
	pm.order.ts, pm.order.scav = pm.order.ts[:0], true
	for _, ts := range pm.scavs {
		if ts.scav.depth() > 0 {
			pm.order.ts = append(pm.order.ts, ts)
		}
	}
	if len(pm.order.ts) > 1 {
		sort.Sort(&pm.order)
	}
	out := pm.scavOut[:0]
	for _, ts := range pm.order.ts {
		t, q := ts.id, &ts.scav
		aged := pm.cfg.ScavengerAgingNS > 0 && pm.cfg.Clock != nil &&
			now-q.firstAt >= pm.cfg.ScavengerAgingNS
		// The idle path additionally waits for the previous chunk's device
		// work to finish (scavInFlight, charged by the formBatch below),
		// so repeated polls during one foreground gap cannot stack chunks
		// into the device — at most one chunk is ever in service, and an
		// LS arrival always finds free device capacity. The aging path
		// skips that gate: the starvation bound outranks it.
		foregroundIdle := pm.lsPending == 0 && pm.tcParked == 0
		if !aged && !(foregroundIdle && pm.scavInFlight == 0) {
			continue
		}
		// Never more than a chunk at once: even on a fully idle target, the
		// next command could be an LS arrival, and it must not find a
		// device-deep backlog ahead of it. The remainder's aging anchor
		// restarts now (inside formBatch), so under continuous foreground
		// load a deep backlog drains one chunk per aging period — slow, but
		// bounded, which is all best-effort promises.
		b := pm.formBatch(q, chunk, now, true)
		pm.stats.ScavDrains++
		forced := aged && !foregroundIdle
		if forced {
			pm.stats.ScavAgedDrains++
		}
		pm.tel.ObserveScavDrain(t, forced)
		pm.tel.SetScavQueueDepth(t, q.depth())
		if pm.trace != nil {
			pm.trace(telemetry.Event{Stage: telemetry.StageDrainStart, Tenant: t, CID: b.drainCID, Prio: proto.PrioScavenger, Aux: int64(b.size)})
			if forced {
				pm.trace(telemetry.Event{Stage: telemetry.StageForcedDrain, Tenant: t, CID: b.drainCID, Prio: proto.PrioScavenger, Aux: int64(b.size)})
			}
		}
		out = append(out, b.members)
	}
	clear(pm.order.ts)
	if len(out) == 0 {
		return nil
	}
	pm.scavOut = out
	return out
}

// formBatch turns the first n entries of q (all of them when n covers the
// queue) into an executing window and registers it so completions can be
// counted. The window's owner and drain CID are its last member's. When
// entries remain parked, their aging anchor restarts at now: the drained
// chunk consumed this deadline, and the remainder earns its own.
func (pm *TargetPM) formBatch(q *pendingQueue, n int, now int64, scavenger bool) *drainBatch {
	var b *drainBatch
	if k := len(pm.freeBatches); k > 0 {
		b = pm.freeBatches[k-1]
		pm.freeBatches = pm.freeBatches[:k-1]
	} else {
		b = new(drainBatch)
	}
	members := q.entries
	if n >= len(members) {
		// The window takes the queue's array and the queue refills the one
		// this record's previous, completed window left behind.
		q.entries, q.firstAt = b.members[:0], 0
	} else {
		members = members[:n:n]
		q.entries, q.firstAt = q.entries[n:], now
	}
	last := members[len(members)-1]
	owner := pm.tenant(last.Tenant)
	*b = drainBatch{
		owner:     owner,
		drainCID:  last.CID,
		size:      len(members),
		remaining: len(members),
		status:    nvme.StatusSuccess,
		// Scavenger batches always coalesce: their queues are per-tenant
		// even in the shared-queue ablation, so the ordering hazard that
		// forces per-request responses there cannot arise.
		noCoalesce: !pm.cfg.Isolated && !scavenger,
		scavenger:  scavenger,
		members:    members,
	}
	if scavenger {
		pm.scavInFlight += len(members)
	}
	for _, m := range members {
		mt := owner
		if m.Tenant != owner.id {
			mt = pm.tenant(m.Tenant)
			pm.stats.PrematureFlush++
		}
		mt.batches.Set(m.CID, b)
	}
	owner.inflight = append(owner.inflight, b)
	return b
}

// OnDeviceCompletion processes one device completion (Alg. 4) and decides
// the wire response(s). LS/normal completions always respond. TC batch
// members of the batch owner are suppressed until the batch empties, then
// one coalesced response carries the drain CID. Foreign batch members
// (shared-queue mode only: another tenant's requests prematurely flushed
// by this drain) receive individual responses, because a coalesced
// response can only cover the owner's connection.
//
// The returned slice is the PM's scratch, overwritten by the next call: a
// caller whose handling of one decision can re-enter the PM must copy the
// rest out first.
func (pm *TargetPM) OnDeviceCompletion(t proto.TenantID, cid nvme.CID, st nvme.Status) []RespDecision {
	out := pm.resp[:0]
	ts := pm.tenants.Get(t)
	var b *drainBatch
	if ts != nil {
		b = ts.batches.Delete(cid)
	}
	if b != nil {
		b.remaining--
		if b.scavenger && pm.scavInFlight > 0 {
			pm.scavInFlight--
		}
	}
	switch {
	case b == nil || b.noCoalesce || ts != b.owner:
		// Not part of any TC batch (LS or legacy request); or shared-queue
		// mode, where every member answers individually while the batch
		// still gates releaseInOrder so pure batches of other owners behind
		// it stay ordered; or a premature-flush victim, answered
		// individually so its initiator does not hang — its coalescing
		// benefit is lost.
		pm.stats.RespsSent++
		pm.tel.IncResponse(t, false)
		out = append(out, RespDecision{Send: true, Tenant: t, CID: cid, Status: st})
	default:
		if !st.OK() && b.status.OK() {
			b.status = st
		}
		if b.remaining > 0 {
			// Suppressed member — which may be the drain request itself
			// when the device finished it early (out-of-order): the
			// coalesced response waits for the whole window regardless.
			pm.stats.RespsSuppressed++
			pm.tel.IncSuppressed(t)
		}
	}
	if b != nil && b.remaining == 0 {
		b.done = true
		out = pm.releaseInOrder(b.owner, out)
	}
	if len(out) == 0 {
		out = append(out, RespDecision{Send: false})
	}
	pm.resp = out
	return out
}

// releaseInOrder appends to out the coalesced responses for the tenant's
// completed windows, strictly in window order; a finished window parked
// behind an unfinished earlier one stays unannounced until its turn.
func (pm *TargetPM) releaseInOrder(owner *tenantState, out []RespDecision) []RespDecision {
	q := owner.inflight
	n := 0
	for ; n < len(q) && q[n].done; n++ {
		b := q[n]
		if pm.drainHook != nil {
			pm.drainHook(DrainCompletion{
				Tenant:    owner.id,
				Window:    b.size,
				Scavenger: b.scavenger,
			})
		}
		if !b.noCoalesce {
			// Batch complete: one response for the whole window (§III-B:
			// "instead of sending four completion requests, only one will
			// be sent"). A noCoalesce batch's members already answered
			// individually.
			pm.stats.RespsSent++
			pm.tel.IncResponse(owner.id, true)
			if pm.trace != nil {
				pm.trace(telemetry.Event{Stage: telemetry.StageCoalescedNotify, Tenant: owner.id, CID: b.drainCID, Aux: int64(b.size)})
			}
			out = append(out, RespDecision{
				Send:      true,
				Tenant:    owner.id,
				CID:       b.drainCID,
				Coalesced: true,
				Status:    b.status,
			})
		}
		// Every member has completed, so nobody reads the window any more:
		// the record, and the array it carries, go back for the next one.
		*b = drainBatch{members: b.members[:0]}
		pm.freeBatches = append(pm.freeBatches, b)
	}
	rest := copy(q, q[n:])
	clear(q[rest:])
	owner.inflight = q[:rest]
	return out
}

// DropTenant discards every queued (not yet executing) request owned by
// tenant t and returns their CIDs. The target calls it when the tenant's
// connection dies: a dead initiator's parked window must never reach the
// device — its drain flag will never arrive, its completions have nowhere
// to go, and in shared-queue mode its entries would sit in front of live
// tenants' requests forever. Requests already executing (members of an
// in-flight batch) are untouched; their device callbacks complete into
// the tombstoned session and keep sibling batch ordering exact.
func (pm *TargetPM) DropTenant(t proto.TenantID) []nvme.CID {
	ts := pm.tenants.Get(t)
	if ts == nil {
		return nil
	}
	var dropped []nvme.CID
	if q := pm.tcQueue(ts); q.depth() > 0 {
		// Keep the others' entries in FIFO order. Isolated, the whole queue
		// belongs to t and nothing is kept.
		kept := q.entries[:0]
		for _, e := range q.entries {
			if e.Tenant == t {
				dropped = append(dropped, e.CID)
			} else {
				kept = append(kept, e)
			}
		}
		q.entries = kept
		pm.tcParked -= len(dropped)
	}
	// A dead tenant's parked scavenger window must not linger either: its
	// drain would complete into a torn-down session. Scavenger queues are
	// always per-tenant, so the whole queue goes.
	if ts.scavListed {
		for _, e := range ts.scav.entries {
			dropped = append(dropped, e.CID)
		}
		ts.scav = pendingQueue{entries: ts.scav.entries[:0]}
		ts.scavListed = false
		for i, o := range pm.scavs {
			if o == ts {
				last := len(pm.scavs) - 1
				pm.scavs[i], pm.scavs[last] = pm.scavs[last], nil
				pm.scavs = pm.scavs[:last]
				break
			}
		}
		pm.tel.SetScavQueueDepth(t, 0)
	}
	if len(dropped) == 0 {
		return nil
	}
	pm.stats.TeardownDrops += int64(len(dropped))
	pm.tel.SetQueueDepth(t, 0)
	return dropped
}

// OutstandingBatchCIDs returns how many executing TC requests have not yet
// completed (diagnostic/test hook).
func (pm *TargetPM) OutstandingBatchCIDs() int {
	n := 0
	for _, ts := range pm.all {
		n += ts.batches.Len()
	}
	return n
}
