// Package autotune closes the control loop the paper's §IV-D window
// formula leaves open: a per-shard feedback controller that, on every
// drain completion, re-computes a tenant's TC drain window and admission
// cap from the observed latency-sensitive signal — SLO burn rate, interval
// p99, and drain occupancy. The law is QWin-style (PAPERS.md): multiplica-
// tive back-off of the window while the LS error budget burns faster than
// its target, additive growth while there is budget headroom and the
// windows are actually filling, clamped to the static formula's bounds so
// the controller degrades to today's behavior when telemetry is cold.
//
// Actuation is target-side only. The drain window proper is chosen by the
// host (HostPM stamps the draining flag), so the controller constrains it
// through the TargetPM's per-tenant force-drain valve: with the valve at
// w < hostWindow, the tenant's queue releases at depth w and the effective
// window becomes min(hostWindow, w). At the static bound the controller
// clears its overrides entirely — hands-off means bit-identical to the
// uncontrolled target.
//
// Threading mirrors the PM it drives: a Controller is owned by one reactor
// shard and is not synchronized; only the Signal (the LS observation
// stream, fed from every shard and from LS completions) is thread-safe.
package autotune

import (
	"fmt"
	"sync/atomic"

	"nvmeopf/internal/core"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/telemetry"
)

// Actuator is what a controller drives: the per-tenant window valve and
// admission cap of a target-side priority manager. *core.TargetPM
// implements it.
type Actuator interface {
	SetTenantWindow(t proto.TenantID, w int)
	SetTenantCap(t proto.TenantID, c int)
}

// Signal is the shared LS observation stream: thread-safe counters and a
// histogram of latency-sensitive service latencies against one objective.
// On a sharded target every shard's controller reads the same Signal, so
// a TC tenant on shard 0 backs off for LS pain inflicted on shard 3 — the
// device and NIC they contend on are target-wide.
type Signal struct {
	objective atomic.Int64
	good      atomic.Int64
	bad       atomic.Int64
	e2eGood   atomic.Int64
	e2eBad    atomic.Int64
	hist      stats.AtomicHistogram
}

// NewSignal creates a signal judging observations against objectiveNS.
func NewSignal(objectiveNS int64) *Signal {
	s := &Signal{}
	s.objective.Store(objectiveNS)
	return s
}

// Observe records one LS service latency (negative samples are ignored).
func (s *Signal) Observe(latNS int64) {
	if latNS < 0 {
		return
	}
	s.hist.Record(latNS)
	if latNS > s.objective.Load() {
		s.bad.Add(1)
	} else {
		s.good.Add(1)
	}
}

// Counts returns the cumulative within/over-objective sample counts.
func (s *Signal) Counts() (good, bad int64) { return s.good.Load(), s.bad.Load() }

// ObserveE2E adds host-observed end-to-end within/over-objective counts
// (from TelemetryUpdate deltas, judged against the e2e objective at the
// merge site). Thread-safe; inert unless a controller runs with Config.E2E.
func (s *Signal) ObserveE2E(good, bad int64) {
	if good > 0 {
		s.e2eGood.Add(good)
	}
	if bad > 0 {
		s.e2eBad.Add(bad)
	}
}

// E2ECounts returns the cumulative e2e within/over-objective counts.
func (s *Signal) E2ECounts() (good, bad int64) { return s.e2eGood.Load(), s.e2eBad.Load() }

// Snapshot copies the latency histogram for interval-quantile math.
func (s *Signal) Snapshot() *stats.Histogram { return s.hist.Snapshot() }

// The control law's fixed thresholds.
const (
	// burnShrink / burnGrow bound the hysteresis band: interval burn
	// above burnShrink halves the window (multiplicative back-off), below
	// burnGrow allows additive growth, and the band between them holds —
	// the damping that keeps the loop from oscillating around the
	// threshold.
	burnShrink = 1.0
	burnGrow   = 0.5
	// growFill gates growth on achieved drain occupancy: windows only grow
	// when the mean completed batch filled at least this fraction of the
	// current window — a tenant whose batches run small gains nothing from
	// a larger valve.
	growFill = 0.5
	// dryIntervals is how many consecutive zero-sample intervals release a
	// tenant to the static bounds. A streak of truly empty intervals means
	// the LS signal is gone — no one is left to protect — which is the one
	// cold condition that should clear the overrides.
	dryIntervals = 3
)

// Config parameterizes a controller. The zero values of everything but
// ObjectiveNS select the documented defaults.
type Config struct {
	// ObjectiveNS is the LS latency objective the signal is judged
	// against (required, > 0). Target-side controllers observe service
	// latency (arrival to completion at the target), which excludes the
	// fabric round trip — set it accordingly tighter than an end-to-end
	// SLO.
	ObjectiveNS int64
	// BudgetPPM is the error budget: LS observations per million allowed
	// over the objective (default 1000, i.e. a 99.9% target). The burn
	// rate is the observed violation fraction over this budget; burn 1
	// consumes the budget exactly as fast as it accrues.
	BudgetPPM int64
	// MinWindow / MaxWindow clamp the controlled window. MaxWindow is the
	// static formula's value for the deployment (core.OptimalWindow);
	// at MaxWindow the controller clears its overrides entirely, so cold
	// or healthy tenants run today's static behavior bit-identically.
	// Defaults 1 / 32.
	MinWindow int
	MaxWindow int
	// GrowStep is the additive increase per grow decision (default 2).
	GrowStep int
	// GrowIntervals is how many consecutive healthy intervals a tenant
	// must string together before each grow step (default 1: grow on
	// the first healthy verdict). Raising it discriminates transient
	// health inside an oscillating overload — where a back-off briefly
	// clears the burn it caused — from a genuinely lightened load:
	// only the latter sustains a streak.
	GrowIntervals int
	// GrowQuietNS is the controller-wide minimum spacing between grow
	// decisions across all tenants (default 0: none; requires Clock).
	// Constrained tenants sharing one bottleneck all see it clear at
	// once, and a synchronized release re-floods it in a single step —
	// the spacing serializes release so each probe's impact lands in
	// the signal before the next tenant may follow.
	GrowQuietNS int64
	// CapFactor sets the admission-cap override to CapFactor × window
	// while the controller is constraining a tenant (default 8; negative
	// leaves admission caps untouched). Shrinking the window without
	// capping pending lets a tenant hold the same backlog in more,
	// smaller windows; the cap converts back-off into real admission
	// push-back.
	CapFactor int
	// CooldownDrains is how many drain completions a tenant accumulates
	// between decisions (default 8): the decision interval, and the
	// second half of the oscillation damping (an actuation must be
	// observed before the next one).
	CooldownDrains int
	// MinSamples is the minimum LS observations an interval needs for a
	// verdict (default 32). Below it the tenant is cold: the controller
	// holds its current actuation rather than acting on noise. Holding —
	// not releasing — matters: back-off itself thins the tenant's decision
	// intervals (a constrained tenant drains less often), so a release on
	// sparseness would teleport every constrained tenant back to the
	// static bound and undo the back-off it just earned.
	MinSamples int64
	// E2E folds the host-observed end-to-end term into the control law:
	// within/over-objective counts fed through Signal.ObserveE2E join each
	// decision, and the effective burn is the worse of the service and e2e
	// burn rates. Off (the default) the law reads only the service signal
	// and is bit-identical to a build without the feedback channel — e2e
	// counts may still accumulate, they just never influence a decision.
	E2E bool
	// E2EObjectiveNS is the end-to-end latency objective host observations
	// are judged against at the merge site (default: ObjectiveNS). An e2e
	// objective normally sits above the service objective by the expected
	// fabric round trip.
	E2EObjectiveNS int64
	// Clock stamps decisions (nanoseconds; virtual clocks work). Nil
	// stamps zero.
	Clock func() int64
	// Telemetry receives per-decision records for /debug/autotune. Nil
	// disables.
	Telemetry *telemetry.Registry
	// Signal is the LS observation stream. Nil creates a private one
	// with ObjectiveNS; a sharded deployment shares one Signal across
	// its per-shard controllers.
	Signal *Signal
}

// withDefaults fills the documented defaults.
func (cfg Config) withDefaults() Config {
	if cfg.BudgetPPM <= 0 {
		cfg.BudgetPPM = 1000
	}
	if cfg.MinWindow <= 0 {
		cfg.MinWindow = 1
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 32
	}
	if cfg.GrowStep <= 0 {
		cfg.GrowStep = 2
	}
	if cfg.GrowIntervals <= 0 {
		cfg.GrowIntervals = 1
	}
	switch {
	case cfg.CapFactor == 0:
		cfg.CapFactor = 8
	case cfg.CapFactor < 0:
		cfg.CapFactor = 0 // caps disabled
	}
	if cfg.CooldownDrains <= 0 {
		cfg.CooldownDrains = 8
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 32
	}
	if cfg.E2EObjectiveNS <= 0 {
		cfg.E2EObjectiveNS = cfg.ObjectiveNS
	}
	return cfg
}

// BudgetPPMForTarget converts a compliance target (the fraction of LS
// observations that must meet the objective, e.g. 0.999) to an error
// budget in parts per million (opf-target's -slo-target). Out-of-range
// targets select the 99.9% default.
func BudgetPPMForTarget(target float64) int64 {
	if target <= 0 || target >= 1 {
		return 1000
	}
	ppm := int64((1 - target) * 1e6)
	if ppm < 1 {
		ppm = 1
	}
	return ppm
}

// tenantState is one tenant's loop state between decisions.
type tenantState struct {
	window      int
	drains      int   // drain completions since the last decision
	fillSum     int   // sum of completed batch sizes since the last decision
	lastGood    int64 // signal counters at the last decision
	lastBad     int64
	lastE2EGood int64 // e2e signal counters at the last decision
	lastE2EBad  int64
	lastHist    *stats.Histogram
	primed      bool // baseline counters captured
	dry         int  // consecutive zero-sample decision intervals
	healthy     int  // consecutive healthy grow-eligible intervals
}

// Controller is one shard's feedback loop. Not synchronized: drive it from
// the reactor that owns the shard's TargetPM (OnDrainComplete arrives via
// the PM's drain hook, which already runs there). ObserveLS is the one
// exception — it only touches the thread-safe Signal, so completions on
// other execution contexts may feed it directly.
type Controller struct {
	cfg      Config
	sig      *Signal
	act      Actuator
	tenants  map[proto.TenantID]*tenantState
	lastGrow int64 // clock at the most recent grow decision, any tenant
	grown    bool  // a grow has happened (lastGrow is meaningful)
}

// New creates a controller. ObjectiveNS must be positive and the window
// bounds sane.
func New(cfg Config) (*Controller, error) {
	if cfg.ObjectiveNS <= 0 {
		return nil, fmt.Errorf("autotune: objective %dns, want > 0", cfg.ObjectiveNS)
	}
	cfg = cfg.withDefaults()
	if cfg.MinWindow > cfg.MaxWindow {
		return nil, fmt.Errorf("autotune: min window %d > max %d", cfg.MinWindow, cfg.MaxWindow)
	}
	sig := cfg.Signal
	if sig == nil {
		sig = NewSignal(cfg.ObjectiveNS)
	}
	return &Controller{cfg: cfg, sig: sig, tenants: make(map[proto.TenantID]*tenantState)}, nil
}

// Bind attaches the actuator the decisions drive (the shard's TargetPM).
func (c *Controller) Bind(act Actuator) { c.act = act }

// Signal returns the controller's LS observation stream (for sharing
// across shards, or feeding from tests).
func (c *Controller) Signal() *Signal { return c.sig }

// ObserveLS records one LS service latency into the signal. Thread-safe.
func (c *Controller) ObserveLS(latNS int64) { c.sig.Observe(latNS) }

// ObserveE2E feeds host-observed e2e within/over-objective counts into
// the signal. Thread-safe; the control law ignores them unless Config.E2E
// is set.
func (c *Controller) ObserveE2E(good, bad int64) { c.sig.ObserveE2E(good, bad) }

// E2EEnabled reports whether the e2e term participates in decisions.
func (c *Controller) E2EEnabled() bool { return c.cfg.E2E }

// E2EObjectiveNS returns the objective e2e observations are judged
// against (for the merge site that splits deltas into good/bad).
func (c *Controller) E2EObjectiveNS() int64 { return c.cfg.E2EObjectiveNS }

// WindowFor returns the controller's current window for a tenant
// (MaxWindow — the static bound — for tenants it has never decided on).
func (c *Controller) WindowFor(t proto.TenantID) int {
	if st, ok := c.tenants[t]; ok {
		return st.window
	}
	return c.cfg.MaxWindow
}

// Forget drops a tenant's loop state and clears its actuator overrides
// (session teardown: the tenant ID may be recycled).
func (c *Controller) Forget(t proto.TenantID) {
	delete(c.tenants, t)
	if c.act != nil {
		c.act.SetTenantWindow(t, 0)
		c.act.SetTenantCap(t, 0)
	}
}

// OnDrainComplete feeds one completed window into the loop; wire it to
// core.TargetPM.SetDrainHook. Every CooldownDrains completions per tenant
// it takes a decision over the interval since the tenant's last one.
func (c *Controller) OnDrainComplete(dc core.DrainCompletion) {
	if dc.Scavenger {
		// Scavenger windows drain from leftover capacity by design: their
		// occupancy is a free-capacity signal, never a burn or fill
		// signal. Feeding them into the loop would let background drains
		// prime baselines or trigger decisions for a foreground class
		// that never drained.
		return
	}
	st, ok := c.tenants[dc.Tenant]
	if !ok {
		st = &tenantState{window: c.cfg.MaxWindow}
		c.tenants[dc.Tenant] = st
	}
	if !st.primed {
		// Baseline the signal counters at first sight so the first
		// decision judges this tenant's own interval, not history from
		// before it connected.
		st.lastGood, st.lastBad = c.sig.Counts()
		st.lastE2EGood, st.lastE2EBad = c.sig.E2ECounts()
		st.lastHist = c.sig.Snapshot()
		st.primed = true
	}
	st.drains++
	st.fillSum += dc.Window
	if st.drains < c.cfg.CooldownDrains {
		return
	}
	c.decide(dc.Tenant, st)
	st.drains = 0
	st.fillSum = 0
}

// decide runs the control law over the interval since the tenant's last
// decision and actuates + records the outcome.
func (c *Controller) decide(t proto.TenantID, st *tenantState) {
	good, bad := c.sig.Counts()
	dGood, dBad := good-st.lastGood, bad-st.lastBad
	samples := dGood + dBad
	cur := c.sig.Snapshot()
	p99 := int64(-1) // no LS sample in the interval
	if d := cur.Since(st.lastHist); d.Count() > 0 {
		p99 = d.P99()
	}
	fill := float64(st.fillSum) / float64(st.drains*st.window)
	burn := -1.0
	if samples > 0 {
		violFrac := float64(dBad) / float64(samples)
		burn = violFrac / (float64(c.cfg.BudgetPPM) / 1e6)
	}
	eGood, eBad := c.sig.E2ECounts()
	e2eTag := ""
	if c.cfg.E2E {
		// Fold the host-observed term in: the effective burn is the worse
		// of the two signals, so an egress-only bottleneck — invisible to
		// service latency by construction — still triggers back-off.
		dEGood, dEBad := eGood-st.lastE2EGood, eBad-st.lastE2EBad
		if eSamples := dEGood + dEBad; eSamples > 0 {
			eBurn := (float64(dEBad) / float64(eSamples)) / (float64(c.cfg.BudgetPPM) / 1e6)
			if eBurn > burn {
				burn = eBurn
				e2eTag = " [e2e]"
			}
			samples += eSamples
		}
	}

	prev := st.window
	if samples > 0 {
		st.dry = 0
	}
	var now int64
	if c.cfg.Clock != nil {
		now = c.cfg.Clock()
	}
	var action, reason string
	switch {
	case samples == 0:
		// Quiet interval: indistinguishable noise or a vanished signal.
		// Hold until a streak proves there is no LS traffic to protect,
		// then release to the static formula's behavior.
		st.dry++
		action = "cold"
		if st.dry >= dryIntervals {
			st.window = c.cfg.MaxWindow
			reason = fmt.Sprintf("no LS samples for %d intervals: static bounds apply", st.dry)
		} else {
			reason = fmt.Sprintf("no LS samples (dry %d/%d): holding %d", st.dry, dryIntervals, st.window)
		}
	case samples < c.cfg.MinSamples:
		// Sparse: too few samples for a verdict, but the signal is alive.
		// Hold the current actuation — back-off thins these very intervals.
		action = "cold"
		reason = fmt.Sprintf("%d LS samples < %d: holding %d", samples, c.cfg.MinSamples, st.window)
	case burn > burnShrink:
		st.healthy = 0
		st.window = prev / 2
		if st.window < c.cfg.MinWindow {
			st.window = c.cfg.MinWindow
		}
		if st.window < prev {
			action = "shrink"
			reason = fmt.Sprintf("burn %.2f > %.2f: multiplicative back-off%s", burn, burnShrink, e2eTag)
		} else {
			action = "hold"
			reason = fmt.Sprintf("burn %.2f > %.2f at floor %d%s", burn, burnShrink, c.cfg.MinWindow, e2eTag)
		}
	case burn < burnGrow && st.window < c.cfg.MaxWindow && fill >= growFill:
		st.healthy++
		switch {
		case st.healthy < c.cfg.GrowIntervals:
			action = "hold"
			reason = fmt.Sprintf("burn %.2f healthy %d/%d intervals: patience before growth", burn, st.healthy, c.cfg.GrowIntervals)
		case c.cfg.GrowQuietNS > 0 && c.grown && now-c.lastGrow < c.cfg.GrowQuietNS:
			// Streak complete but another tenant released recently; wait
			// for its impact to land in the signal. The streak carries
			// over, so this tenant grows at its first decision after the
			// quiet period.
			action = "hold"
			reason = fmt.Sprintf("healthy, %.1fms grow-quiet remaining after a release elsewhere", float64(c.cfg.GrowQuietNS-(now-c.lastGrow))/1e6)
		default:
			st.healthy = 0
			st.window = prev + c.cfg.GrowStep
			if st.window > c.cfg.MaxWindow {
				st.window = c.cfg.MaxWindow
			}
			c.lastGrow, c.grown = now, true
			action = "grow"
			reason = fmt.Sprintf("burn %.2f < %.2f, fill %.2f: additive grow", burn, burnGrow, fill)
		}
	default:
		action = "hold"
		switch {
		case st.window >= c.cfg.MaxWindow:
			reason = fmt.Sprintf("burn %.2f healthy at static bound %d", burn, c.cfg.MaxWindow)
		case burn >= burnGrow:
			st.healthy = 0
			reason = fmt.Sprintf("burn %.2f inside hysteresis band [%.2f, %.2f]", burn, burnGrow, burnShrink)
		default:
			reason = fmt.Sprintf("fill %.2f < %.2f: window not earning growth", fill, growFill)
		}
	}

	capv := c.apply(t, st.window)
	st.lastGood, st.lastBad = good, bad
	st.lastE2EGood, st.lastE2EBad = eGood, eBad
	st.lastHist = cur
	c.cfg.Telemetry.RecordAutotune(telemetry.AutotuneDecision{
		Tenant:     t,
		Action:     action,
		Window:     st.window,
		PrevWindow: prev,
		Cap:        capv,
		BurnRate:   burn,
		LSP99NS:    p99,
		Fill:       fill,
		Samples:    samples,
		Reason:     reason,
		At:         now,
	})
}

// apply actuates one tenant's window, returning the cap it set (0 when
// admission caps are untouched). At the static bound the overrides clear:
// a controller with nothing to say must leave no fingerprints.
func (c *Controller) apply(t proto.TenantID, w int) int {
	if c.act == nil {
		return 0
	}
	if w >= c.cfg.MaxWindow {
		c.act.SetTenantWindow(t, 0)
		c.act.SetTenantCap(t, 0)
		return 0
	}
	c.act.SetTenantWindow(t, w)
	capv := 0
	if c.cfg.CapFactor > 0 {
		capv = w * c.cfg.CapFactor
	}
	c.act.SetTenantCap(t, capv)
	return capv
}
