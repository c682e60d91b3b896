// Package autotune closes the control loop the paper's §IV-D window
// formula leaves open: a per-shard feedback controller that, every 8 drain
// completions of a tenant, re-computes the tenant's TC drain window from
// the observed latency-sensitive signal — SLO burn rate and drain
// occupancy. The law is QWin-style (PAPERS.md) and has one
// parameterization: burn above 1 halves the window (multiplicative
// back-off, floored at MinWindow), and the window also caps admission;
// four consecutive intervals with burn below 0.5 and windows at
// least half full release the tenant straight back to its bound, at most
// one release per 20 ms across the controller's tenants; anything else
// holds, as does an interval with fewer than 2 LS samples. Cold or healthy
// tenants sit at their bound, so the controller degrades to today's
// behavior when telemetry is cold.
//
// Each tenant's bound is the drain window its host declared in the
// handshake (Open). Actuation is target-side only. The drain window proper
// is chosen by the host (HostPM stamps the draining flag), so the
// controller constrains it through the TargetPM's per-tenant limit: with
// the limit at w below the host's window, the tenant's queue releases at
// depth w and admission refuses it past w pending. At the bound the
// controller clears the limit — hands-off means bit-identical to the
// uncontrolled target. A tenant that declares no window (a peer built
// before hosts declared one) is never constrained.
//
// Threading mirrors the PM it drives: a Controller is owned by one reactor
// shard and is not synchronized; only the Signal (the LS observation
// counts, fed from every shard and from LS completions) is thread-safe.
package autotune

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nvmeopf/internal/core"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/telemetry"
)

// Actuator is what a controller drives: the per-tenant limit of a
// target-side priority manager, which binds as both its force-drain valve
// and its admission cap (0 clears it). *core.TargetPM implements it.
type Actuator interface {
	SetTenantLimit(t proto.TenantID, n int)
}

// Signal is the shared LS observation stream: thread-safe counts of
// latency-sensitive service latencies within and over one objective. On a
// sharded target every shard's controller reads the same Signal, so a TC
// tenant on shard 0 backs off for LS pain inflicted on shard 3 — the
// device and NIC they contend on are target-wide.
type Signal struct {
	objective int64
	good      atomic.Int64
	bad       atomic.Int64
	e2eGood   atomic.Int64
	e2eBad    atomic.Int64
}

// NewSignal creates a signal judging observations against objectiveNS.
func NewSignal(objectiveNS int64) *Signal { return &Signal{objective: objectiveNS} }

// Observe records one LS service latency (negative samples are ignored).
func (s *Signal) Observe(latNS int64) {
	if latNS < 0 {
		return
	}
	if latNS > s.objective {
		s.bad.Add(1)
	} else {
		s.good.Add(1)
	}
}

// Counts returns the cumulative within/over-objective sample counts.
func (s *Signal) Counts() (good, bad int64) { return s.good.Load(), s.bad.Load() }

// ObserveE2E adds host-observed end-to-end within/over-objective counts
// (Controller.ObserveE2E judges TelemetryUpdate deltas against the
// objective). Thread-safe; inert unless a controller runs with Config.E2E.
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

// The control law's constants. The decision interval, the sample gate, the
// cap and the grow rules are the values the simulator's shiftmix and
// e2egap experiments verify (EXPERIMENTS.md); they are not configurable,
// so every deployment runs the one measured law.
const (
	// burnShrink / burnGrow bound the hysteresis band: interval burn
	// above burnShrink halves the window (multiplicative back-off), below
	// burnGrow allows growth, and the band between them holds — the
	// damping that keeps the loop from oscillating around the threshold.
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
	// cold condition that should clear the limit.
	dryIntervals = 3
	// cooldownDrains is how many drain completions a tenant accumulates
	// between decisions: the decision interval, and the second half of the
	// oscillation damping (an actuation must be observed before the next
	// one).
	cooldownDrains = 8
	// minSamples is the fewest LS observations an interval needs for a
	// verdict. Below it the tenant is cold: the controller holds its
	// current actuation rather than acting on noise. Holding — not
	// releasing — matters: back-off itself thins the tenant's decision
	// intervals (a constrained tenant drains less often), so a release on
	// sparseness would teleport every constrained tenant back to the static
	// bound and undo the back-off it just earned. It is low because the LS
	// signal may be a single QD-1 tenant: a couple of unanimous
	// observations per interval is the best signal there is.
	minSamples = 2
	// growIntervals is how many consecutive healthy intervals a tenant
	// strings together before it grows. Patience discriminates transient
	// health inside an oscillating overload — where a back-off briefly
	// clears the burn it caused — from a genuinely lightened load: only
	// the latter sustains a streak.
	growIntervals = 4
	// growQuietNS is the controller-wide minimum spacing between grow
	// decisions across all tenants. Constrained tenants sharing one
	// bottleneck all see it clear at once, and a synchronized release
	// re-floods it in a single step; the spacing serializes release so
	// each grow's impact lands in the signal before the next tenant may
	// follow.
	growQuietNS = 20_000_000
)

// Config is what a deployment sets: its objective and budget, the window
// floor, the e2e term, and the signal. The zero values of everything but
// ObjectiveNS select the documented defaults. The ceiling is not set here:
// each tenant's is the window its host declares (Controller.Open).
type Config struct {
	// ObjectiveNS is the LS latency objective both terms of the law are
	// judged against (required, > 0): the target-side service latency
	// (arrival to completion at the target) and, with E2E, the
	// host-observed end-to-end latency.
	ObjectiveNS int64
	// BudgetPPM is the error budget: LS observations per million allowed
	// over the objective (default 1000, i.e. a 99.9% target). The burn
	// rate is the observed violation fraction over this budget; burn 1
	// consumes the budget exactly as fast as it accrues.
	BudgetPPM int64
	// MinWindow floors the controlled window (default 1). A tenant whose
	// declared window is smaller is floored at its own window instead.
	MinWindow int
	// E2E folds the host-observed end-to-end term into the control law:
	// LS class deltas fed through Controller.ObserveE2E join each
	// decision, and the effective burn is the worse of the service and e2e
	// burn rates. Off (the default) the law reads only the service signal
	// and is bit-identical to a build without the feedback channel.
	E2E bool
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
	bound       int // the window the tenant's host declared
	window      int
	drains      int   // drain completions since the last decision
	fillSum     int   // sum of completed batch sizes since the last decision
	lastGood    int64 // signal counters at the last decision
	lastBad     int64
	lastE2EGood int64 // e2e signal counters at the last decision
	lastE2EBad  int64
	primed      bool // baseline counters captured
	dry         int  // consecutive zero-sample decision intervals
	healthy     int  // consecutive healthy grow-eligible intervals
}

// Controller is one shard's feedback loop. Not synchronized: drive it from
// the reactor that owns the shard's TargetPM (OnDrainComplete arrives via
// the PM's drain hook, and Open from the handshake, both already there).
// ObserveLS is the one exception — it only touches the thread-safe Signal,
// so completions on other execution contexts may feed it directly.
type Controller struct {
	cfg      Config
	sig      *Signal
	act      Actuator
	clock    func() int64
	tel      *telemetry.Registry
	tenants  map[proto.TenantID]*tenantState
	lastGrow int64 // clock at the most recent grow decision, any tenant
	grown    bool  // a grow has happened (lastGrow is meaningful)
}

// New creates a controller whose decisions drive act (the shard's
// TargetPM), are stamped by clock (nanoseconds; virtual clocks work) and
// are recorded in tel for /debug/autotune (nil disables). ObjectiveNS must
// be positive, act set, and clock set: the grow-quiet rule spaces grows in
// time.
func New(cfg Config, act Actuator, clock func() int64, tel *telemetry.Registry) (*Controller, error) {
	if cfg.ObjectiveNS <= 0 {
		return nil, fmt.Errorf("autotune: objective %dns, want > 0", cfg.ObjectiveNS)
	}
	if act == nil {
		return nil, errors.New("autotune: nil actuator")
	}
	if clock == nil {
		return nil, errors.New("autotune: nil clock (the grow-quiet rule needs one)")
	}
	cfg = cfg.withDefaults()
	sig := cfg.Signal
	if sig == nil {
		sig = NewSignal(cfg.ObjectiveNS)
	}
	return &Controller{cfg: cfg, sig: sig, act: act, clock: clock, tel: tel, tenants: make(map[proto.TenantID]*tenantState)}, nil
}

// Signal returns the controller's LS observation stream (for sharing
// across shards, or feeding from tests).
func (c *Controller) Signal() *Signal { return c.sig }

// ObserveLS records one LS service latency into the signal. Thread-safe.
func (c *Controller) ObserveLS(latNS int64) { c.sig.Observe(latNS) }

// ObserveE2E feeds one host TelemetryUpdate into the e2e term: each
// latency-sensitive class delta is judged against ObjectiveNS and its
// within/over counts join the signal. Only the LS classes count — the e2e
// term protects the same traffic the service term does. Without
// Config.E2E it does nothing. Thread-safe.
func (c *Controller) ObserveE2E(u *proto.TelemetryUpdate) {
	if !c.cfg.E2E {
		return
	}
	for i := range u.Classes {
		if cd := &u.Classes[i]; cd.Class.LatencySensitive() {
			c.sig.ObserveE2E(telemetry.ClassDeltaGoodBad(cd, c.cfg.ObjectiveNS))
		}
	}
}

// Open starts controlling a tenant whose host declared window w in its
// handshake: w is the tenant's bound, the window it grows back to and at
// which its limit clears. A tenant that declares 0 is never controlled.
// Open pairs with Forget at teardown.
func (c *Controller) Open(t proto.TenantID, w int) {
	if w <= 0 {
		return
	}
	c.tenants[t] = &tenantState{bound: w, window: w}
}

// WindowFor returns the controller's current window for a tenant: its
// bound until a decision moves it, 0 for a tenant it does not control.
func (c *Controller) WindowFor(t proto.TenantID) int {
	if st, ok := c.tenants[t]; ok {
		return st.window
	}
	return 0
}

// Forget drops a tenant's loop state and clears its limit (session
// teardown: the tenant ID may be recycled).
func (c *Controller) Forget(t proto.TenantID) {
	delete(c.tenants, t)
	c.act.SetTenantLimit(t, 0)
}

// OnDrainComplete feeds one completed window into the loop; wire it to
// core.TargetPM.SetDrainHook. Every cooldownDrains completions per tenant
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
		return // declared no window: never constrained
	}
	if !st.primed {
		// Baseline the signal counters at first sight so the first
		// decision judges this tenant's own interval, not history from
		// before it connected.
		st.lastGood, st.lastBad = c.sig.Counts()
		st.lastE2EGood, st.lastE2EBad = c.sig.E2ECounts()
		st.primed = true
	}
	st.drains++
	st.fillSum += dc.Window
	if st.drains < cooldownDrains {
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
	now := c.clock()
	var action, reason string
	switch {
	case samples == 0:
		// Quiet interval: indistinguishable noise or a vanished signal.
		// Hold until a streak proves there is no LS traffic to protect,
		// then release to the static formula's behavior.
		st.dry++
		action = "cold"
		if st.dry >= dryIntervals {
			st.window = st.bound
			reason = fmt.Sprintf("no LS samples for %d intervals: static bounds apply", st.dry)
		} else {
			reason = fmt.Sprintf("no LS samples (dry %d/%d): holding %d", st.dry, dryIntervals, st.window)
		}
	case samples < minSamples:
		// Sparse: too few samples for a verdict, but the signal is alive.
		// Hold the current actuation — back-off thins these very intervals.
		action = "cold"
		reason = fmt.Sprintf("%d LS samples < %d: holding %d", samples, minSamples, st.window)
	case burn > burnShrink:
		st.healthy = 0
		floor := min(c.cfg.MinWindow, st.bound)
		st.window = max(prev/2, floor)
		if st.window < prev {
			action = "shrink"
			reason = fmt.Sprintf("burn %.2f > %.2f: multiplicative back-off%s", burn, burnShrink, e2eTag)
		} else {
			action = "hold"
			reason = fmt.Sprintf("burn %.2f > %.2f at floor %d%s", burn, burnShrink, floor, e2eTag)
		}
	case burn < burnGrow && st.window < st.bound && fill >= growFill:
		st.healthy++
		switch {
		case st.healthy < growIntervals:
			action = "hold"
			reason = fmt.Sprintf("burn %.2f healthy %d/%d intervals: patience before growth", burn, st.healthy, growIntervals)
		case c.grown && now-c.lastGrow < growQuietNS:
			// Streak complete but another tenant released recently; wait
			// for its impact to land in the signal. The streak carries
			// over, so this tenant grows at its first decision after the
			// quiet period.
			action = "hold"
			reason = fmt.Sprintf("healthy, %.1fms grow-quiet remaining after a release elsewhere", float64(growQuietNS-(now-c.lastGrow))/1e6)
		default:
			// Release straight to the static bound: the patience and the
			// quiet period already proved the load lightened, so there is
			// nothing to probe for in smaller steps.
			st.healthy = 0
			st.window = st.bound
			c.lastGrow, c.grown = now, true
			action = "grow"
			reason = fmt.Sprintf("burn %.2f < %.2f, fill %.2f: release to static bound", burn, burnGrow, fill)
		}
	default:
		action = "hold"
		switch {
		case st.window >= st.bound:
			reason = fmt.Sprintf("burn %.2f healthy at static bound %d", burn, st.bound)
		case burn >= burnGrow:
			st.healthy = 0
			reason = fmt.Sprintf("burn %.2f inside hysteresis band [%.2f, %.2f]", burn, burnGrow, burnShrink)
		default:
			reason = fmt.Sprintf("fill %.2f < %.2f: window not earning growth", fill, growFill)
		}
	}

	capv := c.apply(t, st)
	st.lastGood, st.lastBad = good, bad
	st.lastE2EGood, st.lastE2EBad = eGood, eBad
	c.tel.RecordAutotune(telemetry.AutotuneDecision{
		Tenant:     t,
		Action:     action,
		Window:     st.window,
		PrevWindow: prev,
		Cap:        capv,
		BurnRate:   burn,
		Fill:       fill,
		Samples:    samples,
		Reason:     reason,
		At:         now,
	})
}

// apply sets one tenant's limit to its window, returning the limit (0
// when cleared). At the tenant's bound the limit clears: a controller with
// nothing to say must leave no fingerprints.
func (c *Controller) apply(t proto.TenantID, st *tenantState) int {
	limit := st.window
	if limit >= st.bound {
		limit = 0
	}
	c.act.SetTenantLimit(t, limit)
	return limit
}
