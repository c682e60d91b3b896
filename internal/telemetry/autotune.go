package telemetry

import (
	"sort"

	"nvmeopf/internal/proto"
)

// autotuneLogCap bounds the autotune decision log (cold path, mutex
// guarded — one entry per controller decision, never per request).
const autotuneLogCap = 128

// AutotuneActions is the fixed action vocabulary of the adaptive
// drain-window controller, in the order the Prometheus exposition emits
// the per-action decision counters.
var AutotuneActions = []string{"shrink", "grow", "hold", "cold"}

// AutotuneDecision is one adaptive-controller verdict: what the
// controller did to a tenant's drain window and why. Field order is the
// JSON order served on /debug/autotune (golden-tested — append only).
type AutotuneDecision struct {
	Tenant proto.TenantID `json:"tenant"`
	// Action is one of AutotuneActions: "shrink" (multiplicative
	// back-off), "grow" (release to the static bound), "hold" (hysteresis
	// band or bound), "cold" (too few LS samples: the window holds, and a
	// streak of empty intervals releases it to the static bound).
	Action     string `json:"action"`
	Window     int    `json:"window"`
	PrevWindow int    `json:"prev_window"`
	// Cap is the limit set on the tenant, which binds as both its valve and
	// its admission cap: the window, or 0 when cleared at the bound.
	Cap int `json:"cap"`
	// BurnRate is the interval LS error-budget burn that drove the
	// decision (-1: no samples).
	BurnRate float64 `json:"burn_rate"`
	// Fill is mean achieved batch size over the window (drain occupancy).
	Fill float64 `json:"fill"`
	// Samples is the LS observation count in the decision interval.
	Samples int64  `json:"samples"`
	Reason  string `json:"reason"`
	At      int64  `json:"at"`
	Seq     uint64 `json:"seq"`
}

// AutotuneTenantState is one tenant's current controller state for
// /debug/autotune: live window/cap, decision counts, and the last verdict.
type AutotuneTenantState struct {
	Tenant uint16 `json:"tenant"`
	Window int    `json:"window"`
	Cap    int    `json:"cap"`
	// Decisions counts verdicts per action, in AutotuneActions order.
	Decisions []int64          `json:"decisions"`
	Last      AutotuneDecision `json:"last"`
}

// autotuneTenant is the registry's mutable per-tenant controller state.
type autotuneTenant struct {
	window int
	cap    int
	counts [4]int64 // AutotuneActions order
	last   AutotuneDecision
}

// actionIndex maps an action to its AutotuneActions slot (-1: unknown).
func actionIndex(a string) int {
	for i, s := range AutotuneActions {
		if s == a {
			return i
		}
	}
	return -1
}

// RecordAutotune appends one adaptive-controller decision to the
// /debug/autotune log and updates the tenant's live state. Cold path.
func (r *Registry) RecordAutotune(d AutotuneDecision) {
	if r == nil {
		return
	}
	r.atMu.Lock()
	defer r.atMu.Unlock()
	r.atSeq++
	d.Seq = r.atSeq
	if len(r.atLog) < autotuneLogCap {
		r.atLog = append(r.atLog, d)
	} else {
		r.atLog[r.atPos] = d
		r.atPos = (r.atPos + 1) % autotuneLogCap
	}
	if r.atState == nil {
		r.atState = make(map[uint16]*autotuneTenant)
	}
	st, ok := r.atState[uint16(d.Tenant)]
	if !ok {
		st = &autotuneTenant{}
		r.atState[uint16(d.Tenant)] = st
	}
	st.window = d.Window
	st.cap = d.Cap
	if i := actionIndex(d.Action); i >= 0 {
		st.counts[i]++
	}
	st.last = d
}

// AutotuneLog returns the retained decisions, oldest first.
func (r *Registry) AutotuneLog() []AutotuneDecision {
	if r == nil {
		return nil
	}
	r.atMu.Lock()
	defer r.atMu.Unlock()
	out := make([]AutotuneDecision, 0, len(r.atLog))
	out = append(out, r.atLog[r.atPos:]...)
	out = append(out, r.atLog[:r.atPos]...)
	return out
}

// AutotuneStates returns every controlled tenant's current state, in
// tenant order (deterministic for golden tests and /debug/autotune).
func (r *Registry) AutotuneStates() []AutotuneTenantState {
	if r == nil {
		return nil
	}
	r.atMu.Lock()
	defer r.atMu.Unlock()
	out := make([]AutotuneTenantState, 0, len(r.atState))
	for t, st := range r.atState {
		out = append(out, AutotuneTenantState{
			Tenant:    t,
			Window:    st.window,
			Cap:       st.cap,
			Decisions: append([]int64(nil), st.counts[:]...),
			Last:      st.last,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
