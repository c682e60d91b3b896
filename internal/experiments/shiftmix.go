package experiments

import (
	"fmt"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
	"nvmeopf/internal/workload"
)

// The shifting-mix experiment: the tenant mix flips from 1 LS : 9 TC to
// 9 LS : 1 TC halfway through the run on a saturated 10 Gbps read
// deployment. No static drain window satisfies both halves — window size
// does not control admission pressure, so in phase A every static choice
// lets ~1150 outstanding TC requests queue ahead of the lone LS tenant
// (milliseconds of NIC backlog), and the static choices small enough to
// matter anywhere also forfeit TC throughput in phase B. The adaptive
// controller (internal/autotune) holds the LS SLO in phase A by backing
// the TC windows off to the floor and converting the back-off into
// admission caps, then releases the valves in phase B and restores full
// static-bound throughput.

// Shift-mix deployment constants. The end-to-end LS objective is
// deliberately looser than the controller's objective (shiftAutotune): the
// controller watches arrival-to-completion latency at the target, which
// excludes the fabric round trip and the host queue.
const (
	shiftGbps          = 10
	shiftLSObjectiveNS = 1_000_000 // end-to-end LS objective: 1 ms
	shiftLSBudgetPPM   = 50_000    // 95% compliance target
	shiftQDLS          = 1         // §V-A: LS tenants probe at queue depth 1
	shiftQDTC          = 128
	shiftWindowMax     = 32 // the static formula's choice for read@10G
	// shiftBusyBackoffNS paces capped tenants' resubmissions: 1 ms keeps
	// rejected closed loops from spending link on reject round trips.
	shiftBusyBackoffNS = 1_000_000
)

// shiftAutotune is the controller configuration the adaptive variant runs:
// a 250 µs service-side objective at a 98% compliance target and windows
// clamped to [4, the hosts' declared window]; the law itself (caps equal to the window,
// patient and serialized release to the static bound) is autotune's one
// parameterization. The objective is much tighter than the e2e SLO
// because the target-side signal excludes the egress NIC queue — the very
// thing that hurts LS under TC read pressure — so the controller must
// react while the service latency is still a fraction of the e2e
// objective. The release rules matter in phase B: the nine capped tenants
// all see the decongestion they jointly created, a synchronized release
// would re-flood the NIC in one step, and the lone surviving TC tenant
// pays one quiet period and one streak, then gets the full valve at once.
func shiftAutotune() *autotune.Config {
	return &autotune.Config{
		ObjectiveNS: 250_000,
		BudgetPPM:   20_000,
		MinWindow:   4,
	}
}

// ShiftPhase is one phase's measurements for one variant.
type ShiftPhase struct {
	LSBurn    float64 // error-budget burn against the e2e objective (-1: no samples)
	LSMeanNS  int64
	LSP99NS   int64
	LSSamples int64
	TCBps     float64
}

// ShiftResult is one variant (a static window, or the controller) run
// through the full shifting-mix scenario.
type ShiftResult struct {
	Label    string
	Window   int // host-chosen static window (the adaptive variant runs at the static bound)
	Adaptive bool
	A, B     ShiftPhase
	Busy     int64 // admission rejections absorbed by backoff, all tenants
	Shrinks  int64 // controller decisions (adaptive only)
	Grows    int64
}

// RunShiftMix runs one shifting-mix variant. Window is the host drain
// window for every TC initiator; at, when non-nil, attaches the adaptive
// controller to the target (per-node, virtual clock).
func RunShiftMix(cfg Config, label string, window int, at *autotune.Config) (ShiftResult, error) {
	prof, err := simcluster.ProfileFor(shiftGbps)
	if err != nil {
		return ShiftResult{}, err
	}
	// Decision counters come from the target's telemetry registry, which
	// the controller records into.
	reg := telemetry.New()
	cl := simcluster.New(simcluster.Options{
		Profile:   prof,
		Mode:      targetqp.ModeOPF,
		Seed:      cfg.Seed,
		Telemetry: reg,
		Autotune:  at,
	})
	if cfg.OnCluster != nil {
		cfg.OnCluster(cl)
	}

	warm := cfg.WarmupMillis * 1_000_000
	half := cfg.SimMillis * 1_000_000 / 2
	mid := warm + half
	stop := mid + half

	tn, err := cl.NewTargetNode("tgt", false)
	if err != nil {
		return ShiftResult{}, err
	}
	_ = tn

	deferAt := func(d int64, fn func()) { cl.Eng.At(cl.Eng.Now()+d, fn) }

	// Region slots: 1 phase-A LS + 8 phase-A-only TC + 1 full-run TC +
	// 9 phase-B LS, each initiator on its own node (the Fig. 7 fan-in).
	const slots = 19
	region := prof.SSD.Namespace.Capacity / slots
	slot := 0
	newNode := func() *simcluster.InitiatorNode {
		n := cl.NewInitiatorNode(fmt.Sprintf("ini%d", slot), tn)
		return n
	}
	lsSpec := func(startAt, warmFrom, stopAt int64) workload.Spec {
		s := workload.Spec{
			Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1,
			QueueDepth:  shiftQDLS,
			RegionStart: uint64(slot) * region, RegionBlocks: region,
			StartAt: startAt, WarmupUntil: warmFrom, StopAt: stopAt,
			SLOObjectiveNS: shiftLSObjectiveNS,
			Defer:          deferAt, BusyBackoffNS: shiftBusyBackoffNS,
			Seed: cfg.Seed + uint64(slot) + 7,
		}
		return s
	}
	tcSpec := func(stopAt int64) workload.Spec {
		return workload.Spec{
			Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1,
			QueueDepth:  shiftQDTC,
			RegionStart: uint64(slot) * region, RegionBlocks: region,
			WarmupUntil: warm, StopAt: stopAt,
			Defer: deferAt, BusyBackoffNS: shiftBusyBackoffNS,
			Seed: cfg.Seed + uint64(slot) + 31,
		}
	}
	connect := func(class proto.Priority, window, qd int) (*simcluster.Initiator, error) {
		ini, err := newNode().Connect(hostqp.Config{
			Class: class, Window: window, QueueDepth: qd, NSID: 1,
		})
		slot++
		return ini, err
	}
	runner := func(ini *simcluster.Initiator, spec workload.Spec) (*workload.Runner, error) {
		r, err := workload.NewRunner(ini.Session, cl.Eng.Now, spec)
		if err != nil {
			return nil, err
		}
		ini.Session.OnConnect(r.Kick)
		return r, nil
	}

	// Phase A cohort: one LS tenant against nine TC tenants.
	lsIni, err := connect(proto.PrioLatencySensitive, 1, shiftQDLS)
	if err != nil {
		return ShiftResult{}, err
	}
	lsA, err := runner(lsIni, lsSpec(0, warm, mid))
	if err != nil {
		return ShiftResult{}, err
	}
	var tcA []*workload.Runner
	for i := 0; i < 8; i++ {
		ini, err := connect(proto.PrioThroughputCritical, window, shiftQDTC)
		if err != nil {
			return ShiftResult{}, err
		}
		r, err := runner(ini, tcSpec(mid))
		if err != nil {
			return ShiftResult{}, err
		}
		tcA = append(tcA, r)
	}
	// The survivor TC tenant runs across the flip: phase B is 9 LS : 1 TC.
	tc0Ini, err := connect(proto.PrioThroughputCritical, window, shiftQDTC)
	if err != nil {
		return ShiftResult{}, err
	}
	tc0, err := runner(tc0Ini, tcSpec(stop))
	if err != nil {
		return ShiftResult{}, err
	}
	// Phase B cohort: nine LS tenants switch on at the flip. A scheduled
	// Kick re-enters each idle loop (connected sessions have no completion
	// to refill from).
	var lsB []*workload.Runner
	for i := 0; i < 9; i++ {
		ini, err := connect(proto.PrioLatencySensitive, 1, shiftQDLS)
		if err != nil {
			return ShiftResult{}, err
		}
		r, err := runner(ini, lsSpec(mid, mid, stop))
		if err != nil {
			return ShiftResult{}, err
		}
		lsB = append(lsB, r)
		cl.Eng.At(mid, r.Kick)
	}

	// Snapshot the survivor's counters at the flip to split its traffic
	// into per-phase throughput.
	var tc0Mid stats.Counter
	cl.Eng.At(mid, func() { tc0Mid = tc0.Result().Recorded })

	cl.Run()
	if err := cl.CheckHealthy(); err != nil {
		return ShiftResult{}, err
	}

	res := ShiftResult{Label: label, Window: window, Adaptive: at != nil}
	phaseSec := float64(half) / 1e9

	// Phase A: the lone LS tenant's SLO, and the nine TC tenants' aggregate.
	la := lsA.Result()
	res.A = ShiftPhase{
		LSBurn:    la.SLOBurn(shiftLSBudgetPPM),
		LSMeanNS:  int64(la.Latency.Mean()),
		LSP99NS:   la.Latency.P99(),
		LSSamples: la.Latency.Count(),
	}
	tcABytes := tc0Mid.Bytes
	for _, r := range tcA {
		tcABytes += r.Result().Recorded.Bytes
	}
	res.A.TCBps = float64(tcABytes) / phaseSec

	// Phase B: the nine LS tenants merged, and the survivor's remainder.
	var lat stats.Histogram
	var good, bad int64
	for _, r := range lsB {
		rr := r.Result()
		lat.Merge(&rr.Latency)
		good += rr.SLOGood
		bad += rr.SLOBad
	}
	res.B = ShiftPhase{
		LSBurn:    -1,
		LSMeanNS:  int64(lat.Mean()),
		LSP99NS:   lat.P99(),
		LSSamples: lat.Count(),
	}
	if total := good + bad; total > 0 {
		res.B.LSBurn = (float64(bad) / float64(total)) / (float64(shiftLSBudgetPPM) / 1e6)
	}
	res.B.TCBps = float64(tc0.Result().Recorded.Bytes-tc0Mid.Bytes) / phaseSec

	for _, r := range append(append([]*workload.Runner{lsA, tc0}, tcA...), lsB...) {
		res.Busy += r.Result().Busy
	}
	if at != nil {
		for _, st := range reg.AutotuneStates() {
			res.Shrinks += st.Decisions[0]
			res.Grows += st.Decisions[1]
		}
	}
	return res, nil
}

// ShiftMix regenerates the shifting-mix comparison: static windows across
// the useful range against the adaptive controller.
func ShiftMix(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "shiftmix",
		Title: "Shifting tenant mix (1:9 -> 9:1 LS:TC mid-run): static windows vs adaptive controller",
		Table: newFigTable("design", "window",
			"lsA_p99_us", "lsA_burn", "tcA_MB/s",
			"lsB_p99_us", "lsB_burn", "tcB_MB/s",
			"busy", "shrink", "grow"),
		PlotSpec: PlotSpec{ValueCol: "tcB_MB/s", LabelCols: []string{"design", "window"}},
	}
	variants := []struct {
		label  string
		window int
		at     *autotune.Config
	}{
		{"static", 1, nil},
		{"static", 8, nil},
		{"static", shiftWindowMax, nil},
		{"adaptive", shiftWindowMax, shiftAutotune()},
	}
	for _, v := range variants {
		r, err := RunShiftMix(cfg, v.label, v.window, v.at)
		if err != nil {
			return nil, err
		}
		rep.Table.AddRow(r.Label, fmt.Sprint(r.Window),
			usec(r.A.LSP99NS), burnStr(r.A.LSBurn), mbps(r.A.TCBps),
			usec(r.B.LSP99NS), burnStr(r.B.LSBurn), mbps(r.B.TCBps),
			fmt.Sprint(r.Busy), fmt.Sprint(r.Shrinks), fmt.Sprint(r.Grows))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("LS SLO: %d us end-to-end at %.1f%% compliance (burn < 1 meets it); phases are equal halves of the measured window",
			shiftLSObjectiveNS/1000, 100*(1-float64(shiftLSBudgetPPM)/1e6)),
		"window size alone cannot meet the phase-A SLO: admission pressure, not batch size, queues ahead of the LS tenant",
		"the controller's multiplicative back-off plus admission caps hold the SLO in phase A, then release to the static bound in phase B")
	return rep, nil
}

// burnStr renders a burn rate (-1: no samples).
func burnStr(b float64) string {
	if b < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", b)
}
