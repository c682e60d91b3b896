package experiments

import (
	"fmt"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/faultnet"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/simnet"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
	"nvmeopf/internal/workload"
)

// The e2e-gap experiment: an egress-only bottleneck the target cannot
// see. One latency-sensitive tenant shares a single initiator node — one
// host NIC, one cable — with four throughput-critical readers whose
// C2HData saturates the return direction of that shared link, and the
// return path itself is degraded with faultnet bandwidth pacing. The
// target's oPF scheduler and the SSD's priority path keep the LS tenant's
// service latency (arrival to completion, measured on the target's clock)
// comfortably inside the controller's service objective, because every
// nanosecond of LS pain accrues AFTER completion: in the egress FIFO
// behind 32 KiB TC messages and on the paced wire. A service-latency-only
// controller is therefore structurally blind here — burn rate computed
// from a healthy signal never trips — while the controller fed by the
// host's in-band e2e feedback (TelemetryUpdate deltas merged at the
// target) sees the violation and backs the TC windows off into admission
// caps, draining the egress queue the LS responses were stuck behind.

// E2e-gap deployment constants.
const (
	egGbps          = 10
	egLSObjectiveNS = 1_000_000 // end-to-end LS objective: 1 ms
	egLSBudgetPPM   = 50_000    // 95% compliance target
	egQDLS          = 1         // LS probes at queue depth 1
	egQDTC          = 32        // deep enough that admission caps bind when set
	egBlocksTC      = 8         // 32 KiB reads (4 KiB blocks): egress-heavy, IOPS-light
	egTCTenants     = 4
	egWindowMax     = 32 // the static formula's choice for read@10G
	egBusyBackoffNS = 1_000_000
	// egPaceBPS models the degraded return path: faultnet adds
	// size/egPaceBPS of one-way delay to every target->host message on
	// the shared link, on top of the link's own 10 Gbps serialization.
	egPaceBPS = 400_000_000
	// egTelemetryNS is the host cadence: one TelemetryUpdate per tenant
	// every 200 us of virtual time (the simulated keep-alive interval).
	egTelemetryNS = 200_000
)

// egAutotune is the controller both adaptive variants run; only the e2e
// feedback term differs. The service objective is deliberately easy to
// meet — the point of the experiment is that no service-side threshold,
// however tight, observes latency accrued after completion — and the e2e
// objective equals the tenant's actual end-to-end SLO, judged at the
// target from the merged host deltas.
func egAutotune(e2e bool) *autotune.Config {
	return &autotune.Config{
		ObjectiveNS:    250_000,
		BudgetPPM:      20_000,
		MinWindow:      4,
		MaxWindow:      egWindowMax,
		GrowStep:       egWindowMax,
		GrowIntervals:  4,
		GrowQuietNS:    20_000_000,
		CapFactor:      1,
		MinSamples:     2,
		E2E:            e2e,
		E2EObjectiveNS: egLSObjectiveNS,
	}
}

// E2EGapResult is one variant run through the egress-bottleneck scenario.
type E2EGapResult struct {
	Label    string
	Adaptive bool
	E2E      bool // controller consumed the e2e feedback term

	LSBurn    float64 // host-measured burn against the e2e objective (-1: no samples)
	LSMeanNS  int64
	LSP99NS   int64
	LSSamples int64
	TCBps     float64

	// Target-side merged view of the same tenant (from /debug/e2e state):
	// the service/e2e split that makes the blindness measurable.
	ServiceP99NS int64
	E2EP99NS     int64
	GapP99NS     int64

	Busy    int64
	Shrinks int64
	Grows   int64
}

// RunE2EGap runs one variant. at == nil runs the static windows; otherwise
// the controller attaches to the target with whatever feedback terms
// at enables. The in-band telemetry channel is on for every variant so the
// merged service/e2e split is observable even where nobody acts on it —
// the only difference between the adaptive variants is the E2E flag.
func RunE2EGap(cfg Config, label string, at *autotune.Config) (E2EGapResult, error) {
	prof, err := simcluster.ProfileFor(egGbps)
	if err != nil {
		return E2EGapResult{}, err
	}
	reg := telemetry.New()
	if at != nil {
		at.Telemetry = reg
	}
	cl := simcluster.New(simcluster.Options{
		Profile:         prof,
		Mode:            targetqp.ModeOPF,
		Seed:            cfg.Seed,
		Telemetry:       reg,
		Autotune:        at,
		HostTelemetryNS: egTelemetryNS,
	})
	if cfg.OnCluster != nil {
		cfg.OnCluster(cl)
	}

	warm := cfg.WarmupMillis * 1_000_000
	stop := warm + cfg.SimMillis*1_000_000

	tn, err := cl.NewTargetNode("tgt", false)
	if err != nil {
		return E2EGapResult{}, err
	}
	// Every tenant lives on ONE initiator node: the LS tenant and the TC
	// readers share the host NIC and the cable, so the return direction of
	// that single link is the contended egress path.
	in := cl.NewInitiatorNode("ini", tn)

	// Degrade the shared return path with faultnet bandwidth pacing:
	// every target->host message pays size/egPaceBPS of extra one-way
	// delay. The host->target direction is untouched — the bottleneck is
	// egress-only by construction.
	fp := faultnet.NewLinkProfile(int64(cfg.Seed) + 97)
	fp.Set(simnet.DirBtoA, faultnet.Faults{BandwidthBPS: egPaceBPS})
	in.Link.SetFaults(fp)

	deferAt := func(d int64, fn func()) { cl.Eng.At(cl.Eng.Now()+d, fn) }
	region := prof.SSD.Namespace.Capacity / (egTCTenants + 1)

	lsIni, err := in.Connect(hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: egQDLS, NSID: 1,
	})
	if err != nil {
		return E2EGapResult{}, err
	}
	lsRun, err := workload.NewRunner(lsIni.Session, cl.Eng.Now, workload.Spec{
		Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1,
		QueueDepth:  egQDLS,
		RegionStart: 0, RegionBlocks: region,
		WarmupUntil: warm, StopAt: stop,
		SLOObjectiveNS: egLSObjectiveNS,
		Defer:          deferAt, BusyBackoffNS: egBusyBackoffNS,
		Seed: cfg.Seed + 7,
	})
	if err != nil {
		return E2EGapResult{}, err
	}
	lsIni.Session.OnConnect(lsRun.Kick)

	var tcRuns []*workload.Runner
	for i := 0; i < egTCTenants; i++ {
		ini, err := in.Connect(hostqp.Config{
			Class: proto.PrioThroughputCritical, Window: egWindowMax, QueueDepth: egQDTC, NSID: 1,
		})
		if err != nil {
			return E2EGapResult{}, err
		}
		r, err := workload.NewRunner(ini.Session, cl.Eng.Now, workload.Spec{
			Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: egBlocksTC,
			QueueDepth:  egQDTC,
			RegionStart: uint64(i+1) * region, RegionBlocks: region,
			WarmupUntil: warm, StopAt: stop,
			Defer: deferAt, BusyBackoffNS: egBusyBackoffNS,
			Seed: cfg.Seed + uint64(i) + 31,
		})
		if err != nil {
			return E2EGapResult{}, err
		}
		ini.Session.OnConnect(r.Kick)
		tcRuns = append(tcRuns, r)
	}

	cl.Run()
	if err := cl.CheckHealthy(); err != nil {
		return E2EGapResult{}, err
	}

	res := E2EGapResult{Label: label, Adaptive: at != nil, E2E: at != nil && at.E2E}
	lr := lsRun.Result()
	res.LSBurn = lr.SLOBurn(egLSBudgetPPM)
	res.LSMeanNS = int64(lr.Latency.Mean())
	res.LSP99NS = lr.Latency.P99()
	res.LSSamples = lr.Latency.Count()

	var tcBytes int64
	for _, r := range tcRuns {
		rr := r.Result()
		tcBytes += rr.Recorded.Bytes
		res.Busy += rr.Busy
	}
	res.Busy += lr.Busy
	res.TCBps = float64(tcBytes) / (float64(cfg.SimMillis) / 1e3)

	// The target's merged view of the LS tenant: service p99 on the
	// target's clock vs the host-reported e2e p99 and their gap — the
	// quantified size of the service-only controller's blind spot.
	lsTenant := uint16(lsIni.Session.Tenant())
	for _, s := range reg.E2E() {
		if s.Tenant != lsTenant {
			continue
		}
		for _, cs := range s.Classes {
			if cs.Class == "ls" {
				res.ServiceP99NS = cs.ServiceP99NS
				res.E2EP99NS = cs.P99NS
				res.GapP99NS = cs.GapP99NS
			}
		}
	}
	if at != nil {
		for _, st := range reg.AutotuneStates() {
			res.Shrinks += st.Decisions[0]
			res.Grows += st.Decisions[1]
		}
	}
	return res, nil
}

// E2EGap regenerates the egress-bottleneck comparison: static windows,
// the service-latency-only controller, and the controller fed by the
// in-band host e2e feedback.
func E2EGap(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "e2egap",
		Title: "Egress-only bottleneck (shared host NIC + paced return path): service-only vs e2e-fed controller",
		Table: newFigTable("design", "ls_p99_us", "ls_burn",
			"svc_p99_us", "gap_p99_us", "tc_MB/s",
			"busy", "shrink", "grow"),
		PlotSpec: PlotSpec{ValueCol: "ls_burn", LabelCols: []string{"design"}},
	}
	variants := []struct {
		label string
		at    *autotune.Config
	}{
		{"static", nil},
		{"svc-only", egAutotune(false)},
		{"e2e", egAutotune(true)},
	}
	for _, v := range variants {
		r, err := RunE2EGap(cfg, v.label, v.at)
		if err != nil {
			return nil, err
		}
		rep.Table.AddRow(r.Label,
			usec(r.LSP99NS), burnStr(r.LSBurn),
			usec(r.ServiceP99NS), usec(r.GapP99NS), mbps(r.TCBps),
			fmt.Sprint(r.Busy), fmt.Sprint(r.Shrinks), fmt.Sprint(r.Grows))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("LS SLO: %d us end-to-end at %.1f%% compliance; all LS pain accrues after target completion (egress FIFO behind %d KiB TC reads + %d MB/s pacing on the shared return path)",
			egLSObjectiveNS/1000, 100*(1-float64(egLSBudgetPPM)/1e6), egBlocksTC*4, egPaceBPS/1_000_000),
		"svc_p99 is the target-clock service latency the service-only controller watches: it stays inside the 250 us objective, so that controller never decides (shrink = 0)",
		"the e2e-fed controller judges the merged host deltas against the e2e objective at the target, backs the TC windows into admission caps, and drains the egress queue the LS responses were stuck behind")
	return rep, nil
}
