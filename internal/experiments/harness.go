// Package experiments regenerates every table and figure of the paper's
// evaluation (§V) on the simulated platform: window-size analysis
// (Fig. 6), multi-tenant throughput and tail latency across
// latency:throughput ratios (Fig. 7), scale-out patterns (Fig. 8), the
// h5bench application study (Fig. 9, replayed as h5bench's block sequence
// by h5Rank), the Table I platform summary, and
// the headline observations. Each experiment produces a Report whose rows
// mirror the series the paper plots.
package experiments

import (
	"fmt"

	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// Config scales all experiments. The defaults regenerate publication-shape
// results in tens of seconds; tests use shorter windows.
type Config struct {
	// SimMillis is the virtual measurement time per case (the paper runs
	// 10 s wall per trial; simulated seconds are expensive, and the
	// steady-state rates converge well before 1 s).
	SimMillis int64
	// WarmupMillis precedes the measurement window.
	WarmupMillis int64
	// Seed drives all stochastic components.
	Seed uint64
	// OnCluster, when non-nil, is invoked with each case's cluster right
	// after construction, before any node exists — the hook opf-perf uses
	// to attach flight recorders (and keep the cluster for a post-run
	// trace dump).
	OnCluster func(*simcluster.Cluster)
}

// DefaultConfig returns the configuration used for EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{SimMillis: 400, WarmupMillis: 100, Seed: 1}
}

// QuickConfig returns a fast configuration for tests and smoke runs.
func QuickConfig() Config {
	return Config{SimMillis: 40, WarmupMillis: 10, Seed: 1}
}

// Case describes one simulated deployment + workload combination.
type Case struct {
	Gbps float64
	Mode targetqp.Mode
	Mix  workload.Mix
	// Window for TC initiators; 0 selects core.OptimalWindow. Baseline
	// mode ignores windows at the target but the initiator still sends
	// drain flags (they are reserved bits to an unmodified target).
	Window int
	// Pairs is the number of initiator-node/target-node pairs.
	Pairs int
	// LSPerNode / TCPerNode initiators per initiator-node.
	LSPerNode, TCPerNode int
	// FanIn places every initiator on its own node, all wired to the
	// single pair-0 target (the Fig. 6/7 topology: "each running on
	// individual nodes and communicating to an NVMe-oF target node").
	FanIn bool
	// QDTC / QDLS queue depths (defaults 128 / 1, §V-A).
	QDTC, QDLS int
	// DynamicWindow attaches the §IV-D runtime tuner to TC initiators.
	DynamicWindow bool
	// SharedQueueAblation runs the target with one shared TC queue.
	SharedQueueAblation bool
	// NoLSBypass is an ablation knob: LS requests are sent as legacy
	// normal-priority requests, isolating the coalescing win from the
	// bypass win.
	NoLSBypass bool
}

// normalize fills defaults.
func (cs Case) normalize() Case {
	if cs.Pairs == 0 {
		cs.Pairs = 1
	}
	if cs.QDTC == 0 {
		cs.QDTC = 128
	}
	if cs.QDLS == 0 {
		cs.QDLS = 1
	}
	if cs.Window == 0 {
		kind := core.WorkloadRead
		switch cs.Mix {
		case workload.WriteOnly:
			kind = core.WorkloadWrite
		case workload.Mixed5050:
			kind = core.WorkloadMixed
		}
		cs.Window = core.OptimalWindow(kind, cs.Gbps, cs.TCPerNode*cs.Pairs, cs.QDTC)
	}
	return cs
}

// CaseResult aggregates one case's measurements. Throughput is the
// aggregate of all throughput-critical initiators and tail latency is
// measured at the latency-sensitive initiators, exactly as in Fig. 7.
type CaseResult struct {
	Case        Case
	TCBps       float64 // aggregate TC bandwidth, bytes/sec
	TCIOPS      float64
	TCMeanLat   int64
	LSMeanLat   int64
	LSTail      int64 // 99.99th percentile (degrading per stats.Tail)
	LSSamples   int64
	RespPDUs    int64 // completion notifications the targets generated
	CmdPDUs     int64
	DataPDUs    int64
	ForcedDrain int64
	Premature   int64
}

// Run executes one case and returns its metrics.
func Run(cfg Config, cs Case) (CaseResult, error) {
	return runWithBlocks(cfg, cs, 1)
}

// runWithBlocks is Run with a configurable I/O size in logical blocks.
func runWithBlocks(cfg Config, cs Case, blocks uint32) (CaseResult, error) {
	cs = cs.normalize()
	prof, err := simcluster.ProfileFor(cs.Gbps)
	if err != nil {
		return CaseResult{}, err
	}
	cl := simcluster.New(simcluster.Options{
		Profile:             prof,
		Mode:                cs.Mode,
		SharedQueueAblation: cs.SharedQueueAblation,
		Seed:                cfg.Seed,
	})
	if cfg.OnCluster != nil {
		cfg.OnCluster(cl)
	}

	warm := cfg.WarmupMillis * 1_000_000
	stop := warm + cfg.SimMillis*1_000_000

	var targets []*simcluster.TargetNode
	var tcRunners, lsRunners []*workload.Runner

	nsBlocks := prof.SSD.Namespace.Capacity
	for p := 0; p < cs.Pairs; p++ {
		tn, err := cl.NewTargetNode(fmt.Sprintf("tgt%d", p), false)
		if err != nil {
			return CaseResult{}, err
		}
		targets = append(targets, tn)

		perNode := cs.LSPerNode + cs.TCPerNode
		if perNode == 0 {
			continue
		}
		region := nsBlocks / uint64(perNode)

		// FanIn: one node per initiator; otherwise one shared node.
		var sharedNode *simcluster.InitiatorNode
		if !cs.FanIn {
			sharedNode = cl.NewInitiatorNode(fmt.Sprintf("ini%d", p), tn)
		}
		nodeFor := func(i int) *simcluster.InitiatorNode {
			if cs.FanIn {
				return cl.NewInitiatorNode(fmt.Sprintf("ini%d-%d", p, i), tn)
			}
			return sharedNode
		}

		idx := 0
		for i := 0; i < cs.LSPerNode; i++ {
			class := proto.PrioLatencySensitive
			if cs.NoLSBypass {
				class = proto.PrioNormal
			}
			ini, err := nodeFor(idx).Connect(hostqp.Config{
				Class: class, Window: 1, QueueDepth: cs.QDLS, NSID: 1,
			})
			if err != nil {
				return CaseResult{}, err
			}
			r, err := workload.NewRunner(ini.Session, cl.Eng.Now, workload.Spec{
				Mix: cs.Mix, Pattern: workload.Sequential, Blocks: blocks,
				QueueDepth:  cs.QDLS,
				RegionStart: uint64(idx) * region, RegionBlocks: region,
				WarmupUntil: warm, StopAt: stop,
				Seed: cfg.Seed + uint64(p*100+idx) + 7,
			})
			if err != nil {
				return CaseResult{}, err
			}
			r.Start()
			lsRunners = append(lsRunners, r)
			idx++
		}
		for i := 0; i < cs.TCPerNode; i++ {
			hcfg := hostqp.Config{
				Class: proto.PrioThroughputCritical, Window: cs.Window,
				QueueDepth: cs.QDTC, NSID: 1,
			}
			if cs.DynamicWindow {
				hcfg.Dynamic = core.NewDynamicWindow(cs.Window, cs.QDTC, 8)
			}
			ini, err := nodeFor(idx).Connect(hcfg)
			if err != nil {
				return CaseResult{}, err
			}
			r, err := workload.NewRunner(ini.Session, cl.Eng.Now, workload.Spec{
				Mix: cs.Mix, Pattern: workload.Sequential, Blocks: blocks,
				QueueDepth:  cs.QDTC,
				RegionStart: uint64(idx) * region, RegionBlocks: region,
				WarmupUntil: warm, StopAt: stop,
				Seed: cfg.Seed + uint64(p*100+idx) + 31,
			})
			if err != nil {
				return CaseResult{}, err
			}
			r.Start()
			tcRunners = append(tcRunners, r)
			idx++
		}
	}

	cl.Run()
	if err := cl.CheckHealthy(); err != nil {
		return CaseResult{}, err
	}

	res := CaseResult{Case: cs}
	window := cfg.SimMillis * 1_000_000
	var tcLat, lsLat stats.Histogram
	for _, r := range tcRunners {
		res.TCBps += r.Result().Recorded.Bandwidth(window)
		res.TCIOPS += r.Result().Recorded.IOPS(window)
		tcLat.Merge(&r.Result().Latency)
	}
	for _, r := range lsRunners {
		lsLat.Merge(&r.Result().Latency)
	}
	res.TCMeanLat = int64(tcLat.Mean())
	res.LSMeanLat = int64(lsLat.Mean())
	res.LSTail = lsLat.Tail()
	res.LSSamples = lsLat.Count()
	for _, tn := range targets {
		st := tn.Target.Stats()
		res.RespPDUs += st.RespPDUs
		res.CmdPDUs += st.CmdPDUs
		res.DataPDUs += st.DataPDUs
		pst := tn.Target.PMStats()
		res.ForcedDrain += pst.ForcedDrains
		res.Premature += pst.PrematureFlush
	}
	return res, nil
}

// Report is one regenerated table/figure.
type Report struct {
	ID       string
	Title    string
	Table    *stats.Table
	Notes    []string
	PlotSpec PlotSpec
}

// String renders the report.
func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table.String())
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// mbps formats bytes/sec as MB/s with 1 decimal.
func mbps(bps float64) string { return fmt.Sprintf("%.1f", bps/1e6) }

// usec formats nanoseconds as microseconds.
func usec(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }

// kiops formats ops/sec as thousands.
func kiops(v float64) string { return fmt.Sprintf("%.1f", v/1e3) }
