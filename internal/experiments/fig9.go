package experiments

import (
	"fmt"

	"nvmeopf/internal/core"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/targetqp"
)

// h5CaseResult aggregates one h5bench deployment run.
type h5CaseResult struct {
	WriteBps float64
	ReadBps  float64
	LSMeanUs float64
}

// runH5Case deploys pairs initiator/target node pairs, ranksPerNode ranks
// per node (rank 0 latency-sensitive when the node has >= 2 ranks, the
// rest throughput-critical, as in §V-E), runs every rank's write phase to
// completion, then its read phase over the blocks it wrote. Each rank
// moves particles float32 values per timestep, rounded up to whole blocks.
func runH5Case(cfg Config, mode targetqp.Mode, pairs, ranksPerNode int, particles uint64) (h5CaseResult, error) {
	prof := simcluster.ProfileCL()
	cl := simcluster.New(simcluster.Options{Profile: prof, Mode: mode, Seed: cfg.Seed})
	blocks := int((4*particles + h5BlockBytes - 1) / h5BlockBytes)

	var ranks []*h5Rank
	var firstErr error
	finished := 0
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for p := 0; p < pairs; p++ {
		tn, err := cl.NewTargetNode(fmt.Sprintf("tgt%d", p), true)
		if err != nil {
			return h5CaseResult{}, err
		}
		node := cl.NewInitiatorNode(fmt.Sprintf("ini%d", p), tn)
		region := tn.SSD.Namespace().Capacity / uint64(ranksPerNode)
		for i := 0; i < ranksPerNode; i++ {
			ls := i == 0 && ranksPerNode >= 2
			hcfg := hostqp.Config{
				Class:      proto.PrioThroughputCritical,
				Window:     core.OptimalWindow(core.WorkloadWrite, prof.LinkGbps, ranksPerNode-1, 128),
				QueueDepth: 128,
				NSID:       1,
			}
			if ls {
				hcfg.Class = proto.PrioLatencySensitive
				hcfg.Window = 1
				hcfg.QueueDepth = 1
			}
			ini, err := node.Connect(hcfg)
			if err != nil {
				return h5CaseResult{}, err
			}
			r := &h5Rank{sess: ini.Session, eng: cl.Eng, base: uint64(i) * region,
				blocks: blocks, steps: 3, qd: hcfg.QueueDepth, gap: h5LoadGap, ls: ls}
			ranks = append(ranks, r)
			ini.Session.OnConnect(func() {
				r.writePhase(func(err error) {
					if err != nil {
						fail(err)
						return
					}
					r.readPhase(func(err error) {
						fail(err)
						finished++
					})
				})
			})
		}
	}

	cl.Run()
	if err := cl.CheckHealthy(); err != nil {
		return h5CaseResult{}, err
	}
	if firstErr != nil {
		return h5CaseResult{}, firstErr
	}
	if finished != len(ranks) {
		return h5CaseResult{}, fmt.Errorf("fig9: %d of %d ranks did not finish", len(ranks)-finished, len(ranks))
	}

	agg := func(phase func(*h5Rank) *h5Phase) float64 {
		var bytes int64
		var minStart, maxEnd int64 = 1 << 62, 0
		for _, r := range ranks {
			p := phase(r)
			bytes += p.Bytes
			minStart = min(minStart, p.StartNs)
			maxEnd = max(maxEnd, p.EndNs)
		}
		if maxEnd <= minStart {
			return 0
		}
		return float64(bytes) / (float64(maxEnd-minStart) / 1e9)
	}
	out := h5CaseResult{
		WriteBps: agg(func(r *h5Rank) *h5Phase { return &r.write }),
		ReadBps:  agg(func(r *h5Rank) *h5Phase { return &r.read }),
	}
	var lsSum, lsN float64
	for _, r := range ranks {
		if r.ls && r.write.OpLat.Count() > 0 {
			lsSum += r.write.OpLat.Mean()
			lsN++
		}
	}
	if lsN > 0 {
		out.LSMeanUs = lsSum / lsN / 1e3
	}
	return out, nil
}

// lsCol renders the LS rank's mean data-write latency, or "-" when no
// node ran an LS rank (one rank per node runs it TC).
func (r h5CaseResult) lsCol() string {
	if r.LSMeanUs == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", r.LSMeanUs)
}

// Fig9 regenerates Fig. 9: h5bench particle write and read bandwidth on
// SPDK vs NVMe-oPF at 100 Gbps. Pattern 2 (sub-figures a,b): 10 ranks per
// node, 1..4 node pairs. Pattern 1 (sub-figures c,d): 4 node pairs, 1..10
// ranks per node. Particle counts are scaled down from the paper's 8M per
// rank so the simulated runs stay tractable; the access pattern (4 KiB
// dataset I/O, per-timestep metadata flushes, dataset-load overhead
// between read timesteps) is preserved.
func Fig9(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "fig9",
		Title: "h5bench particle kernels: aggregate bandwidth (100 Gbps, NVMe-oPF)",
		Table: newFigTable("pattern", "ranks", "design", "write_MB/s", "read_MB/s", "ls_write_lat_us"),

		PlotSpec: PlotSpec{ValueCol: "write_MB/s", LabelCols: []string{"pattern", "ranks", "design"}},
	}
	particles := uint64(cfg.SimMillis) * 2048 // ~2048 particles per sim-ms keeps runs bounded
	if particles < 64*1024 {
		particles = 64 * 1024
	}

	// Pattern 2: 10 ranks/node, scale node pairs 1..4 (Fig. 9(a,b)).
	for pairs := 1; pairs <= 4; pairs++ {
		for _, mode := range []targetqp.Mode{targetqp.ModeBaseline, targetqp.ModeOPF} {
			r, err := runH5Case(cfg, mode, pairs, 10, particles)
			if err != nil {
				return nil, err
			}
			rep.Table.AddRow("p2", fmt.Sprint(pairs*10), designName(mode),
				mbps(r.WriteBps), mbps(r.ReadBps), r.lsCol())
		}
	}
	// Pattern 1: 4 node pairs, scale ranks/node (Fig. 9(c,d)).
	for _, ranks := range []int{1, 4, 7, 10} {
		for _, mode := range []targetqp.Mode{targetqp.ModeBaseline, targetqp.ModeOPF} {
			r, err := runH5Case(cfg, mode, 4, ranks, particles)
			if err != nil {
				return nil, err
			}
			rep.Table.AddRow("p1", fmt.Sprint(4*ranks), designName(mode),
				mbps(r.WriteBps), mbps(r.ReadBps), r.lsCol())
		}
	}
	rep.Notes = append(rep.Notes,
		"paper: oPF write +25.2% at 40 ranks; read gains smaller due to h5bench dataset-loading overhead (modelled at 3ms/timestep)",
		fmt.Sprintf("scaled: %d particles/rank, 3 timesteps (paper: 8M particles)", particles))
	return rep, nil
}
