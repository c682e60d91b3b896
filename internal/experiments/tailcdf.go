package experiments

import (
	"fmt"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/stats"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// TailCDF is an analysis experiment behind Fig. 7(d–f): the full
// latency-sensitive latency distribution (not just one tail point) under
// the paper's flagship contention scenario — 1 LS + 4 TC read tenants at
// 100 Gbps — for the baseline and NVMe-oPF. The baseline's distribution
// shifts wholesale (every LS request waits behind the TC backlog), while
// oPF's stays tight: the bypass removes queueing, not just outliers.
func TailCDF(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "tailcdf",
		Title: "LS latency distribution: 1 LS + 4 TC read tenants, 100 Gbps",
		Table: newFigTable("design", "samples", "p50_us", "p90_us", "p99_us", "p99.9_us", "p99.99_us", "max_us"),
		PlotSpec: PlotSpec{
			ValueCol:  "p99_us",
			LabelCols: []string{"design"},
		},
	}
	for _, mode := range []targetqp.Mode{targetqp.ModeBaseline, targetqp.ModeOPF} {
		hist, err := runLSHistogram(cfg, mode)
		if err != nil {
			return nil, err
		}
		rep.Table.AddRow(designName(mode), fmt.Sprint(hist.Count()),
			usec(hist.P50()), usec(hist.P90()), usec(hist.P99()),
			usec(hist.P999()), usec(hist.P9999()), usec(hist.Max()))
	}
	rep.Notes = append(rep.Notes,
		"the whole baseline distribution shifts (queueing delay), not just the tail; oPF's stays tight across four decades of percentile")
	return rep, nil
}

// runLSHistogram runs the scenario and returns the LS latency histogram.
func runLSHistogram(cfg Config, mode targetqp.Mode) (*stats.Histogram, error) {
	prof := simcluster.ProfileCL()
	cl := simcluster.New(simcluster.Options{Profile: prof, Mode: mode, Seed: cfg.Seed})
	tn, err := cl.NewTargetNode("t", false)
	if err != nil {
		return nil, err
	}
	warm := cfg.WarmupMillis * 1_000_000
	stop := warm + cfg.SimMillis*1_000_000

	lsIni, err := cl.NewInitiatorNode("ls", tn).Connect(hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
	})
	if err != nil {
		return nil, err
	}
	lsRun, err := workload.NewRunner(lsIni.Session, cl.Eng.Now, workload.Spec{
		Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 1,
		RegionStart: 0, RegionBlocks: 1 << 22,
		WarmupUntil: warm, StopAt: stop, Seed: cfg.Seed + 5,
	})
	if err != nil {
		return nil, err
	}
	lsIni.Session.OnConnect(lsRun.Kick)
	for i := 0; i < 4; i++ {
		ini, err := cl.NewInitiatorNode("tc", tn).Connect(hostqp.Config{
			Class: proto.PrioThroughputCritical, Window: 32, QueueDepth: 128, NSID: 1,
		})
		if err != nil {
			return nil, err
		}
		r, err := workload.NewRunner(ini.Session, cl.Eng.Now, workload.Spec{
			Mix: workload.ReadOnly, Pattern: workload.Sequential, Blocks: 1, QueueDepth: 128,
			RegionStart: uint64(i+1) << 22, RegionBlocks: 1 << 22,
			WarmupUntil: warm, StopAt: stop, Seed: cfg.Seed + uint64(i) + 9,
		})
		if err != nil {
			return nil, err
		}
		ini.Session.OnConnect(r.Kick)
	}
	cl.Run()
	if err := cl.CheckHealthy(); err != nil {
		return nil, err
	}
	return &lsRun.Result().Latency, nil
}
