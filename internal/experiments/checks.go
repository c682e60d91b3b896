package experiments

import (
	"fmt"

	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// Checks is the reproduction's regression gate: a small set of directional
// assertions distilled from the paper's observations, each evaluated at
// the configured scale. A row FAILS when the direction (not the exact
// magnitude) breaks — e.g. oPF no longer beating the baseline where the
// paper says it must. cmd/opf-bench -exp checks exits nonzero when a row's
// status reads FAIL.
func Checks(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "checks",
		Title: "Directional regression checks (paper observations)",
		Table: newFigTable("check", "expected", "measured", "status"),
	}
	failures := 0
	add := func(name, expected, measured string, ok bool) {
		status := "PASS"
		if !ok {
			status = "FAIL"
			failures++
		}
		rep.Table.AddRow(name, expected, measured, status)
	}

	// Obs. 2: read@10G multi-tenant throughput ratio must be large.
	b, err := Run(cfg, Case{Gbps: 10, Mode: targetqp.ModeBaseline, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	o, err := Run(cfg, Case{Gbps: 10, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	ratio := ratioOf(o.TCBps, b.TCBps)
	add("read@10G 1:4 throughput ratio", "> 2.0", fmt.Sprintf("%.2f", ratio), ratio > 2.0)

	// Obs. 3: oPF LS tail below baseline under contention.
	add("read@10G 1:4 LS tail lower", "oPF < SPDK",
		fmt.Sprintf("%dus vs %dus", o.LSTail/1000, b.LSTail/1000), o.LSTail < b.LSTail)

	// Obs. 2: write@100G gain present.
	b, err = Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeBaseline, Mix: workload.WriteOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	o, err = Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.WriteOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	gain := 100 * (ratioOf(o.TCBps, b.TCBps) - 1)
	add("write@100G 1:4 throughput gain", "> 10%", fmt.Sprintf("%+.1f%%", gain), gain > 10)

	// Obs. 1 / Fig. 6(c): coalescing cuts completion notifications.
	add("write@100G 1:4 completion PDUs", "oPF << SPDK",
		fmt.Sprintf("%d vs %d", o.RespPDUs, b.RespPDUs), o.RespPDUs*4 < b.RespPDUs)

	// Fig. 6(b): oPF-10G read lands near oPF-100G (fabric-equalizing).
	o10, err := Run(cfg, Case{Gbps: 10, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly, FanIn: true, TCPerNode: 4, LSPerNode: 1})
	if err != nil {
		return nil, err
	}
	o100, err := Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly, FanIn: true, TCPerNode: 4, LSPerNode: 1})
	if err != nil {
		return nil, err
	}
	closeness := ratioOf(o10.TCBps, o100.TCBps)
	add("oPF read 10G vs 100G closeness", "> 0.75", fmt.Sprintf("%.2f", closeness), closeness > 0.75)

	// §IV-A: isolated queues beat the shared-queue layout.
	shared, err := Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4, SharedQueueAblation: true})
	if err != nil {
		return nil, err
	}
	add("isolated vs shared TC queues", "isolated > shared",
		fmt.Sprintf("%.0f vs %.0f MB/s", o100.TCBps/1e6, shared.TCBps/1e6), o100.TCBps > shared.TCBps)

	rep.Notes = append(rep.Notes, fmt.Sprintf("%d failure(s)", failures))
	return rep, nil
}
