package experiments

import (
	"fmt"
	"sort"

	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/workload"
)

// Runner is one registered experiment.
type Runner func(Config) (*Report, error)

// registry maps experiment IDs to runners.
var registry = map[string]Runner{
	"tableI":    TableI,
	"fig6a":     Fig6a,
	"fig6b":     Fig6b,
	"fig6c":     Fig6c,
	"fig7":      Fig7,
	"fig7sum":   Fig7Summary,
	"fig8p1":    Fig8Pattern1,
	"fig8p2":    Fig8Pattern2,
	"fig9":      Fig9,
	"ablations": Ablations,
	"shiftmix":  ShiftMix,
	"e2egap":    E2EGap,
	"summary":   Summary,
	"iosize":    IOSizeSweep,
	"tailcdf":   TailCDF,
	"checks":    Checks,
}

// Names returns the registered experiment IDs, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ByName runs one experiment.
func ByName(name string, cfg Config) (*Report, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg)
}

// TableI renders the two platform profiles (the simulation stand-ins for
// the paper's Table I hardware).
func TableI(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "tableI",
		Title: "Platform profiles (simulation stand-ins for Table I)",
		Table: newFigTable("profile", "link_gbps", "mtu", "pkt_overhead_B", "rx_pdu_ns", "small_tx_extra_ns", "ssd_read_us", "ssd_write_us", "ssd_channels"),
	}
	cc10, err := simcluster.ProfileCC(10)
	if err != nil {
		return nil, err
	}
	cc25, err := simcluster.ProfileCC(25)
	if err != nil {
		return nil, err
	}
	for _, p := range []simcluster.Profile{cc10, cc25, simcluster.ProfileCL()} {
		rep.Table.AddRow(p.Name, f0(p.LinkGbps),
			fmt.Sprint(p.Link.MTU), fmt.Sprint(p.Link.PacketOverhead),
			fmt.Sprint(p.HostCPU.RxPDU), fmt.Sprint(p.HostCPU.SmallTxExtra),
			fmt.Sprintf("%.0f", float64(p.SSD.ReadBase)/1e3),
			fmt.Sprintf("%.0f", float64(p.SSD.WriteBase)/1e3),
			fmt.Sprint(p.SSD.Channels))
	}
	rep.Notes = append(rep.Notes, "CPU costs are calibration constants (DESIGN.md §5), not hardware measurements")
	return rep, nil
}

// Summary regenerates the paper's headline observations (§I "significant
// observations" / Observations 1-5) from targeted runs.
func Summary(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "summary",
		Title: "Headline observations (oPF vs SPDK)",
		Table: newFigTable("observation", "paper", "measured"),
	}

	// Obs: read@10G with 5 tenants (1 LS + 4 TC): throughput ratio.
	b, err := Run(cfg, Case{Gbps: 10, Mode: targetqp.ModeBaseline, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	o, err := Run(cfg, Case{Gbps: 10, Mode: targetqp.ModeOPF, Mix: workload.ReadOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("read@10G 5-tenant throughput ratio", "2.94x",
		fmt.Sprintf("%.2fx", ratioOf(o.TCBps, b.TCBps)))
	rep.Table.AddRow("read@10G 5-tenant tail reduction", "32.1%",
		fmt.Sprintf("%.1f%%", 100*(1-ratioOf(float64(o.LSTail), float64(b.LSTail)))))

	// Obs: write@100G with 4 TC: throughput gain.
	b, err = Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeBaseline, Mix: workload.WriteOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	o, err = Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.WriteOnly, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("write@100G 4-TC throughput gain", "+32.6%",
		fmt.Sprintf("%+.1f%%", 100*(ratioOf(o.TCBps, b.TCBps)-1)))

	// Obs: mixed@100G 5 tenants: tail reduction.
	b, err = Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeBaseline, Mix: workload.Mixed5050, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	o, err = Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeOPF, Mix: workload.Mixed5050, FanIn: true, LSPerNode: 1, TCPerNode: 4})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("mixed@100G 5-tenant tail reduction", "61.8%",
		fmt.Sprintf("%.1f%%", 100*(1-ratioOf(float64(o.LSTail), float64(b.LSTail)))))

	// Obs: 25 tenants on 5 SSDs (pattern 1, k=5): write and mixed gains.
	for _, mw := range []struct {
		mix   workload.Mix
		paper string
		label string
	}{
		{workload.WriteOnly, "+70%", "write@100G 25-tenant (5 SSD) gain"},
		{workload.Mixed5050, "+74.8%", "mixed@100G 25-tenant (5 SSD) gain"},
	} {
		b, err = Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeBaseline, Mix: mw.mix, Pairs: 5, LSPerNode: 1, TCPerNode: 4})
		if err != nil {
			return nil, err
		}
		o, err = Run(cfg, Case{Gbps: 100, Mode: targetqp.ModeOPF, Mix: mw.mix, Pairs: 5, LSPerNode: 1, TCPerNode: 4})
		if err != nil {
			return nil, err
		}
		rep.Table.AddRow(mw.label, mw.paper, fmt.Sprintf("%+.1f%%", 100*(ratioOf(o.TCBps, b.TCBps)-1)))
	}
	return rep, nil
}
