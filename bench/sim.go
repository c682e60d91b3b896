package main

import (
	"fmt"

	"nvmeopf/internal/experiments"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/targetqp"
	simload "nvmeopf/internal/workload"
)

// The Fig. 7 case is simulated simRounds times in each mode, every round
// with the same seed and the same fixed virtual duration per measured
// second — about 8 s of wall time at the frozen 10 s run length. The
// rounds must agree bit for bit on every virtual-time result (that is the
// determinism check), and CPU per I/O is the median over rounds.
const (
	simRounds             = 5
	simVirtualMSPerSecond = 50
	simWarmupMS           = 20
)

func fig7Case(mode targetqp.Mode) experiments.Case {
	return experiments.Case{Gbps: 100, Mode: mode, Mix: simload.ReadOnly,
		FanIn: true, LSPerNode: 1, TCPerNode: 3}
}

func simConfig(seed uint64, seconds float64) experiments.Config {
	return experiments.Config{SimMillis: max(int64(seconds*simVirtualMSPerSecond), 1),
		WarmupMillis: simWarmupMS, Seed: seed}
}

// setupSim is sim-fig7's share of setup_s: building the cluster and
// simulating its warm-up, up to the first measured I/O. experiments.Run
// does not return before the measured window, so this runs the case with
// the shortest one.
func setupSim(seed uint64) error {
	_, err := experiments.Run(simConfig(seed, 0), fig7Case(targetqp.ModeOPF))
	return err
}

// simResult is one sim-fig7 measurement: the oPF and baseline results in
// virtual time, and what simulating them cost in wall-clock terms.
type simResult struct {
	opf, base experiments.CaseResult
	virtualMS int64
	repeats   bool      // every round gave the identical virtual-time results
	cpuUS     []float64 // per round: process CPU per simulated I/O
	proc      procDelta // over all rounds
}

// ios is the number of commands all rounds simulated.
func (r *simResult) ios() int64 { return simRounds * (r.opf.CmdPDUs + r.base.CmdPDUs) }

func (r *simResult) gain() float64 { return r.opf.TCBps / r.base.TCBps }

// runSim simulates the Fig. 7 case in both modes, simRounds times.
// onCluster is nil on timed runs; the traced run attaches flight recorders
// through it.
func runSim(seed uint64, seconds float64, onCluster func(*simcluster.Cluster)) (*simResult, error) {
	cfg := simConfig(seed, seconds)
	cfg.OnCluster = onCluster
	r := &simResult{virtualMS: cfg.SimMillis, repeats: true}
	snap := takeProcSnap()
	for round := 0; round < simRounds; round++ {
		cpu := cpuNow()
		opf, err := experiments.Run(cfg, fig7Case(targetqp.ModeOPF))
		if err != nil {
			return nil, fmt.Errorf("sim oPF: %w", err)
		}
		base, err := experiments.Run(cfg, fig7Case(targetqp.ModeBaseline))
		if err != nil {
			return nil, fmt.Errorf("sim baseline: %w", err)
		}
		r.cpuUS = append(r.cpuUS, float64((cpuNow()-cpu).Nanoseconds())/1e3/float64(opf.CmdPDUs+base.CmdPDUs))
		if round == 0 {
			r.opf, r.base = opf, base
		} else if opf != r.opf || base != r.base {
			r.repeats = false
		}
	}
	r.proc = snap.since()
	return r, nil
}

// metrics maps the simulation onto the end-to-end names: virtual TC
// throughput, virtual LS mean and tail (all the harness exposes of the LS
// distribution), and wall-clock CPU per simulated I/O.
func (r *simResult) metrics() map[string]float64 {
	return map[string]float64{
		"bulk_mbps":     r.opf.TCBps / 1e6,
		"lat_mid_us":    us(r.opf.LSMeanLat),
		"lat_tail_us":   us(r.opf.LSTail),
		"cpu_us_per_io": median(r.cpuUS),
	}
}
