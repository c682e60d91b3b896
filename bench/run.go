package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// A timed run is made of episodes: each sets the workload up from nothing
// and measures a window of two slices on it, so the run's figures are
// medians over ten slices of five independent set-ups (new sockets, new
// goroutines, wherever the scheduler puts them), and setup_s is the median
// of the five set-up times.
const (
	episodes         = 5
	slicesPerEpisode = 2
	slicesPerRun     = episodes * slicesPerEpisode
)

func sliceDuration(seconds float64) time.Duration {
	return time.Duration(seconds / slicesPerRun * float64(time.Second))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is one run of one workload, timed or traced, as it appears in
// a result file.
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Diagnostics are printed and recorded but never gated.
	Diagnostics map[string]any `json:"diagnostics,omitempty"`
}

func (r *runRecord) setMetrics(defs []metricDef, vals map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
}

// runTimed makes the workload's timed run: no recorder, registry or trace
// hook is attached anywhere, and the result carries every end-to-end
// metric.
func runTimed(w *workload, seed uint64, seconds float64) (*runRecord, error) {
	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: seconds}
	var vals map[string]float64
	var setups []float64
	if w.sim {
		for i := 0; i < episodes; i++ {
			t := time.Now()
			if err := setupSim(seed); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		r, err := runSim(seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		vals = r.metrics()
		rec.Attempted = r.ios()
		rec.Correct = r.repeats
		rec.Diagnostics = r.diagnostics()
	} else {
		r := &liveResult{}
		for i := 0; i < episodes; i++ {
			t := time.Now()
			env, err := setupLive(w, seed, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			r.merge(env.measure(slicesPerEpisode, sliceDuration(seconds)))
			env.close()
			runtime.GC() // the discarded device is garbage, not the next set-up's cost
		}
		vals = r.metrics()
		rec.Attempted, rec.Failed = r.attempted, r.failed
		rec.Correct = r.failed == 0 && r.completed > 0
		rec.Diagnostics = r.diagnostics()
	}
	vals["setup_s"] = median(setups)
	rec.setMetrics(endToEnd, vals)
	return rec, nil
}

// metrics are the live end-to-end values: for each, the median over the
// slices measured.
func (r *liveResult) metrics() map[string]float64 {
	return map[string]float64{
		"bulk_mbps":     median(r.mbps),
		"lat_mid_us":    median(r.midUS),
		"lat_tail_us":   median(r.tailUS),
		"cpu_us_per_io": median(r.cpuUS),
	}
}

func (r *liveResult) diagnostics() map[string]any {
	slices.Sort(r.lat)
	d := map[string]any{
		"lat_p50_us":  median(r.p50US),
		"lat_samples": len(r.lat),
		"completed":   r.completed,
		"fail_ratio":  float64(r.failed) / float64(max(r.attempted, 1)),
		"cpu_util":    r.proc.cpu.Seconds() / r.proc.wall.Seconds() / float64(runtime.NumCPU()),
		// The per-slice values each end-to-end figure is the median of.
		"slices": map[string][]float64{
			"bulk_mbps": r.mbps, "lat_mid_us": r.midUS, "lat_tail_us": r.tailUS, "cpu_us_per_io": r.cpuUS,
		},
	}
	if label, v := topPercentile(r.lat); label != "" {
		d["lat_top_percentile"] = label
		d["lat_top_us"] = us(v)
	}
	return d
}

func (r *simResult) diagnostics() map[string]any {
	return map[string]any{
		"sim_virtual_ms":   r.virtualMS,
		"sim_tc_mbps":      r.opf.TCBps / 1e6,
		"sim_ls_tail_us":   us(r.opf.LSTail),
		"sim_ls_samples":   r.opf.LSSamples,
		"sim_resp_per_cmd": float64(r.opf.RespPDUs) / float64(r.opf.CmdPDUs),
		"sim_tc_gain":      r.gain(),
		"sim_wall_s":       r.proc.wall.Seconds(),
		"sim_repeats":      r.repeats,
	}
}
