package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/telemetry"
)

const (
	// tracedSlices is the traced run's measured window, and that of the
	// untraced reference it is compared against: 3 s of the frozen 10.
	tracedSlices = 3
	// Ring capacities that hold every event of a traced window: a live
	// tenant emits up to five events per request on a side; the simulator
	// keeps three clusters' recorders alive at once, so its rings are
	// smaller.
	liveRingEvents = 1 << 21
	simRingEvents  = 1 << 18
	// traceFileRequests bounds what the trace file lists per request; the
	// aggregates above it cover every span.
	traceFileRequests = 2000
)

// stageStat is one live stage span of one class over the traced window.
type stageStat struct {
	N     int     `json:"n"`
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
}

// stageReport is the live half of a trace file: the flight recorders'
// events correlated into request timelines and split into stage spans.
type stageReport struct {
	Reconstruction float64                         `json:"reconstruction_ratio"`
	Submitted      int                             `json:"submitted"`
	Stages         map[string]map[string]stageStat `json:"stages"` // class -> span
	Requests       []map[string]int64              `json:"requests"`
}

func stageClass(p proto.Priority) string {
	switch {
	case p.LatencySensitive():
		return "ls"
	case p.ThroughputCritical():
		return "tc"
	case p.Scavenger():
		return "scav"
	}
	return "" // flushes and other legacy-class commands
}

// analyzeStages correlates a host and a target recorder and reduces every
// reconstructed request to its xfer/queue/service/notify/return spans.
// Host and target run in this process on one clock, so the dumps carry a
// zero clock offset in place of the handshake's estimate of it.
func analyzeStages(host, target *telemetry.Recorder) *stageReport {
	dump := func(r *telemetry.Recorder) *telemetry.Dump {
		return &telemetry.Dump{
			Meta:   telemetry.DumpMeta{Format: telemetry.DumpFormat, Role: r.Role()},
			Events: r.Events(),
		}
	}
	c := telemetry.Correlate(dump(host), dump(target))
	rep := &stageReport{Submitted: c.Submitted, Stages: map[string]map[string]stageStat{}}
	if c.Submitted > 0 {
		rep.Reconstruction = float64(c.CompleteCount()) / float64(c.Submitted)
	}
	durs := map[string]map[string][]int64{}
	for i := range c.Timelines {
		tl := &c.Timelines[i]
		class := stageClass(proto.Priority(tl.Prio))
		if class == "" || !tl.Complete(true) || !tl.Monotonic(c.Tolerance) {
			continue
		}
		b := telemetry.Breakdown(tl)
		if durs[class] == nil {
			durs[class] = map[string][]int64{}
		}
		for name, d := range b {
			durs[class][name] = append(durs[class][name], d)
		}
		if len(rep.Requests) < traceFileRequests {
			b["tenant"], b["cid"], b["prio"] = int64(tl.Tenant), int64(tl.CID), int64(tl.Prio)
			rep.Requests = append(rep.Requests, b)
		}
	}
	for class, spans := range durs {
		rep.Stages[class] = map[string]stageStat{}
		for name, d := range spans {
			slices.Sort(d)
			rep.Stages[class][name] = stageStat{N: len(d), P50US: us(quantile(d, 0.5)), P99US: us(quantile(d, 0.99))}
		}
	}
	return rep
}

// traceFile is bench/out/trace-<workload>.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     uint64       `json:"seed"`
	Live     *stageReport `json:"live"`
	Pipeline struct {
		Requests   int                `json:"requests"`
		Layers     []string           `json:"layers"`
		SelfNSPerR map[string]float64 `json:"self_ns_per_request"`
		Spans      []span             `json:"spans"`
	} `json:"pipeline"`
}

// runTraced makes the workload's traced run, separate from the timed one:
// an untraced reference window, the same window with flight recorders
// attached, the in-process pipeline, and the loops over the layers it
// cannot see. The result carries every per-layer metric; the trace file is
// written once, at the end.
func runTraced(w *workload, seed uint64, seconds float64, outDir string) (*runRecord, error) {
	rec := &runRecord{Workload: w.name, Seed: seed, Seconds: seconds, Traced: true}
	vals := map[string]float64{}
	tf := &traceFile{Workload: w.name, Seed: seed}

	var refMid float64 // the untraced median round trip, us
	if w.sim {
		window := seconds * tracedSlices / slicesPerRun
		ref, err := runSim(seed, window, nil)
		if err != nil {
			return nil, err
		}
		var hostRec, targetRec *telemetry.Recorder
		traced, err := runSim(seed, window, func(cl *simcluster.Cluster) {
			h, t := cl.AttachFlightRecorders(telemetry.RecorderConfig{PerTenant: simRingEvents})
			if hostRec == nil { // the first cluster is the oPF one
				hostRec, targetRec = h, t
			}
		})
		if err != nil {
			return nil, err
		}
		tf.Live = analyzeStages(hostRec, targetRec)
		rec.Attempted = ref.ios()
		rec.Correct = ref.repeats && traced.repeats && traced.opf == ref.opf
		vals["trace_overhead_pct"] = (traced.proc.wall.Seconds() - ref.proc.wall.Seconds()) / ref.proc.wall.Seconds() * 100
		vals["targetqp.resp_per_cmd"] = float64(ref.opf.RespPDUs) / float64(ref.opf.CmdPDUs)
		vals["core.forced_drains"] = float64(ref.opf.ForcedDrain)
		vals["sim.tc_gain"] = ref.gain()
		vals["sim.wall_s"] = ref.proc.wall.Seconds()
		procMetrics(vals, ref.proc, ref.ios())
	} else {
		ref, err := measureLive(w, seed, seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		hostRec := telemetry.NewRecorder(telemetry.RecorderConfig{PerTenant: liveRingEvents, Role: "host"})
		targetRec := telemetry.NewRecorder(telemetry.RecorderConfig{PerTenant: liveRingEvents, Role: "target"})
		traced, err := measureLive(w, seed, seconds, hostRec, targetRec)
		if err != nil {
			return nil, err
		}
		tf.Live = analyzeStages(hostRec, targetRec)
		rec.Attempted, rec.Failed = ref.attempted+traced.attempted, ref.failed+traced.failed
		rec.Correct = rec.Failed == 0 && ref.completed > 0
		refMid = ref.metrics()["lat_mid_us"]
		refMBps, tracedMBps := ref.metrics()["bulk_mbps"], traced.metrics()["bulk_mbps"]
		vals["trace_overhead_pct"] = (refMBps - tracedMBps) / refMBps * 100
		c := ref.counts
		vals["targetqp.resp_per_cmd"] = ratio(c["resp_pdus"], c["cmd_pdus"])
		vals["core.resps_suppressed_ratio"] = ratio(c["resps_suppressed"], c["resps_sent"]+c["resps_suppressed"])
		for _, k := range []string{"ls_bypassed", "tc_queued", "drains", "forced_drains", "busy_rejections", "scav_drains", "scav_aged_drains"} {
			vals["core."+k] = float64(c[k])
		}
		vals["hostqp.errors"] = float64(c["host_errors"])
		procMetrics(vals, ref.proc, ref.completed)
	}
	for class, spans := range tf.Live.Stages {
		for name, st := range spans {
			vals["stage."+class+"."+name+"_p50_us"] = st.P50US
			vals["stage."+class+"."+name+"_p99_us"] = st.P99US
		}
	}
	vals["stage.reconstruction_ratio"] = tf.Live.Reconstruction

	pipe, err := runPipeline(w, seed, pipelineRequests(w))
	if err != nil {
		return nil, err
	}
	if pipe.failed > 0 {
		rec.Failed += int64(pipe.failed)
		rec.Correct = false
	}
	rec.Attempted += int64(pipe.requests)
	var pipeSum float64
	tf.Pipeline.Requests, tf.Pipeline.Layers = pipe.requests, layerNames[:]
	tf.Pipeline.SelfNSPerR = map[string]float64{}
	for l, ns := range pipe.selfNS {
		vals[layerNames[l]+"_ns_op"] = ns
		tf.Pipeline.SelfNSPerR[layerNames[l]] = ns
		pipeSum += ns
	}
	for _, s := range pipe.spans {
		if s.Req >= traceFileRequests {
			break
		}
		tf.Pipeline.Spans = append(tf.Pipeline.Spans, s)
	}
	if !w.sim {
		// What the layers above do not account for of a round trip:
		// sockets, goroutine hand-offs, the transport's writer and reader.
		vals["tcptrans.residual_us"] = refMid - pipeSum/1e3
	}

	for name, fn := range map[string]func(*workload) (float64, error){
		"core.hostpm_ns_op": hostPMCost, "core.targetpm_ns_op": targetPMCost,
		"proto.allocs_op": protoAllocs, "hostqp.allocs_op": hostqpAllocs,
	} {
		if vals[name], err = fn(w); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	rec.setMetrics(perLayer, vals)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(tf)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+w.name+".json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return nil, err
	}
	rec.Diagnostics = map[string]any{"trace_file": path, "pipeline_requests": pipe.requests}
	return rec, nil
}

// measureLive sets the workload up once and measures one window of
// tracedSlices, each as long as a timed run's at this run length.
func measureLive(w *workload, seed uint64, seconds float64, hostRec, targetRec *telemetry.Recorder) (*liveResult, error) {
	env, err := setupLive(w, seed, hostRec, targetRec)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer env.close()
	return env.measure(tracedSlices, sliceDuration(seconds)), nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// procMetrics are the whole-process costs of an untraced window.
func procMetrics(vals map[string]float64, p procDelta, ios int64) {
	n := float64(max(ios, 1))
	vals["proc.cpu_util"] = p.cpu.Seconds() / p.wall.Seconds() / float64(runtime.NumCPU())
	vals["proc.cpu_us_per_io"] = float64(p.cpu.Nanoseconds()) / 1e3 / n
	vals["proc.allocs_per_io"] = float64(p.mallocs) / n
	vals["proc.bytes_per_io"] = float64(p.allocBytes) / n
	vals["proc.gc_pause_ms"] = float64(p.gcPause.Nanoseconds()) / 1e6
}
