package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nvmeopf/internal/core"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// Geometry shared by every workload: 4 KiB logical blocks, and a 64 MiB
// LBA region per stream — larger than this host's CPU caches, so random
// reads pay for memory, and small enough that prefilling it stays a
// fraction of a second of set-up.
const (
	blockSize    = 4096
	regionBlocks = 16384
)

// streamSpec is one closed-loop connection: an NVMe queue pair submits its
// next command only when a CID frees, so the load is stated as queue depth.
type streamSpec struct {
	class      proto.Priority
	qd, window int
	op         nvme.Opcode
	blocks     uint32 // logical blocks per I/O
	sequential bool   // else uniformly random within the stream's region
	warmup     int    // warm-up I/Os before the measured window
	// bulk streams feed bulk_mbps; lat streams feed lat_mid_us and
	// lat_tail_us. The only stream of a single-class workload is both.
	bulk, lat bool
}

// workload is one named traffic mix. Later issues refer to these names.
type workload struct {
	name    string
	why     string
	streams []streamSpec
	// shards is ServerConfig.Shards; 0 keeps the default (one reactor per
	// core). The mixes force 1 so both tenants meet in one TargetPM.
	shards    int
	scavAging time.Duration
	sim       bool // sim-fig7: experiments.Run, no sockets
}

func lsRead() streamSpec {
	return streamSpec{class: proto.PrioLatencySensitive, qd: 1, window: 1,
		op: nvme.OpRead, blocks: 1, warmup: 2000, lat: true}
}

func tcRead(qd, window int) streamSpec {
	return streamSpec{class: proto.PrioThroughputCritical, qd: qd, window: window,
		op: nvme.OpRead, blocks: 1, warmup: 4096, bulk: true}
}

// both marks the stream of a single-class workload as bulk and lat.
func (s streamSpec) both() streamSpec {
	s.bulk, s.lat = true, true
	return s
}

// fig7TC is a TC initiator of the Fig. 7 case, with the drain window
// experiments.Run picks for it.
func fig7TC() streamSpec {
	return tcRead(128, core.OptimalWindow(core.WorkloadRead, 100, 3, 128))
}

var (
	tcWrite128k = streamSpec{class: proto.PrioThroughputCritical, qd: 16, window: 16,
		op: nvme.OpWrite, blocks: 32, sequential: true, warmup: 256}.both()
	scavWrite = streamSpec{class: proto.PrioScavenger, qd: 64, window: 16,
		op: nvme.OpWrite, blocks: 1, warmup: 4096, bulk: true}
)

var workloads = []workload{
	{
		name:    "ls-alone",
		why:     "1 LS conn, QD 1, 4 KiB random reads, nothing else running: every layer sits on the critical path once with no queueing, so the median is the per-hop latency budget",
		streams: []streamSpec{lsRead().both()},
	},
	{
		name:    "tc-read-4k",
		why:     "2 TC conns x QD 64, window 16, 4 KiB random reads, one conn per reactor shard: per-PDU CPU cost dominates, so proto/hostqp/targetqp/core savings and sharding show here",
		streams: []streamSpec{tcRead(64, 16).both(), tcRead(64, 16).both()},
	},
	{
		name:    "tc-write-128k",
		why:     "2 TC conns x QD 16, window 16, 128 KiB sequential writes: bytes dominate and flow host->target, so copy savings move it and per-PDU savings should not",
		streams: []streamSpec{tcWrite128k, tcWrite128k},
	},
	{
		name:    "mix-ls-tc",
		why:     "1 LS (QD 1) + 1 TC (QD 64, window 16) 4 KiB readers sharing one TargetPM: Fig. 6(a) on the live path, where bypass vs queue vs drain decides LS tail against TC throughput",
		streams: []streamSpec{lsRead(), tcRead(64, 16)},
		shards:  1,
	},
	{
		name:      "mix-ls-scav",
		why:       "as mix-ls-tc but the flood is a scavenger conn doing 4 KiB writes, aging 5 ms: the leftover-only drain path, where an LS regression behind best-effort traffic shows",
		streams:   []streamSpec{lsRead(), scavWrite},
		shards:    1,
		scavAging: 5 * time.Millisecond,
	},
	{
		name: "sim-fig7",
		why:  "no sockets: experiments.Run on the Fig. 7 case (100 Gbps, fan-in, 1 LS + 3 TC, read) in oPF and baseline mode; virtual-time outputs gate the reproduction, CPU per I/O gates simulator speed",
		// The streams give the case's class mix to the in-process pipeline
		// and the PM loops; the simulator builds its own runners.
		streams: []streamSpec{lsRead(), fig7TC(), fig7TC(), fig7TC()},
		sim:     true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef mirrors one metric entry of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, emitted by every workload's timed run.
// What each means on a workload is in README.md; bounds live in
// BENCHMARK.json only.
var endToEnd = []metricDef{
	{Name: "bulk_mbps", Unit: "MB/s", Better: "higher"},
	{Name: "lat_mid_us", Unit: "us", Better: "lower"},
	{Name: "lat_tail_us", Unit: "us", Better: "lower"},
	{Name: "cpu_us_per_io", Unit: "us", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// stageClasses and the span names key the live stage-span metrics:
// stage.<class>.<span>_p50_us and _p99_us.
var stageClasses = []string{"ls", "tc", "scav"}

// perLayer are the diagnostic metrics of the traced run, layer = package.
var perLayer = func() []metricDef {
	m := []metricDef{
		{Name: "proto.encode_ns_op", Unit: "ns", Better: "lower"},
		{Name: "proto.decode_ns_op", Unit: "ns", Better: "lower"},
		{Name: "proto.allocs_op", Unit: "count", Better: "lower"},
		{Name: "hostqp.submit_ns_op", Unit: "ns", Better: "lower"},
		{Name: "hostqp.complete_ns_op", Unit: "ns", Better: "lower"},
		{Name: "hostqp.allocs_op", Unit: "count", Better: "lower"},
		{Name: "hostqp.errors", Unit: "count", Better: "lower"},
		{Name: "core.hostpm_ns_op", Unit: "ns", Better: "lower"},
		{Name: "core.targetpm_ns_op", Unit: "ns", Better: "lower"},
		{Name: "targetqp.handle_ns_op", Unit: "ns", Better: "lower"},
		{Name: "bdev.read_ns_op", Unit: "ns", Better: "lower"},
		{Name: "bdev.write_ns_op", Unit: "ns", Better: "lower"},
		{Name: "tcptrans.residual_us", Unit: "us", Better: "lower"},
		{Name: "targetqp.resp_per_cmd", Unit: "ratio", Better: "lower"},
		{Name: "core.resps_suppressed_ratio", Unit: "ratio", Better: "higher"},
		{Name: "core.ls_bypassed", Unit: "count", Better: "higher"},
		{Name: "core.tc_queued", Unit: "count", Better: "higher"},
		{Name: "core.drains", Unit: "count", Better: "higher"},
		{Name: "core.forced_drains", Unit: "count", Better: "lower"},
		{Name: "core.busy_rejections", Unit: "count", Better: "lower"},
		{Name: "core.scav_drains", Unit: "count", Better: "higher"},
		{Name: "core.scav_aged_drains", Unit: "count", Better: "lower"},
	}
	for _, c := range stageClasses {
		for _, s := range []string{"xfer", "queue", "service", "notify", "return"} {
			m = append(m,
				metricDef{Name: "stage." + c + "." + s + "_p50_us", Unit: "us", Better: "lower"},
				metricDef{Name: "stage." + c + "." + s + "_p99_us", Unit: "us", Better: "lower"})
		}
	}
	return append(m,
		metricDef{Name: "stage.reconstruction_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "proc.cpu_util", Unit: "ratio", Better: "lower"},
		metricDef{Name: "proc.cpu_us_per_io", Unit: "us", Better: "lower"},
		metricDef{Name: "proc.allocs_per_io", Unit: "count", Better: "lower"},
		metricDef{Name: "proc.bytes_per_io", Unit: "B", Better: "lower"},
		metricDef{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "sim.tc_gain", Unit: "ratio", Better: "higher"},
		metricDef{Name: "sim.wall_s", Unit: "s", Better: "lower"},
	)
}()

// benchmarkFile is BENCHMARK.json: the frozen run length and the bounds.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadBenchmarkFile finds BENCHMARK.json in the working directory or its
// parent (`go run -C bench .` starts in bench/) and returns it with the
// directory it was found in.
func loadBenchmarkFile() (*benchmarkFile, string, error) {
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, "", err
		}
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bf, dir, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}
