// Package nvmeopf is a from-scratch Go implementation of NVMe-oPF —
// "NVMe-over-Priority-Fabrics" (Ng et al., IPDPS 2024) — an NVMe-over-
// Fabrics runtime with multi-tenancy support: applications declare each
// connection (or individual request) latency-sensitive or
// throughput-critical, and the runtime honours the declaration end to end.
// Latency-sensitive requests bypass every queue; throughput-critical
// requests are batched per tenant at the target and their completion
// notifications are coalesced into one response per drain window, cutting
// completion-packet rate and per-completion CPU time.
//
// Two transports share the same protocol state machines:
//
//   - a real TCP transport (Dial / Listen) for running an actual target
//     and initiators on sockets, and
//   - a deterministic discrete-event simulator (NewSimCluster and the
//     RunExperiment harness) that models 10/25/100 Gbps fabrics, poller
//     CPUs, and NVMe SSDs, and regenerates every figure of the paper's
//     evaluation.
//
// Quickstart (real TCP, in-process target):
//
//	srv, _ := nvmeopf.ListenMemory("127.0.0.1:0", nvmeopf.ModeOPF, 4096, 1<<20)
//	defer srv.Close()
//	conn, _ := nvmeopf.Dial(srv.Addr(), nvmeopf.InitiatorConfig{
//		Class: nvmeopf.LatencySensitive, Window: 1, QueueDepth: 1, NSID: 1,
//	})
//	defer conn.Close()
//	_ = conn.Write(0, make([]byte, 4096), 0)
//	data, _ := conn.Read(0, 1, 0)
//	_ = data
package nvmeopf

import (
	"time"

	"nvmeopf/internal/autotune"
	"nvmeopf/internal/core"
	"nvmeopf/internal/experiments"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simcluster"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/tcptrans"
	"nvmeopf/internal/telemetry"
)

// Opcode is an NVMe I/O command opcode.
type Opcode = nvme.Opcode

// Opcodes.
const (
	OpFlush = nvme.OpFlush
	OpWrite = nvme.OpWrite
	OpRead  = nvme.OpRead
)

// Priority classifies a connection or request (two reserved PDU bits on
// the wire).
type Priority = proto.Priority

// Priority values.
const (
	// Normal is the legacy NVMe-oF behaviour (FIFO, one completion per
	// request); it is the zero value, and on an individual IO it means
	// "inherit the connection class".
	Normal = proto.PrioNormal
	// LatencySensitive requests bypass target queues and jump the device
	// queue.
	LatencySensitive = proto.PrioLatencySensitive
	// ThroughputCritical requests batch per tenant and complete via
	// coalesced notifications.
	ThroughputCritical = proto.PrioThroughputCritical
	// Scavenger requests are best-effort: the target parks them per tenant
	// and drains them only with leftover capacity (no LS request pending,
	// no un-drained TC window), force-draining after the configured aging
	// bound so they finish eventually without ever displacing foreground
	// traffic.
	Scavenger = proto.PrioScavenger
)

// Mode selects target behaviour.
type Mode = targetqp.Mode

// Modes.
const (
	// ModeBaseline reproduces unmodified SPDK: flags ignored, FIFO
	// execution, one completion notification per request.
	ModeBaseline = targetqp.ModeBaseline
	// ModeOPF enables the paper's priority schemes.
	ModeOPF = targetqp.ModeOPF
)

// InitiatorConfig configures one initiator connection: its priority
// class, drain window size, and queue depth.
type InitiatorConfig = hostqp.Config

// IO is one asynchronous I/O request.
type IO = hostqp.IO

// Result is an I/O completion.
type Result = hostqp.Result

// Conn is a TCP initiator connection.
type Conn = tcptrans.Conn

// Server is a TCP target.
type Server = tcptrans.Server

// ServerConfig configures a TCP target.
type ServerConfig = tcptrans.ServerConfig

// DialConfig bounds a connection's transport-level waits (handshake
// timeout, request timeout) and optionally replaces the socket dialer
// (fault injection plugs in here). The zero value gives the defaults.
type DialConfig = tcptrans.DialConfig

// Dial connects an initiator to a TCP target and completes the handshake.
func Dial(addr string, cfg InitiatorConfig) (*Conn, error) {
	return tcptrans.Dial(addr, cfg)
}

// DialWith is Dial with explicit transport timeouts and an optional
// custom dialer.
func DialWith(addr string, cfg InitiatorConfig, dcfg DialConfig) (*Conn, error) {
	return tcptrans.DialWith(addr, cfg, dcfg)
}

// DialRetry dials with exponential backoff and jitter, aborting
// immediately on permanent protocol rejections (see IsPermanent).
func DialRetry(addr string, cfg InitiatorConfig, attempts int, backoff time.Duration) (*Conn, error) {
	return tcptrans.DialRetry(addr, cfg, attempts, backoff)
}

// IsPermanent reports whether a dial error is a protocol-level rejection
// (version mismatch, unknown namespace, target termination) that retrying
// cannot fix.
func IsPermanent(err error) bool { return tcptrans.IsPermanent(err) }

// Listen starts a TCP target.
func Listen(addr string, cfg ServerConfig) (*Server, error) {
	return tcptrans.Listen(addr, cfg)
}

// ListenMemory starts a TCP target over a fresh in-memory device.
func ListenMemory(addr string, mode Mode, blockSize uint32, blocks uint64) (*Server, error) {
	return tcptrans.NewMemoryServer(addr, mode, blockSize, blocks)
}

// OptimalWindow returns the paper's static window-size selection (§IV-D)
// for a workload kind ("read", "write", or "mixed"), fabric speed, TC
// tenant count, and queue depth.
func OptimalWindow(kind string, gbps float64, tcInitiators, qd int) int {
	k := core.WorkloadRead
	switch kind {
	case "write":
		k = core.WorkloadWrite
	case "mixed":
		k = core.WorkloadMixed
	}
	return core.OptimalWindow(k, gbps, tcInitiators, qd)
}

// AutotuneConfig parameterizes the closed-loop adaptive drain-window
// controller: a per-shard feedback loop that, on every drain completion,
// re-computes a tenant's TC drain window and admission cap from the
// observed LS service-latency SLO burn rate and drain occupancy —
// multiplicative back-off while the LS error budget burns too fast,
// additive growth while there is headroom, clamped to the static
// formula's bounds (cold or healthy tenants run the static configuration
// bit-identically). Attach via ServerConfig.Autotune (one controller per
// reactor shard, sharing one LS signal) or SimOptions.Autotune (one per
// simulated target node); only ObjectiveNS is required. Decisions are
// visible on /debug/autotune when a Telemetry registry is attached.
type AutotuneConfig = autotune.Config

// AutotuneBudgetPPM converts an SLO compliance target (e.g. 0.999) to the
// violations-per-million error budget AutotuneConfig.BudgetPPM expects.
func AutotuneBudgetPPM(target float64) int64 { return autotune.BudgetPPMForTarget(target) }

// SimCluster is a deterministic simulated deployment.
type SimCluster = simcluster.Cluster

// SimOptions configures a simulated deployment.
type SimOptions = simcluster.Options

// SimProfile describes a simulated platform.
type SimProfile = simcluster.Profile

// NewSimCluster creates a simulated deployment.
func NewSimCluster(opts SimOptions) *SimCluster { return simcluster.New(opts) }

// SimProfileFor returns the platform profile the paper used for a line
// rate (10, 25, or 100 Gbps).
func SimProfileFor(gbps float64) (SimProfile, error) { return simcluster.ProfileFor(gbps) }

// ExperimentConfig scales the figure-regeneration harness.
type ExperimentConfig = experiments.Config

// ExperimentReport is one regenerated table/figure.
type ExperimentReport = experiments.Report

// Experiments lists the regenerable tables/figures.
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one of the paper's tables/figures by ID (see
// Experiments).
func RunExperiment(name string, cfg ExperimentConfig) (*ExperimentReport, error) {
	return experiments.ByName(name, cfg)
}

// DefaultExperimentConfig is the configuration used for EXPERIMENTS.md;
// QuickExperimentConfig is a fast smoke-run configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// QuickExperimentConfig returns a fast configuration for smoke runs.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// Telemetry is the live observability registry: lock-free per-tenant
// counters, gauges and latency histograms, and an HTTP exporter (Serve)
// with /metrics (Prometheus text), the /debug/tenants, /debug/autotune and
// /debug/e2e tables opf-top renders, and /debug/trace (the flight-recorder
// dump opf-trace reads). Create one with NewTelemetry, attach it via
// InitiatorConfig.Telemetry (host-side instruments), ServerConfig.Telemetry
// (target-side), or SimOptions.Telemetry (simulated targets), and read it
// back with the Telemetry() accessor on Conn, Server, or SimCluster. A nil
// *Telemetry disables instrumentation at zero cost.
type Telemetry = telemetry.Registry

// TelemetryExporter is a running HTTP endpoint serving a Telemetry
// registry (returned by Telemetry.Serve).
type TelemetryExporter = telemetry.Exporter

// TenantSnapshot is a point-in-time copy of one tenant's live instruments.
type TenantSnapshot = telemetry.TenantSnapshot

// TraceEvent is one PDU-lifecycle trace point (submit → enqueue →
// drain-start → device-complete → coalesced-notify → replay).
type TraceEvent = telemetry.Event

// TraceFunc receives lifecycle events; attach via InitiatorConfig.Trace,
// ServerConfig.Trace, or SimOptions.Trace.
type TraceFunc = telemetry.TraceFunc

// NewTelemetry creates an enabled telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// FlightRecorder is the always-on bounded-memory trace recorder:
// per-tenant lock-free rings of timestamped TraceEvents, JSONL dumps
// (WriteJSONL, or /debug/trace when attached to a Telemetry registry with
// SetRecorder), and automatic anomaly snapshots on drain stalls. Attach
// via InitiatorConfig.Recorder, ServerConfig.Recorder, or
// SimCluster.AttachFlightRecorders.
type FlightRecorder = telemetry.Recorder

// FlightRecorderConfig configures a FlightRecorder.
type FlightRecorderConfig = telemetry.RecorderConfig

// NewFlightRecorder creates a flight recorder.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return telemetry.NewRecorder(cfg)
}

// TraceDump is a parsed flight-recorder dump (see ReadTraceDump).
type TraceDump = telemetry.Dump

// ReadTraceDump parses a JSONL dump written by FlightRecorder.WriteJSONL
// or served at /debug/trace.
var ReadTraceDump = telemetry.ReadDump

// CorrelateTraces merges a host-side and a target-side dump (either may
// be nil) into per-request timelines on one clock axis, using the
// handshake-estimated clock offset.
var CorrelateTraces = telemetry.Correlate

// ChainTrace composes trace hooks so one event stream can feed several
// consumers (e.g. a recorder plus a custom TraceFunc).
var ChainTrace = telemetry.ChainTrace
