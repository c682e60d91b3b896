package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nvmeopf/internal/proto"
)

// The flight recorder keeps the recent past of every tenant's PDU
// lifecycle in bounded memory, always on, so that when an anomaly
// surfaces — a drain stall, a tail-latency excursion — the events that
// led up to it are already captured instead of needing a reproduction
// with tracing enabled. It is the black box the NTSB pulls from the
// wreck, not a logging pipeline.
//
// Design constraints, in order:
//
//  1. The record path must match the registry's cost model: no locks, no
//     allocation, a handful of atomic stores. It runs inside the reactor
//     goroutine of a live session for every traced PDU.
//  2. Memory is bounded: one fixed-size ring per active tenant, lazily
//     installed, overwriting oldest-first.
//  3. A torn slot (reader overlapping a wrap-around writer) may yield one
//     inconsistent event; the recorder is a sampling instrument, and
//     readers quiesce the workload (or tolerate one bad event) when exact
//     dumps matter.

// recSlot is one recorded event. Three independent atomics rather than
// one guarded struct: the writer makes three ordered stores, a racing
// reader can at worst observe a mix of two events (accepted, see above).
type recSlot struct {
	// meta packs stage<<40 | prio<<32 | tenant<<16 | cid (tenant IDs are
	// 16 bits wide).
	meta atomic.Uint64
	aux  atomic.Int64
	ts   atomic.Int64
}

func packMeta(e Event) uint64 {
	return uint64(e.Stage)<<40 | uint64(e.Prio)<<32 | uint64(e.Tenant)<<16 | uint64(e.CID)
}

// recRing is one tenant's event ring.
type recRing struct {
	mask  uint64
	next  atomic.Uint64 // total events ever written (reservation counter)
	slots []recSlot
}

// RecorderConfig configures a flight recorder. The zero value is usable:
// wall clock, default ring size, no stall detection.
type RecorderConfig struct {
	// Clock returns the current time in nanoseconds. Defaults to the wall
	// clock; simulations pass their virtual clock.
	Clock func() int64
	// PerTenant is the per-tenant ring capacity in events (rounded up to a
	// power of two; default 4096 ≈ 96 KiB per active tenant).
	PerTenant int
	// StallThreshold, when > 0, arms the anomaly trigger: a drain-start
	// whose oldest queued request has waited longer than this snapshots
	// the tenant's ring for post-mortem inspection.
	StallThreshold time.Duration
	// Role labels dumps ("host" or "target") so the correlator knows which
	// side it is looking at.
	Role string
}

const defaultRecorderRing = 4096

// maxSnapshots bounds the retained anomaly snapshots: the first ones after
// arming are kept — the interesting ones, since later stalls are usually
// echoes of the first.
const maxSnapshots = 4

// Recorder is the per-tenant flight recorder. A nil *Recorder is inert:
// Trace and every accessor are nil-receiver-safe, so wiring an optional
// recorder costs one branch when absent.
type Recorder struct {
	cfg   RecorderConfig
	stall int64 // cfg.StallThreshold in ns (0 = disarmed)

	rings [MaxTenants]atomic.Pointer[recRing]

	// oldestEnq[t] is 1 + the timestamp of the oldest event currently
	// queued (StageEnqueue seen, drain not yet started) for tenant t; 0
	// means the queue was empty at the last drain. Only ever written by
	// the tenant's emitting reactor, read by the same, so plain ordering
	// would do — atomics keep the race detector and cross-goroutine dump
	// readers happy.
	oldestEnq [MaxTenants]atomic.Int64

	// Clock correlation, set from the ICReq/ICResp handshake.
	clockOffset atomic.Int64
	rttEstimate atomic.Int64

	snapMu sync.Mutex
	snaps  []AnomalySnapshot
}

// NewRecorder creates a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	if cfg.PerTenant <= 0 {
		cfg.PerTenant = defaultRecorderRing
	}
	// Round up to a power of two so the ring index is a mask.
	n := 1
	for n < cfg.PerTenant {
		n <<= 1
	}
	cfg.PerTenant = n
	return &Recorder{cfg: cfg, stall: int64(cfg.StallThreshold)}
}

// Role returns the configured dump label.
func (r *Recorder) Role() string {
	if r == nil {
		return ""
	}
	return r.cfg.Role
}

// SetClockOffset records the handshake-derived clock correlation: offset
// is target-clock minus host-clock (add it to host timestamps to land on
// the target's axis), rtt the handshake round trip that bounds its error.
func (r *Recorder) SetClockOffset(offset, rtt int64) {
	if r == nil {
		return
	}
	r.clockOffset.Store(offset)
	r.rttEstimate.Store(rtt)
}

// ClockOffset returns the recorded offset and rtt bound (zero until a
// handshake supplied them).
func (r *Recorder) ClockOffset() (offset, rtt int64) {
	if r == nil {
		return 0, 0
	}
	return r.clockOffset.Load(), r.rttEstimate.Load()
}

func (r *Recorder) ring(t proto.TenantID) *recRing {
	if g := r.rings[t].Load(); g != nil {
		return g
	}
	g := &recRing{
		mask:  uint64(r.cfg.PerTenant - 1),
		slots: make([]recSlot, r.cfg.PerTenant),
	}
	if r.rings[t].CompareAndSwap(nil, g) {
		return g
	}
	return r.rings[t].Load()
}

// Trace records one lifecycle event; it is the TraceFunc to hang on a
// session or PM (method values on a nil *Recorder are safe). Events are
// stamped with the recorder's clock at entry.
func (r *Recorder) Trace(e Event) {
	if r == nil {
		return
	}
	now := r.cfg.Clock()
	g := r.ring(e.Tenant)
	idx := g.next.Add(1) - 1
	s := &g.slots[idx&g.mask]
	s.ts.Store(now)
	s.aux.Store(e.Aux)
	s.meta.Store(packMeta(e))

	// Drain-stall bookkeeping: remember when the tenant's queue went
	// non-empty; a drain releasing a queue older than the threshold is the
	// anomaly this recorder exists to catch.
	switch e.Stage {
	case StageEnqueue:
		if r.oldestEnq[e.Tenant].Load() == 0 {
			r.oldestEnq[e.Tenant].Store(now + 1)
		}
	case StageDrainStart:
		if enq := r.oldestEnq[e.Tenant].Load(); enq != 0 {
			r.oldestEnq[e.Tenant].Store(0)
			if age := now - (enq - 1); r.stall > 0 && age > r.stall {
				r.snapshotStall(e.Tenant, now, age)
			}
		}
	}
}

// AnomalySnapshot is one auto-captured post-mortem: the triggering
// condition plus the tenant's ring contents at that instant.
type AnomalySnapshot struct {
	Kind   string          `json:"kind"` // "drain-stall"
	TS     int64           `json:"ts"`
	Tenant uint16          `json:"tenant"`
	AgeNS  int64           `json:"age_ns"` // queue age that tripped the trigger
	Events []RecordedEvent `json:"events"`
}

// snapshotStall captures the tenant's ring (cold path: at most
// maxSnapshots times per process, under a mutex).
func (r *Recorder) snapshotStall(t proto.TenantID, now, age int64) {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	if len(r.snaps) >= maxSnapshots {
		return
	}
	r.snaps = append(r.snaps, AnomalySnapshot{
		Kind:   "drain-stall",
		TS:     now,
		Tenant: uint16(t),
		AgeNS:  age,
		Events: r.tenantEvents(t),
	})
}

// snapshots returns the retained anomaly snapshots, oldest first. Their
// reader is opf-trace: WriteJSONL carries them in every dump.
func (r *Recorder) snapshots() []AnomalySnapshot {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	out := make([]AnomalySnapshot, len(r.snaps))
	copy(out, r.snaps)
	return out
}

// RecordedEvent is one dumped flight-recorder event. Stage and Prio are
// numeric for lossless round trips; the JSONL writer adds the stage name
// as a comment field for human readers.
type RecordedEvent struct {
	TS     int64  `json:"ts"`
	Seq    uint64 `json:"seq"` // per-tenant emission order
	Stage  uint8  `json:"stage"`
	Tenant uint16 `json:"tenant"`
	CID    uint16 `json:"cid"`
	Prio   uint8  `json:"prio"`
	Aux    int64  `json:"aux"`
	Name   string `json:"name,omitempty"` // Stage.String(), informational
}

// tenantEvents reads one tenant's ring, oldest first. Seq reconstructs
// the emission order from the reservation counter.
func (r *Recorder) tenantEvents(t proto.TenantID) []RecordedEvent {
	g := r.rings[t].Load()
	if g == nil {
		return nil
	}
	total := g.next.Load()
	n := total
	if n > uint64(len(g.slots)) {
		n = uint64(len(g.slots))
	}
	out := make([]RecordedEvent, 0, n)
	for i := uint64(0); i < n; i++ {
		seq := total - n + i
		s := &g.slots[seq&g.mask]
		meta := s.meta.Load()
		st := Stage(meta >> 40)
		out = append(out, RecordedEvent{
			TS:     s.ts.Load(),
			Seq:    seq,
			Stage:  uint8(st),
			Tenant: uint16(meta >> 16),
			CID:    uint16(meta),
			Prio:   uint8(meta >> 32),
			Aux:    s.aux.Load(),
			Name:   st.String(),
		})
	}
	return out
}

// Events returns every retained event across all tenants in a
// deterministic global order: timestamp, then tenant, then per-tenant
// sequence (the tiebreak keeps same-instant events — common under a
// virtual clock — in causal per-tenant order).
func (r *Recorder) Events() []RecordedEvent {
	if r == nil {
		return nil
	}
	var out []RecordedEvent
	for t := 0; t < MaxTenants; t++ {
		out = append(out, r.tenantEvents(proto.TenantID(t))...)
	}
	sortRecorded(out)
	return out
}

func sortRecorded(evs []RecordedEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Seq < b.Seq
	})
}

// DumpMeta is the header line of a JSONL recorder dump.
type DumpMeta struct {
	Format      string `json:"format"` // "opf-flight-recorder/1"
	Role        string `json:"role"`   // "host" | "target"
	ClockOffset int64  `json:"clock_offset_ns"`
	RTT         int64  `json:"rtt_ns"`
	Events      int    `json:"events"`
	Snapshots   int    `json:"snapshots"`
}

// DumpFormat identifies the JSONL schema this package writes.
const DumpFormat = "opf-flight-recorder/1"

// WriteJSONL dumps the recorder: one meta header object, then one object
// per event (globally ordered), then one object per anomaly snapshot
// wrapped as {"anomaly": ...}.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("telemetry: nil recorder")
	}
	evs := r.Events()
	snaps := r.snapshots()
	off, rtt := r.ClockOffset()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(DumpMeta{
		Format:      DumpFormat,
		Role:        r.cfg.Role,
		ClockOffset: off,
		RTT:         rtt,
		Events:      len(evs),
		Snapshots:   len(snaps),
	}); err != nil {
		return err
	}
	for _, e := range evs {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	for _, s := range snaps {
		if err := enc.Encode(struct {
			Anomaly AnomalySnapshot `json:"anomaly"`
		}{s}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump is a parsed recorder dump.
type Dump struct {
	Meta      DumpMeta
	Events    []RecordedEvent
	Anomalies []AnomalySnapshot
}

// ReadDump parses a JSONL dump produced by WriteJSONL. It tolerates a
// missing header (treating every line as an event) so hand-built fixtures
// stay cheap to write.
func ReadDump(rd io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	d := &Dump{}
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var m DumpMeta
			if err := json.Unmarshal(line, &m); err == nil && m.Format != "" {
				d.Meta = m
				continue
			}
		}
		var wrap struct {
			Anomaly *AnomalySnapshot `json:"anomaly"`
		}
		if err := json.Unmarshal(line, &wrap); err == nil && wrap.Anomaly != nil {
			d.Anomalies = append(d.Anomalies, *wrap.Anomaly)
			continue
		}
		var e RecordedEvent
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("telemetry: bad dump line %q: %w", line, err)
		}
		d.Events = append(d.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sortRecorded(d.Events)
	return d, nil
}
