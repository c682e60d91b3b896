package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced nanosecond clock for recorder tests.
type fakeClock struct{ now int64 }

func (c *fakeClock) Now() int64 { return c.now }

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Trace(Event{Stage: StageSubmit, Tenant: 1, CID: 2})
	r.SetClockOffset(5, 10)
	if off, rtt := r.ClockOffset(); off != 0 || rtt != 0 {
		t.Fatalf("nil recorder ClockOffset = %d,%d", off, rtt)
	}
	if r.Role() != "" || r.Events() != nil {
		t.Fatal("nil recorder accessors not inert")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err == nil {
		t.Fatal("nil recorder WriteJSONL did not error")
	}
}

// TestRecorderRingWrap overfills one tenant's ring and checks the dump
// keeps exactly the newest capacity-many events in emission order.
func TestRecorderRingWrap(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(RecorderConfig{Clock: clk.Now, PerTenant: 8})
	for i := 0; i < 20; i++ {
		clk.now = int64(100 + i)
		r.Trace(Event{Stage: StageSubmit, Tenant: 3, CID: uint16(i), Prio: 2, Aux: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want ring capacity 8", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(12 + i) // 20 written, newest 8 kept
		if e.Seq != wantSeq || e.Aux != int64(12+i) || e.CID != uint16(12+i) {
			t.Fatalf("event %d = %+v, want seq/aux/cid %d", i, e, wantSeq)
		}
		if e.TS != int64(100+12+i) || e.Tenant != 3 || e.Prio != 2 || Stage(e.Stage) != StageSubmit {
			t.Fatalf("event %d fields wrong: %+v", i, e)
		}
	}
}

// TestRecorderDumpRoundTrip: WriteJSONL → ReadDump must be lossless for
// meta, events, and anomaly snapshots.
func TestRecorderDumpRoundTrip(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(RecorderConfig{
		Clock: clk.Now, PerTenant: 16, Role: "target",
		StallThreshold: 50 * time.Nanosecond,
	})
	r.SetClockOffset(12345, 678)
	clk.now = 1000
	r.Trace(Event{Stage: StageArrive, Tenant: 1, CID: 7, Prio: 2, Aux: 4096})
	r.Trace(Event{Stage: StageEnqueue, Tenant: 1, CID: 7, Prio: 2})
	clk.now = 2000
	r.Trace(Event{Stage: StageArrive, Tenant: 2, CID: 9, Prio: 1})
	clk.now = 5000 // 4000ns queue age > 50ns threshold: snapshot fires
	r.Trace(Event{Stage: StageDrainStart, Tenant: 1, Aux: 1})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"enqueue"`) {
		t.Fatal("dump lacks human-readable stage names")
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.Format != DumpFormat || d.Meta.Role != "target" ||
		d.Meta.ClockOffset != 12345 || d.Meta.RTT != 678 {
		t.Fatalf("meta round-trip wrong: %+v", d.Meta)
	}
	if !reflect.DeepEqual(d.Events, r.Events()) {
		t.Fatalf("events differ after round trip:\n got %+v\nwant %+v", d.Events, r.Events())
	}
	if len(d.Anomalies) != 1 || d.Anomalies[0].Kind != "drain-stall" {
		t.Fatalf("anomalies = %+v, want one drain-stall", d.Anomalies)
	}
	if d.Anomalies[0].AgeNS != 4000 || d.Anomalies[0].Tenant != 1 {
		t.Fatalf("snapshot fields wrong: %+v", d.Anomalies[0])
	}
	if len(d.Anomalies[0].Events) == 0 {
		t.Fatal("snapshot captured no ring events")
	}
}

// TestRecorderStallTrigger covers the arming logic: below-threshold drains
// must not snapshot, an empty-queue drain must not trip on stale state,
// and maxSnapshots bounds the retained post-mortems.
func TestRecorderStallTrigger(t *testing.T) {
	clk := &fakeClock{}
	r := NewRecorder(RecorderConfig{
		Clock: clk.Now, PerTenant: 16,
		StallThreshold: 100 * time.Nanosecond,
	})
	// Fast drain: no snapshot.
	clk.now = 0 // exercises the virtual-clock zero: enqueue at t=0 must still arm
	r.Trace(Event{Stage: StageEnqueue, Tenant: 5, CID: 1})
	clk.now = 50
	r.Trace(Event{Stage: StageDrainStart, Tenant: 5})
	if n := len(r.snapshots()); n != 0 {
		t.Fatalf("fast drain produced %d snapshots", n)
	}
	// Drain with nothing enqueued: no snapshot however late.
	clk.now = 10_000
	r.Trace(Event{Stage: StageDrainStart, Tenant: 5})
	if n := len(r.snapshots()); n != 0 {
		t.Fatalf("empty-queue drain produced %d snapshots", n)
	}
	// Repeated stalls: capped at maxSnapshots.
	for i := 0; i < maxSnapshots+2; i++ {
		clk.now += 10
		r.Trace(Event{Stage: StageEnqueue, Tenant: 5, CID: uint16(i)})
		clk.now += 500
		r.Trace(Event{Stage: StageDrainStart, Tenant: 5})
	}
	snaps := r.snapshots()
	if len(snaps) != maxSnapshots {
		t.Fatalf("retained %d snapshots, want maxSnapshots=%d", len(snaps), maxSnapshots)
	}
	for _, s := range snaps {
		if s.Kind != "drain-stall" || s.Tenant != 5 || s.AgeNS != 500 {
			t.Fatalf("snapshot wrong: %+v", s)
		}
	}
}

func TestReadDumpHeaderless(t *testing.T) {
	raw := `{"ts":200,"seq":1,"stage":0,"tenant":1,"cid":4,"prio":2,"aux":0}
{"ts":100,"seq":0,"stage":0,"tenant":1,"cid":3,"prio":2,"aux":0}
`
	d, err := ReadDump(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.Format != "" || len(d.Events) != 2 {
		t.Fatalf("headerless parse wrong: meta=%+v events=%d", d.Meta, len(d.Events))
	}
	if d.Events[0].TS != 100 {
		t.Fatalf("events not re-sorted: %+v", d.Events)
	}
}
