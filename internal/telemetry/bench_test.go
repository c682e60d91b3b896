package telemetry

import (
	"testing"

	"nvmeopf/internal/proto"
)

// TestDisabledRegistryZeroAllocs is the hard guarantee behind "nil
// registry = zero cost": the full submit-path instrument sequence on a
// disabled (nil) registry must not allocate. testing.AllocsPerRun makes
// this a test failure, not just a benchmark number.
func TestDisabledRegistryZeroAllocs(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(1000, func() {
		r.IncSubmitted(3, 4096)
		r.IncTCQueued(3)
		r.SetQueueDepth(3, 7)
		r.IncCompleted(3, 2, 1500, 4096, true)
		r.IncSuppressed(3)
		r.IncResponse(3, true)
	})
	if allocs != 0 {
		t.Fatalf("disabled registry allocated %.1f allocs/op on the submit path, want 0", allocs)
	}
}

// TestEnabledRegistryZeroAllocs: the enabled record path is atomics into
// pre-allocated slots — it must not allocate either.
func TestEnabledRegistryZeroAllocs(t *testing.T) {
	r := New()
	allocs := testing.AllocsPerRun(1000, func() {
		r.IncSubmitted(3, 4096)
		r.IncTCQueued(3)
		r.SetQueueDepth(3, 7)
		r.IncCompleted(3, 2, 1500, 4096, true)
		r.IncSuppressed(3)
		r.IncResponse(3, true)
	})
	if allocs != 0 {
		t.Fatalf("enabled registry allocated %.1f allocs/op on the record path, want 0", allocs)
	}
}

// TestRecorderTraceZeroAllocs: the flight recorder shares the registry's
// cost model — an enabled Trace is three atomic stores into a
// pre-installed ring (the lazy ring install happens on AllocsPerRun's
// warm-up call), and a nil recorder is one branch.
func TestRecorderTraceZeroAllocs(t *testing.T) {
	rec := NewRecorder(RecorderConfig{PerTenant: 64})
	ev := Event{Stage: StageSubmit, Tenant: 3, CID: 9, Prio: 2, Aux: 4096}
	if allocs := testing.AllocsPerRun(1000, func() { rec.Trace(ev) }); allocs != 0 {
		t.Fatalf("enabled recorder Trace allocated %.1f allocs/op, want 0", allocs)
	}
	var nilRec *Recorder
	if allocs := testing.AllocsPerRun(1000, func() { nilRec.Trace(ev) }); allocs != 0 {
		t.Fatalf("nil recorder Trace allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestHistRecordZeroAllocs: a host's end-to-end record path lands in a
// stats.AtomicHistogram installed on the class's first sample — after
// that it never allocates.
func TestHistRecordZeroAllocs(t *testing.T) {
	acc := NewE2EAccum()
	v := int64(0)
	if allocs := testing.AllocsPerRun(1000, func() {
		v += 997
		acc.Record(proto.PrioLatencySensitive, v)
	}); allocs != 0 {
		t.Fatalf("E2EAccum.Record allocated %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkRecorderTrace measures the per-event flight-recorder cost the
// reactor pays when a recorder is attached.
func BenchmarkRecorderTrace(b *testing.B) {
	rec := NewRecorder(RecorderConfig{})
	ev := Event{Stage: StageSubmit, Tenant: 3, CID: 9, Prio: 2, Aux: 4096}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Trace(ev)
	}
}

// BenchmarkDisabledSubmitPath measures the cost a telemetry-disabled
// datapath pays per request: one nil check per instrument call.
func BenchmarkDisabledSubmitPath(b *testing.B) {
	var r *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.IncSubmitted(3, 4096)
		r.IncCompleted(3, 2, 1500, 4096, true)
	}
}

// BenchmarkEnabledSubmitPath measures the enabled cost: atomic adds plus
// one ring sample store.
func BenchmarkEnabledSubmitPath(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.IncSubmitted(3, 4096)
		r.IncCompleted(3, 2, 1500, 4096, true)
	}
}

// BenchmarkEnabledSubmitPathParallel exercises contention: many
// goroutines recording into the same tenant slot.
func BenchmarkEnabledSubmitPathParallel(b *testing.B) {
	r := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.IncSubmitted(3, 4096)
			r.IncCompleted(3, 2, 1500, 4096, true)
		}
	})
}
