package telemetry

import (
	"testing"

	"nvmeopf/internal/stats"
)

// TestCumulativeLEExactAtExportBounds: the /metrics bucket bounds coincide
// with internal bucket uppers, so the cumulative counts there are exact,
// not approximations.
func TestCumulativeLEExactAtExportBounds(t *testing.T) {
	h := &stats.AtomicHistogram{}
	for _, b := range histExportBounds {
		h.Record(b)     // lands exactly at the boundary: counts as <= b
		h.Record(b + 1) // first value of the next bucket: must not
	}
	hs := h.Snapshot()
	want := int64(0)
	for _, b := range histExportBounds {
		want++ // the sample at the boundary itself
		if got := hs.CumulativeLE(b); got != want {
			t.Fatalf("CumulativeLE(%d) = %d, want %d", b, got, want)
		}
		want++ // b+1 joins the population below the next boundary
	}
}

// TestClassOf pins the priority → class mapping (normal traffic accounts
// as TC: it shares the batched execution path).
func TestClassOf(t *testing.T) {
	if ClassOf(1) != ClassLS || ClassOf(0) != ClassTC || ClassOf(2) != ClassTC {
		t.Fatalf("ClassOf mapping wrong: ls=%v normal=%v tc=%v", ClassOf(1), ClassOf(0), ClassOf(2))
	}
	if ClassLS.String() != "ls" || ClassTC.String() != "tc" {
		t.Fatalf("class labels wrong: %q %q", ClassLS.String(), ClassTC.String())
	}
}
