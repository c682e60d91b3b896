package stats

import (
	"strings"
	"testing"
)

func TestCounterRates(t *testing.T) {
	var c Counter
	c.Add(1000, 4096*1000)
	sec := int64(1e9)
	if got := c.IOPS(sec); got != 1000 {
		t.Errorf("IOPS = %v, want 1000", got)
	}
	if got := c.Bandwidth(sec); got != 4096*1000 {
		t.Errorf("Bandwidth = %v", got)
	}
	if c.IOPS(0) != 0 || c.Bandwidth(-1) != 0 {
		t.Error("nonpositive duration should give 0 rate")
	}
}

func TestCounterMerge(t *testing.T) {
	a := Counter{Ops: 1, Bytes: 10}
	b := Counter{Ops: 2, Bytes: 20}
	a.Merge(b)
	if a.Ops != 3 || a.Bytes != 30 {
		t.Fatalf("merge = %+v", a)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "2.50") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines (header, sep, 2 rows), got %d:\n%s", len(lines), out)
	}
	// Column alignment: "value" column should start at the same offset in
	// header and rows.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1") {
		t.Errorf("misaligned columns:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("x,y", `he said "hi"`)
	out := tb.CSV()
	want := "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}
