package tcptrans

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// TestE2EFeedbackChannel drives real I/O over a live connection with the
// telemetry cadence on and asserts the full loop: the host's e2e deltas
// merge exactly into the target's per-tenant histograms (sample counts
// match the host's own completion count), the updates refresh the
// queue-depth gauge, and each ack re-estimates the clock offset.
func TestE2EFeedbackChannel(t *testing.T) {
	dev, err := bdev.NewMemory(512, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hostTel := telemetry.New()
	conn, err := DialWith(srv.Addr(), hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 4, QueueDepth: 16, NSID: 1,
		Telemetry: hostTel,
	}, DialConfig{TelemetryInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 24
	buf := make([]byte, 512)
	for i := 0; i < n; i++ {
		if err := conn.Write(uint64(i), buf, 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if _, err := conn.Read(uint64(i), 1, 0); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	tenant := conn.Tenant()

	// The cadence is asynchronous: wait for the target to have merged
	// everything the host completed.
	deadline := time.Now().Add(5 * time.Second)
	var samples int64
	for time.Now().Before(deadline) {
		if h := tel.E2EHist(tenant, telemetry.ClassLS); h != nil {
			if samples = h.Snapshot().Count(); samples == 2*n {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if samples != 2*n {
		t.Fatalf("target merged %d e2e samples, want %d (exact merge)", samples, 2*n)
	}

	var snap telemetry.E2ESnapshot
	for _, s := range tel.E2E() {
		if s.Tenant == uint16(tenant) {
			snap = s
		}
	}
	if snap.Updates == 0 {
		t.Fatal("no TelemetryUpdates recorded for the tenant")
	}
	if len(snap.Classes) != 1 || snap.Classes[0].Class != "ls" {
		t.Fatalf("classes = %+v, want one ls row", snap.Classes)
	}
	cs := snap.Classes[0]
	if cs.Samples != 2*n || cs.P99NS <= 0 || cs.MaxNS < cs.P99NS {
		t.Fatalf("ls snapshot %+v inconsistent", cs)
	}
	// The host e2e view includes the fabric round trip the service view
	// cannot: its p99 must dominate the target-side service p99.
	if cs.ServiceP99NS <= 0 || cs.GapP99NS < 0 {
		t.Fatalf("service p99 %d / gap %d, want positive service p99 and non-negative gap",
			cs.ServiceP99NS, cs.GapP99NS)
	}

	// The operator's view of the same merge: the exported histogram counts
	// every host completion, in every bucket up to +Inf.
	text := tel.PrometheusText()
	for _, series := range []string{
		fmt.Sprintf(`nvmeopf_e2e_latency_hist_ns_bucket{tenant="%d",class="ls",le="+Inf"} %d`, tenant, 2*n),
		fmt.Sprintf(`nvmeopf_e2e_latency_hist_ns_count{tenant="%d",class="ls"} %d`, tenant, 2*n),
	} {
		if !strings.Contains(text, series+"\n") {
			t.Fatalf("/metrics lacks %q", series)
		}
	}

	// The acks re-estimated the clock offset on the host. The target sends
	// each ack after its merge, so the last one may still be on the wire.
	var count int64
	for time.Now().Before(deadline) {
		if count, _ = hostTel.ClockReestimates(tenant); count > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if count == 0 {
		t.Fatal("no clock re-estimates recorded on the host")
	}
	if off, rtt := conn.ClockOffset(); rtt <= 0 {
		t.Fatalf("clock estimate (%d, %d), want positive rtt", off, rtt)
	}
}

// TestE2EDisabledIsInvisible pins the opt-in contract: without a
// TelemetryInterval, no TelemetryUpdate ever reaches the target and no
// e2e state exists — the wire and the registries look exactly like a
// build without the feature.
func TestE2EDisabledIsInvisible(t *testing.T) {
	dev, err := bdev.NewMemory(512, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := Dial(srv.Addr(), hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 4, QueueDepth: 16, NSID: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := make([]byte, 512)
	for i := 0; i < 8; i++ {
		if err := conn.Write(uint64(i), buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // long enough for any stray cadence

	if st := srv.Stats(); st.TelemetryUpdates != 0 {
		t.Fatalf("target merged %d TelemetryUpdates with the channel off", st.TelemetryUpdates)
	}
	if e2e := tel.E2E(); len(e2e) != 0 {
		t.Fatalf("e2e state exists with the channel off: %+v", e2e)
	}
}
