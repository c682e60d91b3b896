package tcptrans

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// TestServerTelemetryScrape drives real I/O through a telemetry-enabled
// target and reads the result back the way an operator would: over the
// HTTP exporter.
func TestServerTelemetryScrape(t *testing.T) {
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

	exp, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	hostTel := telemetry.New()
	conn, err := Dial(srv.Addr(), hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 16, NSID: 1,
		Telemetry: hostTel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const n = 16
	buf := make([]byte, 512)
	for i := 0; i < n; i++ {
		buf[0] = byte(i)
		if err := conn.Write(uint64(i), buf, 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < n; i++ {
		data, err := conn.Read(uint64(i), 1, 0)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if data[0] != byte(i) {
			t.Fatalf("read %d: got %d", i, data[0])
		}
	}

	tenant := conn.Tenant()

	// Both registries saw every request.
	assertTenant := func(reg *telemetry.Registry, side string) telemetry.TenantSnapshot {
		t.Helper()
		for _, s := range reg.Tenants() {
			if s.Tenant == uint16(tenant) {
				if s.Submitted < 2*n || s.Completed < 2*n {
					t.Fatalf("%s: submitted=%d completed=%d, want >= %d", side, s.Submitted, s.Completed, 2*n)
				}
				if s.Errors != 0 {
					t.Fatalf("%s: %d errored completions", side, s.Errors)
				}
				return s
			}
		}
		t.Fatalf("%s registry has no tenant %d", side, tenant)
		return telemetry.TenantSnapshot{}
	}
	assertTenant(hostTel, "host")
	ts := assertTenant(tel, "target")
	if ts.LatencySamples == 0 {
		t.Fatal("target recorded no service-latency samples despite wall clock")
	}
	if g := tel.Global(); g.Connections != 1 {
		t.Fatalf("target connections = %d, want 1", g.Connections)
	}

	// Operator's view: scrape /metrics over HTTP.
	resp, err := http.Get("http://" + exp.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	want := fmt.Sprintf(`nvmeopf_tenant_submitted_total{tenant="%d"}`, tenant)
	if !strings.Contains(text, want) {
		t.Fatalf("/metrics missing %q:\n%s", want, text)
	}
	for _, series := range []string{
		"nvmeopf_tenant_completed_total",
		"nvmeopf_tenant_drain_window",
		"nvmeopf_connections_total",
	} {
		if !strings.Contains(text, series) {
			t.Fatalf("/metrics missing series %q", series)
		}
	}

	// And the JSON debug endpoint agrees it is non-empty.
	dresp, err := http.Get("http://" + exp.Addr() + "/debug/tenants")
	if err != nil {
		t.Fatal(err)
	}
	dbody, err := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dbody), `"submitted"`) {
		t.Fatalf("/debug/tenants unexpected body: %s", dbody)
	}
}

// TestServerObservabilityEndpoints covers the live-wire flight-recorder
// surface: latency histogram series on /metrics, a parseable /debug/trace
// JSONL dump (what opf-trace merges), and a handshake-estimated clock
// offset on the client connection.
func TestServerObservabilityEndpoints(t *testing.T) {
	dev, err := bdev.NewMemory(512, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{Role: "target"})
	tel.SetRecorder(rec)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, Telemetry: tel, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	exp, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	hostRec := telemetry.NewRecorder(telemetry.RecorderConfig{Role: "host"})
	conn, err := Dial(srv.Addr(), hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 16, NSID: 1,
		Recorder: hostRec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	buf := make([]byte, 512)
	for i := 0; i < 8; i++ {
		if err := conn.Write(uint64(i), buf, 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	// The ICReq/ICResp handshake produced a clock estimate; on one machine
	// the offset is near zero but the RTT must be a real round trip.
	if _, rtt := conn.ClockOffset(); rtt <= 0 {
		t.Fatalf("handshake RTT = %d, want > 0", rtt)
	}
	if off1, rtt1 := hostRec.ClockOffset(); off1 == 0 && rtt1 == 0 {
		t.Fatal("host recorder never received the handshake clock estimate")
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + exp.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	tenant := conn.Tenant()
	if code, text := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	} else {
		for _, series := range []string{
			fmt.Sprintf(`nvmeopf_tenant_latency_hist_ns_bucket{tenant="%d",class="tc",le="1023"}`, tenant),
			fmt.Sprintf(`nvmeopf_tenant_latency_hist_ns_bucket{tenant="%d",class="tc",le="+Inf"}`, tenant),
			"nvmeopf_tenant_latency_hist_ns_sum",
			"nvmeopf_tenant_latency_hist_ns_count",
		} {
			if !strings.Contains(text, series) {
				t.Fatalf("/metrics missing %q:\n%s", series, text)
			}
		}
	}

	code, body := get("/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	dump, err := telemetry.ReadDump(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/debug/trace not parseable: %v", err)
	}
	if dump.Meta.Role != "target" || len(dump.Events) == 0 {
		t.Fatalf("/debug/trace dump role=%q events=%d", dump.Meta.Role, len(dump.Events))
	}

	// Without a recorder the endpoint reports there is nothing to dump.
	bare, err := telemetry.New().Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	resp, err := http.Get("http://" + bare.Addr() + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("recorder-less /debug/trace status %d, want 404", resp.StatusCode)
	}
}

// scrapeMetrics fetches /metrics from a live exporter and indexes every
// sample by its series name and labels.
func scrapeMetrics(t *testing.T, addr string) map[string]string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]string)
	for _, line := range strings.Split(string(body), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			samples[line[:i]] = line[i+1:]
		}
	}
	return samples
}

// TestMetricsFollowTheDatapath is the reader of the per-tenant /metrics
// families. One LS, one TC and one scavenger connection run against a
// telemetry-enabled target; every datapath family is then scraped over
// HTTP and checked against what the priority manager must have done: the
// LS tenant bypassed the queues and got one response per command, the TC
// tenant queued everything and got one coalesced response per drained
// window, the scavenger tenant parked its writes, and nothing was refused,
// replayed or dropped.
func TestMetricsFollowTheDatapath(t *testing.T) {
	tel := telemetry.New()
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: mustMem(t), Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	exp, err := tel.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	const (
		lsReads  = 8
		window   = 8
		tcWrites = 4 * window
		scWrites = 4
		block    = 4096
	)
	ls := dial2(t, srv, proto.PrioLatencySensitive, 1, 1)
	tc := dial2(t, srv, proto.PrioThroughputCritical, window, tcWrites)
	sc := dial2(t, srv, proto.PrioScavenger, 4, 8)
	for i := 0; i < lsReads; i++ {
		if _, err := ls.Read(uint64(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	payload := make([]byte, block)
	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < tcWrites; i++ {
		wg.Add(1)
		err := tc.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(100 + i), Blocks: 1, Data: payload,
			Done: func(r hostqp.Result) {
				if r.Err != nil || !r.Status.OK() {
					failed.Add(1)
				}
				wg.Done()
			}})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d TC writes failed", n)
	}
	for i := 0; i < scWrites; i++ {
		if err := sc.Write(uint64(200+i), payload, 0); err != nil {
			t.Fatal(err)
		}
	}

	m := scrapeMetrics(t, exp.Addr())
	get := func(family string, tenant proto.TenantID) string {
		t.Helper()
		series := fmt.Sprintf("%s{tenant=%q}", family, fmt.Sprint(tenant))
		v, ok := m[series]
		if !ok {
			t.Fatalf("/metrics has no %s", series)
		}
		return v
	}
	expect := func(family string, tenant proto.TenantID, want int) {
		t.Helper()
		if got := get(family, tenant); got != fmt.Sprint(want) {
			t.Errorf("%s{tenant=%d} = %s, want %d", family, tenant, got, want)
		}
	}
	histCount := func(tenant proto.TenantID, class string) string {
		return m[fmt.Sprintf("nvmeopf_tenant_latency_hist_ns_count{tenant=%q,class=%q}", fmt.Sprint(tenant), class)]
	}

	// The host closes a TC window with a drain flag every window-th
	// command. Should the submitting goroutine stall for the idle-drain
	// delay mid-window, the connection closes that window early with one
	// extra flush command; everything below holds either way.
	tcOps, _ := strconv.Atoi(get("nvmeopf_tenant_submitted_total", tc.Tenant()))
	if tcOps < tcWrites || tcOps > 2*tcWrites {
		t.Fatalf("TC submitted = %d, want %d plus idle flushes", tcOps, tcWrites)
	}

	// Every tenant: each command completed once, nothing errored, nothing
	// was refused admission, and no request is still queued.
	for _, c := range []struct {
		conn *Conn
		ops  int
	}{{ls, lsReads}, {tc, tcOps}, {sc, scWrites}} {
		id := c.conn.Tenant()
		expect("nvmeopf_tenant_submitted_total", id, c.ops)
		expect("nvmeopf_tenant_completed_total", id, c.ops)
		expect("nvmeopf_tenant_errors_total", id, 0)
		expect("nvmeopf_tenant_queue_depth", id, 0)
		expect("nvmeopf_busy_rejections_total", id, 0)
		expect("nvmeopf_tenant_forced_drains_total", id, 0)
	}

	// LS: bypassed the queues, one individual response per read.
	id := ls.Tenant()
	expect("nvmeopf_tenant_bytes_read_total", id, lsReads*block)
	expect("nvmeopf_tenant_bytes_written_total", id, 0)
	expect("nvmeopf_tenant_ls_bypass_total", id, lsReads)
	expect("nvmeopf_tenant_tc_queued_total", id, 0)
	expect("nvmeopf_tenant_drains_total", id, 0)
	expect("nvmeopf_tenant_suppressed_total", id, 0)
	expect("nvmeopf_tenant_responses_total", id, lsReads)
	expect("nvmeopf_tenant_coalesced_responses_total", id, 0)
	if got := get("nvmeopf_tenant_coalescing_ratio", id); got != "1.0000" {
		t.Errorf("LS coalescing ratio = %s, want 1.0000", got)
	}
	if got := histCount(id, "ls"); got != fmt.Sprint(lsReads) {
		t.Errorf("LS service-latency samples = %q, want %d", got, lsReads)
	}

	// TC: every command but a window's draining one parked in the tenant
	// queue; each drained window answered by one coalesced response, every
	// other completion suppressed.
	id = tc.Tenant()
	expect("nvmeopf_tenant_bytes_written_total", id, tcWrites*block)
	expect("nvmeopf_tenant_ls_bypass_total", id, 0)
	drains, _ := strconv.Atoi(get("nvmeopf_tenant_drains_total", id))
	if drains < tcWrites/window || drains > tcOps {
		t.Fatalf("TC drains = %d, want %d..%d", drains, tcWrites/window, tcOps)
	}
	expect("nvmeopf_tenant_tc_queued_total", id, tcOps-drains)
	expect("nvmeopf_tenant_responses_total", id, drains)
	expect("nvmeopf_tenant_coalesced_responses_total", id, drains)
	expect("nvmeopf_tenant_suppressed_total", id, tcOps-drains)
	if got, want := get("nvmeopf_tenant_coalescing_ratio", id), fmt.Sprintf("%.4f", float64(tcOps)/float64(drains)); got != want {
		t.Errorf("TC coalescing ratio = %s, want %s", got, want)
	}
	if w, _ := strconv.Atoi(get("nvmeopf_tenant_drain_window", id)); w < 1 || w > window {
		t.Errorf("TC drain window gauge = %d, want 1..%d", w, window)
	}
	if got := histCount(id, "tc"); got != fmt.Sprint(tcOps) {
		t.Errorf("TC service-latency samples = %q, want %d", got, tcOps)
	}

	// Scavenger: every write parked in the best-effort queue and left it
	// on idle capacity (no aging bound is configured).
	id = sc.Tenant()
	expect("nvmeopf_scavenger_queued_total", id, scWrites)
	expect("nvmeopf_scavenger_queue_depth", id, 0)
	expect("nvmeopf_scavenger_aged_drains_total", id, 0)
	if d, _ := strconv.Atoi(get("nvmeopf_scavenger_drains_total", id)); d < 1 {
		t.Errorf("scavenger drains = %d, want >= 1", d)
	}
	if _, ok := m[fmt.Sprintf("nvmeopf_scavenger_queued_total{tenant=%q}", fmt.Sprint(tc.Tenant()))]; ok {
		t.Error("a tenant without scavenger traffic exports scavenger series")
	}

	// Target-wide: three healthy connections on every shard.
	for series, want := range map[string]int{
		"nvmeopf_connections_total":      3,
		"nvmeopf_transport_errors_total": 0,
		"nvmeopf_disconnects_total":      0,
		"nvmeopf_teardown_dropped_total": 0,
		"nvmeopf_target_shards":          srv.Shards(),
	} {
		if got := m[series]; got != fmt.Sprint(want) {
			t.Errorf("%s = %q, want %d", series, got, want)
		}
	}
	// A closed connection's session is torn down with nothing left to drop.
	tc.Close()
	waitFor(t, "TC session teardown", func() bool {
		return scrapeMetrics(t, exp.Addr())["nvmeopf_disconnects_total"] == "1"
	})
	if got := scrapeMetrics(t, exp.Addr())["nvmeopf_teardown_dropped_total"]; got != "0" {
		t.Errorf("teardown dropped %s requests of a quiesced connection", got)
	}
}
