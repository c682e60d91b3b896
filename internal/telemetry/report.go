package telemetry

import (
	"fmt"
	"io"
	"sort"

	"nvmeopf/internal/proto"
	"nvmeopf/internal/stats"
)

// Offline analysis over correlated timelines: the engine behind the
// opf-trace CLI. Everything here is deterministic for a given input so
// reports can be golden-tested (under the simulator's virtual clock even
// the durations are reproducible bit-for-bit).

// Span names, in telescoping order. Adjacent spans share endpoints, so
// for a fully observed request the durations sum exactly to the
// end-to-end latency — the property the golden test asserts.
const (
	SpanXfer    = "xfer"    // submit → arrive (wire + handshake offset)
	SpanQueue   = "queue"   // arrive → drain-start (TC queue wait)
	SpanService = "service" // drain-start (or arrive) → device-complete
	SpanNotify  = "notify"  // device-complete → coalesced-notify
	SpanReturn  = "return"  // last target stage → complete (wire + replay)
)

// SpanOrder is the canonical presentation order.
var SpanOrder = []string{SpanXfer, SpanQueue, SpanService, SpanNotify, SpanReturn}

// Breakdown splits a timeline into named spans. Absent stages collapse
// their span into the neighbors (e.g. an LS request has no queue/notify
// span), preserving the telescoping-sum property for whatever stages were
// observed.
func Breakdown(tl *Timeline) map[string]int64 {
	out := map[string]int64{}
	submit, okSubmit := tl.TS(StageSubmit)
	arrive, okArrive := tl.TS(StageArrive)
	drain, okDrain := tl.TS(StageDrainStart)
	device, okDevice := tl.TS(StageDeviceComplete)
	notify, okNotify := tl.TS(StageCoalescedNotify)
	complete, okComplete := tl.TS(StageComplete)

	cursor, okCursor := submit, okSubmit
	step := func(name string, ts int64, ok bool) {
		if !ok {
			return
		}
		if okCursor {
			out[name] = ts - cursor
		}
		cursor, okCursor = ts, true
	}
	step(SpanXfer, arrive, okArrive)
	step(SpanQueue, drain, okDrain)
	step(SpanService, device, okDevice)
	step(SpanNotify, notify, okNotify)
	step(SpanReturn, complete, okComplete)
	return out
}

// Anomaly is one detected (or dump-carried) issue.
type Anomaly struct {
	Kind   string // "drain-stall" | "hol-blocking" | "incomplete"
	Tenant uint16
	CID    uint16
	Epoch  int
	// Detail is a one-line human explanation with the numbers inline.
	Detail string
}

// holFactor flags an LS request whose service span exceeds this multiple
// of the LS median while a TC drain window of another tenant overlaps it.
const holFactor = 4

// AnalyzeOptions tunes the detectors.
type AnalyzeOptions struct {
	// StallThreshold flags queue spans longer than this (ns). 0 disables
	// the recomputed detector (dump-carried snapshots still surface).
	StallThreshold int64
	// Top bounds the slowest-requests table (default 5).
	Top int
}

// TenantStats is one row of the per-tenant percentile table.
type TenantStats struct {
	Tenant uint16
	Class  Class
	Count  int
	P50    int64
	P95    int64
	P99    int64
	Max    int64
	// SpanMean holds the mean duration per span name.
	SpanMean map[string]int64
}

// Report is the analyzed result.
type Report struct {
	Corr       *Correlation
	Submitted  int
	Complete   int
	Incomplete int
	Stats      []TenantStats // tenant-major, LS before TC
	Slowest    []*Timeline
	Anomalies  []Anomaly
}

// ReconstructionRatio is complete/submitted (1 when nothing submitted).
func (r *Report) ReconstructionRatio() float64 {
	if r.Submitted == 0 {
		return 1
	}
	return float64(r.Complete) / float64(r.Submitted)
}

// Analyze runs the detectors and aggregations over a correlation.
func Analyze(c *Correlation, opts AnalyzeOptions) *Report {
	if opts.Top <= 0 {
		opts.Top = 5
	}
	r := &Report{Corr: c, Submitted: c.Submitted}

	type bucket struct {
		lats  []int64
		spans map[string]int64
		n     int
	}
	type tenantClassKey struct {
		tenant uint16
		class  uint8
	}
	buckets := map[tenantClassKey]*bucket{} // [tenant, class]
	var withE2E []*Timeline

	// Drain windows per tenant (for the HoL detector): intervals from
	// drain-start to coalesced-notify observed on TC timelines.
	type window struct{ start, end int64 }
	drainWin := map[uint16][]window{}

	for i := range c.Timelines {
		tl := &c.Timelines[i]
		cls := ClassOf(proto.Priority(tl.Prio))
		if !tl.Complete(c.TwoSided) || !tl.Monotonic(c.Tolerance) {
			r.Incomplete++
			r.Anomalies = append(r.Anomalies, Anomaly{
				Kind: "incomplete", Tenant: tl.Tenant, CID: tl.CID, Epoch: tl.Epoch,
				Detail: fmt.Sprintf("tenant=%d cid=%d epoch=%d: missing or non-monotonic stages (%d points)",
					tl.Tenant, tl.CID, tl.Epoch, len(tl.Points)),
			})
		} else {
			r.Complete++
		}
		bd := Breakdown(tl)
		key := tenantClassKey{tl.Tenant, uint8(cls)}
		b := buckets[key]
		if b == nil {
			b = &bucket{spans: map[string]int64{}}
			buckets[key] = b
		}
		if e2e, ok := tl.E2E(); ok {
			b.lats = append(b.lats, e2e)
			withE2E = append(withE2E, tl)
		}
		b.n++
		for _, name := range SpanOrder {
			b.spans[name] += bd[name]
		}
		if qs, ok := tl.TS(StageDrainStart); ok {
			if ns, ok2 := tl.TS(StageCoalescedNotify); ok2 {
				drainWin[tl.Tenant] = append(drainWin[tl.Tenant], window{qs, ns})
			}
			if opts.StallThreshold > 0 {
				if arr, okA := tl.TS(StageArrive); okA && qs-arr > opts.StallThreshold {
					r.Anomalies = append(r.Anomalies, Anomaly{
						Kind: "drain-stall", Tenant: tl.Tenant, CID: tl.CID, Epoch: tl.Epoch,
						Detail: fmt.Sprintf("tenant=%d cid=%d epoch=%d: queued %dns before drain (threshold %dns)",
							tl.Tenant, tl.CID, tl.Epoch, qs-arr, opts.StallThreshold),
					})
				}
			}
		}
	}

	// Dump-carried snapshots become anomalies verbatim.
	for _, s := range c.Anomalies {
		r.Anomalies = append(r.Anomalies, Anomaly{
			Kind: s.Kind, Tenant: s.Tenant,
			Detail: fmt.Sprintf("tenant=%d: recorder snapshot (%s), queue age %dns, %d events captured",
				s.Tenant, s.Kind, s.AgeNS, len(s.Events)),
		})
	}

	// HoL detector: LS service spans stretched under another tenant's
	// open drain window.
	var lsService []int64
	for i := range c.Timelines {
		tl := &c.Timelines[i]
		if !proto.Priority(tl.Prio).LatencySensitive() {
			continue
		}
		if d := Breakdown(tl)[SpanService]; d > 0 {
			lsService = append(lsService, d)
		}
	}
	if len(lsService) > 0 {
		sort.Slice(lsService, func(i, j int) bool { return lsService[i] < lsService[j] })
		median := stats.NearestRank(lsService, 0.5)
		limit := int64(float64(median) * holFactor)
		for i := range c.Timelines {
			tl := &c.Timelines[i]
			if !proto.Priority(tl.Prio).LatencySensitive() {
				continue
			}
			svc := Breakdown(tl)[SpanService]
			if svc <= limit || limit == 0 {
				continue
			}
			arr, okA := tl.TS(StageArrive)
			dev, okD := tl.TS(StageDeviceComplete)
			if !okA || !okD {
				continue
			}
			// One anomaly per blocked request, however many windows of
			// however many tenants its service time straddled. Tenants are
			// scanned in order so the named blocker is deterministic.
			flag := func() (uint16, bool) {
				tenants := make([]int, 0, len(drainWin))
				for tenant := range drainWin {
					tenants = append(tenants, int(tenant))
				}
				sort.Ints(tenants)
				for _, ti := range tenants {
					tenant := uint16(ti)
					wins := drainWin[tenant]
					if tenant == tl.Tenant {
						continue
					}
					for _, w := range wins {
						if arr < w.end && dev > w.start { // overlap
							return tenant, true
						}
					}
				}
				return 0, false
			}
			if tenant, blocked := flag(); blocked {
				r.Anomalies = append(r.Anomalies, Anomaly{
					Kind: "hol-blocking", Tenant: tl.Tenant, CID: tl.CID, Epoch: tl.Epoch,
					Detail: fmt.Sprintf("tenant=%d cid=%d epoch=%d: LS service %dns (median %dns) behind tenant %d drain window",
						tl.Tenant, tl.CID, tl.Epoch, svc, median, tenant),
				})
			}
		}
	}

	// Percentile tables.
	var keys []tenantClassKey
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].class < keys[j].class
	})
	for _, k := range keys {
		b := buckets[k]
		sort.Slice(b.lats, func(i, j int) bool { return b.lats[i] < b.lats[j] })
		ts := TenantStats{
			Tenant: k.tenant, Class: Class(k.class), Count: b.n,
			P50:      stats.NearestRank(b.lats, 0.50),
			P95:      stats.NearestRank(b.lats, 0.95),
			P99:      stats.NearestRank(b.lats, 0.99),
			SpanMean: map[string]int64{},
		}
		if n := len(b.lats); n > 0 {
			ts.Max = b.lats[n-1]
		}
		for _, name := range SpanOrder {
			if b.n > 0 {
				ts.SpanMean[name] = b.spans[name] / int64(b.n)
			}
		}
		r.Stats = append(r.Stats, ts)
	}

	// Slowest requests.
	sort.SliceStable(withE2E, func(i, j int) bool {
		a, _ := withE2E[i].E2E()
		b, _ := withE2E[j].E2E()
		if a != b {
			return a > b
		}
		if withE2E[i].Tenant != withE2E[j].Tenant {
			return withE2E[i].Tenant < withE2E[j].Tenant
		}
		return withE2E[i].CID < withE2E[j].CID
	})
	if len(withE2E) > opts.Top {
		withE2E = withE2E[:opts.Top]
	}
	r.Slowest = withE2E

	// Deterministic anomaly order.
	sort.SliceStable(r.Anomalies, func(i, j int) bool {
		a, b := r.Anomalies[i], r.Anomalies[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.CID != b.CID {
			return a.CID < b.CID
		}
		return a.Epoch < b.Epoch
	})
	return r
}

// WriteText renders the report for terminals (and the golden test).
// Timestamps are printed relative to the earliest event so wall-clock
// dumps normalize; durations print as-is.
func (r *Report) WriteText(w io.Writer) error {
	sides := "host"
	if r.Corr.TwoSided {
		sides = "host+target"
	} else if len(r.Corr.Timelines) > 0 && !r.Corr.Timelines[0].Has(StageSubmit) {
		sides = "target"
	}
	var err error
	p := func(format string, a ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, a...)
		}
	}
	p("== opf-trace report ==\n")
	p("dumps: %s  clock-offset=%dns  tolerance=%dns\n", sides, r.Corr.Offset, r.Corr.Tolerance)
	p("requests: %d submitted, %d reconstructed (%.1f%%), %d incomplete\n\n",
		r.Submitted, r.Complete, 100*r.ReconstructionRatio(), r.Incomplete)

	p("-- per-tenant end-to-end latency (ns) --\n")
	p("%6s %5s %6s %10s %10s %10s %10s\n", "tenant", "class", "count", "p50", "p95", "p99", "max")
	for _, s := range r.Stats {
		p("%6d %5s %6d %10d %10d %10d %10d\n", s.Tenant, s.Class, s.Count, s.P50, s.P95, s.P99, s.Max)
	}
	p("\n-- per-tenant mean stage durations (ns) --\n")
	p("%6s %5s", "tenant", "class")
	for _, name := range SpanOrder {
		p(" %9s", name)
	}
	p("\n")
	for _, s := range r.Stats {
		p("%6d %5s", s.Tenant, s.Class)
		for _, name := range SpanOrder {
			p(" %9d", s.SpanMean[name])
		}
		p("\n")
	}

	if len(r.Slowest) > 0 {
		p("\n-- slowest requests --\n")
		p("%6s %5s %5s %10s", "tenant", "cid", "epoch", "e2e")
		for _, name := range SpanOrder {
			p(" %9s", name)
		}
		p("\n")
		for _, tl := range r.Slowest {
			e2e, _ := tl.E2E()
			bd := Breakdown(tl)
			p("%6d %5d %5d %10d", tl.Tenant, tl.CID, tl.Epoch, e2e)
			for _, name := range SpanOrder {
				p(" %9d", bd[name])
			}
			p("\n")
		}
	}

	p("\n-- anomalies --\n")
	if len(r.Anomalies) == 0 {
		p("none detected\n")
	}
	for _, a := range r.Anomalies {
		p("[%s] %s\n", a.Kind, a.Detail)
	}
	return err
}
