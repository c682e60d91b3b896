// Command opf-top is a live terminal dashboard over an NVMe-oPF telemetry
// exporter (a target's or host's -metrics-addr). It polls the JSON debug
// endpoints — /debug/tenants, /debug/autotune, /debug/e2e — and renders a
// per-tenant table: class, drain window and admission cap, queue depth,
// IOPS and bandwidth with a sparkline history, the controller's burn rate
// and decision counts, and the host-reported e2e p99 with its egress gap
// (how much latency the host saw that the target's service clock did not).
//
// Usage:
//
//	opf-top -addr 127.0.0.1:9110              # refresh every second
//	opf-top -addr 127.0.0.1:9110 -once        # one plain frame (CI smoke)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"
)

// Mirrors of the exporter's JSON payloads, trimmed to the fields the
// dashboard renders. Field tags match the golden-tested wire format.
type debugTenants struct {
	Global struct {
		Connections int64 `json:"connections"`
	} `json:"global"`
	Tenants []struct {
		Tenant     uint16 `json:"tenant"`
		Class      string `json:"class"`
		Completed  int64  `json:"completed"`
		BytesRead  int64  `json:"bytes_read"`
		BytesWrite int64  `json:"bytes_written"`
		QueueDepth int64  `json:"queue_depth"`
		Window     int64  `json:"window"`
		Busy       int64  `json:"busy_rejections"`
		P99        int64  `json:"latency_p99_ns"`
	} `json:"tenants"`
}

type debugAutotune struct {
	Tenants []struct {
		Tenant    uint16  `json:"tenant"`
		Window    int     `json:"window"`
		Cap       int     `json:"cap"`
		Decisions []int64 `json:"decisions"` // shrink, grow, hold, cold
		Last      struct {
			BurnRate float64 `json:"burn_rate"`
		} `json:"last"`
	} `json:"tenants"`
}

type debugE2E struct {
	Tenants []struct {
		Tenant  uint16 `json:"tenant"`
		Updates int64  `json:"updates"`
		Classes []struct {
			Samples int64 `json:"samples"`
			P99NS   int64 `json:"p99_ns"`
			GapP99  int64 `json:"gap_p99_ns"`
		} `json:"classes"`
	} `json:"tenants"`
}

// frame is one poll of the exporter.
type frame struct {
	at       time.Time
	tenants  debugTenants
	autotune debugAutotune
	e2e      debugE2E
}

func poll(client *http.Client, base string) (*frame, error) {
	f := &frame{at: time.Now()}
	for _, ep := range []struct {
		path string
		into interface{}
	}{
		{"/debug/tenants", &f.tenants},
		{"/debug/autotune", &f.autotune},
		{"/debug/e2e", &f.e2e},
	} {
		resp, err := client.Get(base + ep.path)
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(ep.into)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ep.path, err)
		}
	}
	return f, nil
}

// sparkRunes are the 8-level sparkline alphabet.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled to their own maximum.
func sparkline(vals []float64) string {
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[i])
	}
	return b.String()
}

// history keeps per-tenant rate series between polls.
type history struct {
	prevAt    time.Time
	prevOps   map[uint16]int64
	prevBytes map[uint16]int64
	iops      map[uint16][]float64
}

const sparkLen = 24

func (h *history) update(f *frame) (iops, mbps map[uint16]float64) {
	iops = make(map[uint16]float64)
	mbps = make(map[uint16]float64)
	dt := f.at.Sub(h.prevAt).Seconds()
	ops := make(map[uint16]int64)
	bytes := make(map[uint16]int64)
	for _, t := range f.tenants.Tenants {
		ops[t.Tenant] = t.Completed
		bytes[t.Tenant] = t.BytesRead + t.BytesWrite
		if h.prevOps != nil && dt > 0 {
			iops[t.Tenant] = float64(ops[t.Tenant]-h.prevOps[t.Tenant]) / dt
			mbps[t.Tenant] = float64(bytes[t.Tenant]-h.prevBytes[t.Tenant]) / dt / 1e6
		}
		s := append(h.iops[t.Tenant], iops[t.Tenant])
		if len(s) > sparkLen {
			s = s[len(s)-sparkLen:]
		}
		h.iops[t.Tenant] = s
	}
	h.prevAt, h.prevOps, h.prevBytes = f.at, ops, bytes
	return iops, mbps
}

// classAbbrev compresses the wire class names to fixed-width labels.
func classAbbrev(c string) string {
	switch c {
	case "latency-sensitive":
		return "LS"
	case "throughput-critical":
		return "TC"
	}
	return c
}

func usec(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(ns)/1e3)
}

func render(f *frame, h *history, addr string, clear bool) {
	iops, mbps := h.update(f)

	type atRow struct {
		cap            int
		burn           float64
		shrinks, grows int64
		tuned          bool
	}
	ats := make(map[uint16]atRow)
	for _, t := range f.autotune.Tenants {
		r := atRow{cap: t.Cap, burn: t.Last.BurnRate, tuned: true}
		if len(t.Decisions) >= 2 {
			r.shrinks, r.grows = t.Decisions[0], t.Decisions[1]
		}
		ats[t.Tenant] = r
	}
	type e2eRow struct {
		p99, gap int64
		updates  int64
	}
	e2es := make(map[uint16]e2eRow)
	for _, t := range f.e2e.Tenants {
		r := e2eRow{updates: t.Updates}
		for _, c := range t.Classes {
			// A session carries one class; with several, show the busiest.
			if c.Samples >= 0 && (r.p99 == 0 || c.P99NS > r.p99) {
				r.p99, r.gap = c.P99NS, c.GapP99
			}
		}
		e2es[t.Tenant] = r
	}

	if clear {
		fmt.Print("\x1b[2J\x1b[H")
	}
	fmt.Printf("opf-top  %s  %s  conns=%d  tenants=%d\n",
		addr, f.at.Format("15:04:05"),
		f.tenants.Global.Connections, len(f.tenants.Tenants))
	fmt.Printf("%-3s %-5s %4s %4s %4s %9s %8s %7s %9s %9s %5s %5s  %s\n",
		"TEN", "CLASS", "WIN", "CAP", "QD", "IOPS", "MB/s", "BURN", "e2e_p99u", "gap_p99u", "SHRK", "GROW", "IOPS HISTORY")

	rows := f.tenants.Tenants
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tenant < rows[j].Tenant })

	for _, t := range rows {
		a, tuned := ats[t.Tenant]
		e := e2es[t.Tenant]
		capStr, burnStr, shrk, grow := "-", "-", "-", "-"
		if tuned {
			if a.cap > 0 {
				capStr = fmt.Sprint(a.cap)
			}
			if a.burn >= 0 {
				burnStr = fmt.Sprintf("%.2f", a.burn)
			}
			shrk, grow = fmt.Sprint(a.shrinks), fmt.Sprint(a.grows)
		}
		e2eStr, gapStr := "-", "-"
		if e.updates > 0 {
			e2eStr, gapStr = usec(e.p99), usec(e.gap)
		}
		fmt.Printf("%-3d %-5s %4d %4s %4d %9.0f %8.1f %7s %9s %9s %5s %5s  %s\n",
			t.Tenant, classAbbrev(t.Class), t.Window, capStr, t.QueueDepth,
			iops[t.Tenant], mbps[t.Tenant], burnStr, e2eStr, gapStr, shrk, grow,
			sparkline(h.iops[t.Tenant]))
	}
}

func main() {
	var (
		addr = flag.String("addr", "127.0.0.1:9110", "telemetry exporter address (a -metrics-addr)")
		once = flag.Bool("once", false, "render a single plain frame and exit (CI smoke)")
	)
	flag.Parse()

	base := "http://" + *addr
	client := &http.Client{Timeout: 5 * time.Second}
	h := &history{iops: make(map[uint16][]float64)}

	f, err := poll(client, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "opf-top: %v\n", err)
		os.Exit(1)
	}
	if *once {
		// Two closely spaced polls so the frame carries real rates.
		h.update(f)
		time.Sleep(250 * time.Millisecond)
		f, err = poll(client, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opf-top: %v\n", err)
			os.Exit(1)
		}
		render(f, h, *addr, false)
		return
	}
	render(f, h, *addr, false)
	for range time.Tick(time.Second) {
		f, err := poll(client, base)
		if err != nil {
			fmt.Printf("opf-top: %v (retrying)\n", err)
			continue
		}
		render(f, h, *addr, true)
	}
}
