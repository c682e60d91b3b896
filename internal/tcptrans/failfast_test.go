package tcptrans

// Failure-semantics tests on live sockets: a Conn whose socket dies fails
// each outstanding request exactly once with the transport error, and a
// fresh dial to the same target carries on; a target's admission cap
// answers the excess with StatusBusy, which reaches the caller as is; and
// the target's drain watchdog rescues a silent host's parked window. Run
// with -race.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/faultnet"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

func chaosPayload(i int, bs int) []byte {
	b := make([]byte, bs)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// TestResilientPolicyOnOneConn runs one kill schedule against a Conn's
// failure policy: the socket is reset once a quarter of a mixed read/write
// window has completed. The policy is to fail fast (recovery=false; nothing
// re-dials or replays). Every request completes exactly once; each the kill
// caught carries the transport error in Result.Err, each that finished
// first carries the right bytes, and a later submission is refused with the
// same error. A fresh DialWith to the same target then re-runs what failed,
// and every write reads back exact.
func TestResilientPolicyOnOneConn(t *testing.T) {
	t.Run("recovery=false", func(t *testing.T) {
		base := runtime.NumGoroutine()
		dev := newMemoryDevice(4096, 1<<12)
		const n, readBase = 48, 1000
		for i := 0; i < n; i++ {
			if err := dev.WriteBlocks(chaosPayload(readBase+i, 4096), uint64(readBase+i)); err != nil {
				t.Fatal(err)
			}
		}
		srv, err := Listen("127.0.0.1:0", ServerConfig{
			Mode: targetqp.ModeOPF, Device: dev,
			ReadLatency: time.Millisecond, WriteLatency: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1}
		inj := faultnet.NewInjector(11)
		c, err := DialWith(srv.Addr(), cfg, DialConfig{Dialer: faultnet.Dialer(inj)})
		if err != nil {
			t.Fatal(err)
		}

		op := func(i int) hostqp.IO {
			if i%2 == 1 {
				return hostqp.IO{Op: nvme.OpRead, LBA: uint64(readBase + i), Blocks: 1, Data: make([]byte, 4096)}
			}
			return hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: chaosPayload(i, 4096)}
		}
		var completed atomic.Int64
		counts := make([]atomic.Int32, n)
		results := make([]hostqp.Result, n) // written once per op, read after all completed
		for i := 0; i < n; i++ {
			io := op(i)
			io.Done = func(r hostqp.Result) {
				if counts[i].Add(1) == 1 {
					results[i] = r
				}
				completed.Add(1)
			}
			if err := c.Submit(io); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "a quarter of the ops completed", func() bool { return completed.Load() >= n/4 })
		inj.ResetAll()
		waitFor(t, "all ops completed", func() bool { return completed.Load() == n })
		time.Sleep(10 * time.Millisecond) // room for a second completion to show

		var lost []int
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("op %d completed %d times, want exactly once", i, got)
			}
			switch r := results[i]; {
			case r.Err != nil:
				lost = append(lost, i)
				if !errors.Is(r.Err, faultnet.ErrInjectedReset) || !errors.Is(r.Err, c.Err()) || !errors.Is(r.Err, ErrClosed) {
					t.Fatalf("op %d: %v does not wrap the transport error %v", i, r.Err, c.Err())
				}
			case !r.Status.OK():
				t.Fatalf("op %d: status %v with no error", i, r.Status)
			case i%2 == 1 && !bytes.Equal(r.Data, chaosPayload(readBase+i, 4096)):
				t.Fatalf("read %d returned the wrong bytes", i)
			}
		}
		if len(lost) == 0 {
			t.Fatal("the kill caught no request outstanding")
		}
		if _, err := c.Read(0, 1, 0); !errors.Is(err, c.Err()) {
			t.Fatalf("a read on the dead connection returned %v, want its error %v", err, c.Err())
		}
		c.Close()

		c, err = DialWith(srv.Addr(), cfg, DialConfig{})
		if err != nil {
			t.Fatalf("a fresh dial to the same target: %v", err)
		}
		for _, i := range lost {
			if _, err := c.Do(op(i)); err != nil {
				t.Fatalf("op %d on the fresh connection: %v", i, err)
			}
		}
		for i := 0; i < n; i += 2 {
			got, err := c.Read(uint64(i), 1, 0)
			if err != nil || !bytes.Equal(got, chaosPayload(i, 4096)) {
				t.Fatalf("lba %d: read-back mismatch (err %v)", i, err)
			}
		}
		c.Close()
		srv.Close()
		waitGoroutines(t, base)
	})
}

// TestBusyOverloadSurfacesStatusBusy floods a capped tenant with 4× its
// pending cap: the target pushes back with StatusBusy (never buffering
// past the cap), every request completes exactly once — done, or refused
// with StatusBusy and no transport error — and a latency-sensitive
// neighbour keeps admitting through its reserved headroom for the whole
// flood.
func TestBusyOverloadSurfacesStatusBusy(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := telemetry.New()
	dev := newMemoryDevice(4096, 1<<12)
	const capD = 4
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, WriteLatency: 2 * time.Millisecond,
		MaxPendingPerTenant: capD, MaxPendingGlobal: 64, LSHeadroom: 8,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 32, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}

	const n = 4 * capD
	var completed, busy atomic.Int64
	counts := make([]atomic.Int32, n)
	var mu sync.Mutex
	var failures []string
	for i := 0; i < n; i++ {
		err := tc.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: chaosPayload(i, 4096),
			Done: func(r hostqp.Result) {
				counts[i].Add(1)
				switch {
				case r.Err == nil && r.Status == nvme.StatusBusy:
					busy.Add(1)
				case r.Err != nil || !r.Status.OK():
					mu.Lock()
					failures = append(failures, fmt.Sprintf("op %d: status=%v err=%v", i, r.Status, r.Err))
					mu.Unlock()
				}
				completed.Add(1)
			},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// While the flood is being shed with busy rejections, the LS tenant
	// must keep admitting: its headroom is reserved, its own pending count
	// is far below the per-tenant cap.
	lsOps := 0
	for completed.Load() < n {
		if _, err := ls.Read(0, 1, 0); err != nil {
			t.Fatalf("LS read refused during TC flood: %v", err)
		}
		lsOps++
	}
	if lsOps == 0 {
		t.Error("LS tenant made no progress during the flood")
	}

	mu.Lock()
	if len(failures) > 0 {
		t.Fatalf("%d ops failed other than busy: %v", len(failures), failures)
	}
	mu.Unlock()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("op %d completed %d times, want exactly once", i, c)
		}
	}
	if busy.Load() == 0 {
		t.Error("flooding 4× the pending cap produced no busy rejections")
	}
	if got := srv.PMStats().BusyRejections; got != busy.Load() {
		t.Errorf("target refused %d requests, the host saw %d StatusBusy completions", got, busy.Load())
	}
	var counted int64
	for _, ts := range reg.Tenants() {
		counted += ts.BusyRejections
	}
	if counted != busy.Load() {
		t.Errorf("telemetry recorded %d busy rejections, want %d", counted, busy.Load())
	}

	tc.Close()
	ls.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestWatchdogForceDrainsSilentHost parks a TC window through a raw-PDU
// connection that never sends its draining flag (a real Conn's idle-drain
// would flush it), and asserts the target's watchdog force-drains the
// window after the deadline: the coalesced response arrives, the counters
// increment, and the trace shows StageForcedDrain.
func TestWatchdogForceDrainsSilentHost(t *testing.T) {
	base := runtime.NumGoroutine()
	reg := telemetry.New()
	dev := newMemoryDevice(4096, 1024)
	const deadline = 40 * time.Millisecond
	rec := telemetry.NewRecorder(telemetry.RecorderConfig{})
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev,
		DrainWatchdog: deadline, Telemetry: reg, Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}

	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.WritePDU(nc, &proto.ICReq{PFV: 1, QueueDepth: 16, Prio: proto.PrioThroughputCritical, NSID: 1}); err != nil {
		t.Fatal(err)
	}
	p, err := proto.ReadPDU(nc)
	if err != nil {
		t.Fatal(err)
	}
	icr, ok := p.(*proto.ICResp)
	if !ok {
		t.Fatalf("handshake answered with %v", p.PDUType())
	}

	// Park three TC writes and go silent — no draining flag, ever.
	for cid := nvme.CID(1); cid <= 3; cid++ {
		if err := proto.WritePDU(nc, &proto.CapsuleCmd{
			Cmd:    nvme.Command{Opcode: nvme.OpWrite, CID: cid, NSID: 1, SLBA: uint64(cid), NLB: 0},
			Prio:   proto.PrioThroughputCritical,
			Tenant: icr.Tenant,
			Data:   make([]byte, 4096),
		}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()

	// The watchdog must rescue the window: one coalesced response naming
	// the last parked CID, no earlier than the deadline.
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	p, err = proto.ReadPDU(nc)
	if err != nil {
		t.Fatalf("silent host never received the force-drain response: %v", err)
	}
	resp, ok := p.(*proto.CapsuleResp)
	if !ok {
		t.Fatalf("got %v, want CapsuleResp", p.PDUType())
	}
	if !resp.Coalesced || resp.Cpl.CID != 3 || !resp.Cpl.Status.OK() {
		t.Fatalf("force-drain response = CID %d coalesced=%v status=%v, want coalesced CID 3 OK",
			resp.Cpl.CID, resp.Coalesced, resp.Cpl.Status)
	}
	if elapsed := time.Since(start); elapsed < deadline-5*time.Millisecond {
		t.Fatalf("watchdog fired after %v, before the %v deadline", elapsed, deadline)
	}

	waitFor(t, "watchdog counters", func() bool {
		st := srv.PMStats()
		return st.WatchdogDrains >= 1 && st.ForcedDrains >= 1
	})
	var sawForced bool
	for _, e := range rec.Events() {
		if telemetry.Stage(e.Stage) == telemetry.StageForcedDrain {
			sawForced = true
		}
	}
	if !sawForced {
		t.Error("trace recorded no StageForcedDrain event")
	}

	nc.Close()
	waitFor(t, "session torn down", func() bool { return srv.ActiveSessions() == 0 })
	srv.Close()
	waitGoroutines(t, base)
}
