package tcptrans

// Recovery-policy tests: the DialRetry backoff policy on a fake clock, a
// recovering Conn's transparent reconnect + replay under injected
// connection resets (idempotent requests complete exactly once at the
// application level; non-idempotent failures surface the original typed
// transport error), busy-retry under target admission control, and the
// target's drain watchdog rescuing a silent host's parked window over a
// real socket. Run with -race.

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
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

// TestDialRetryBackoffPolicy pins the retry engine's policy without real
// waits: exponential doubling from the base, a 32× cap, jitter bounded by
// 50% of the pre-jitter wait, and an immediate stop on permanent protocol
// rejections.
func TestDialRetryBackoffPolicy(t *testing.T) {
	const base = 10 * time.Millisecond
	var sleeps []time.Duration
	record := func(d time.Duration) { sleeps = append(sleeps, d) }
	rng := rand.New(rand.NewSource(1))

	_, used, err := retryLoop(8, base, record, rng, func() (*Conn, error) {
		return nil, errors.New("connection refused")
	})
	if err == nil || used != 8 {
		t.Fatalf("exhausted loop: used=%d err=%v", used, err)
	}
	want := []time.Duration{base, 2 * base, 4 * base, 8 * base, 16 * base, 32 * base, 32 * base}
	if len(sleeps) != len(want) {
		t.Fatalf("%d sleeps, want %d", len(sleeps), len(want))
	}
	for i, d := range sleeps {
		lo, hi := want[i], want[i]+want[i]/2
		if d < lo || d > hi {
			t.Errorf("sleep %d = %v, want within [%v, %v]", i, d, lo, hi)
		}
	}

	// A permanent protocol rejection must stop the loop on the spot: the
	// target will reject attempt N exactly as it rejected attempt 1.
	sleeps = nil
	perm := fmt.Errorf("handshake: %w", &hostqp.ProtocolError{FES: 1, Reason: "bad PFV"})
	_, used, err = retryLoop(8, base, record, rng, func() (*Conn, error) { return nil, perm })
	if !errors.Is(err, perm) || used != 1 || len(sleeps) != 0 {
		t.Fatalf("permanent rejection: used=%d sleeps=%d err=%v", used, len(sleeps), err)
	}

	// Success after transient failures consumes exactly the attempts used.
	sleeps = nil
	calls := 0
	_, used, err = retryLoop(8, base, record, rng, func() (*Conn, error) {
		if calls++; calls < 3 {
			return nil, errors.New("transient")
		}
		return nil, nil
	})
	if err != nil || used != 3 || len(sleeps) != 2 {
		t.Fatalf("transient recovery: used=%d sleeps=%d err=%v", used, len(sleeps), err)
	}
}

// writeLogDevice records every write's payload per LBA so a test can prove
// that replays were byte-identical (device-level at-least-once is allowed
// for idempotent replays; divergent payloads are not).
type writeLogDevice struct {
	*memoryDevice
	mu  sync.Mutex
	log map[uint64][][]byte
}

func newWriteLogDevice(bs uint32, blocks uint64) *writeLogDevice {
	return &writeLogDevice{memoryDevice: newMemoryDevice(bs, blocks), log: make(map[uint64][][]byte)}
}

func (d *writeLogDevice) WriteBlocks(buf []byte, lba uint64) error {
	d.mu.Lock()
	bs := uint64(d.BlockSize())
	for i := uint64(0); i < uint64(len(buf))/bs; i++ {
		d.log[lba+i] = append(d.log[lba+i], append([]byte(nil), buf[i*bs:(i+1)*bs]...))
	}
	d.mu.Unlock()
	return d.memoryDevice.WriteBlocks(buf, lba)
}

func (d *writeLogDevice) history(lba uint64) [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log[lba]
}

func chaosPayload(i int, bs int) []byte {
	b := make([]byte, bs)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// TestResilientChaosReplayExactlyOnce is the recovery acceptance test: a
// faultnet link is reset under a recovering Conn — once before traffic and
// once mid-flight — and every idempotent write must still complete exactly
// once at the application level, with the device write log proving all
// (re)executions of an LBA carried identical bytes.
func TestResilientChaosReplayExactlyOnce(t *testing.T) {
	base := runtime.NumGoroutine()
	dev := newWriteLogDevice(4096, 1<<12)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, WriteLatency: 500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	inj := faultnet.NewInjector(3)
	hostReg := telemetry.New()
	rc, err := DialWith(srv.Addr(), hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1, Telemetry: hostReg,
	}, DialConfig{
		RequestTimeout: 2 * time.Second,
		Dialer:         faultnet.Dialer(inj),
		Recovery: &RecoveryConfig{
			MaxAttempts: 64, Backoff: 500 * time.Microsecond,
			Budget: 4096, RequeueLS: true, RequeueTC: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the freshly dialed connection before any traffic: every request
	// below provably rides the recovery machinery at least once.
	inj.ResetAll()

	const n = 64
	var completed atomic.Int64
	counts := make([]atomic.Int32, n)
	var mu sync.Mutex
	var failures []string
	for i := 0; i < n; i++ {
		i := i
		err := rc.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1,
			Data: chaosPayload(i, 4096), Idempotent: true,
			Done: func(r hostqp.Result) {
				err := r.Err
				counts[i].Add(1)
				if err != nil || !r.Status.OK() {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("op %d: status=%v err=%v", i, r.Status, err))
					mu.Unlock()
				}
				completed.Add(1)
			},
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// Second kill mid-flight: the outstanding requests on the recovered
	// connection abort and take the replay path.
	waitFor(t, "a quarter of the ops completed", func() bool { return completed.Load() >= n/4 })
	inj.ResetAll()
	waitFor(t, "all ops completed", func() bool { return completed.Load() == n })

	mu.Lock()
	if len(failures) > 0 {
		t.Fatalf("%d ops failed despite replay eligibility: %v", len(failures), failures)
	}
	mu.Unlock()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("op %d completed %d times, want exactly once", i, c)
		}
	}
	if r := rc.Reconnects(); r < 2 {
		t.Errorf("reconnects = %d, want >= 2 (two injected resets)", r)
	}
	var replayed int64
	for _, ts := range hostReg.Tenants() {
		replayed += ts.Replayed
	}
	if replayed == 0 {
		t.Error("mid-flight reset replayed no requests")
	}

	// Device-level proof: an idempotent replay may execute more than once,
	// but every execution of an LBA must have carried identical bytes, and
	// the surviving content must match — verified through a post-recovery
	// read on the same client.
	for i := 0; i < n; i++ {
		want := chaosPayload(i, 4096)
		hist := dev.history(uint64(i))
		if len(hist) == 0 {
			t.Fatalf("lba %d: never written", i)
		}
		for k, entry := range hist {
			if !bytes.Equal(entry, want) {
				t.Fatalf("lba %d: execution %d diverged from the submitted payload", i, k)
			}
		}
		got, err := rc.Read(uint64(i), 1, 0)
		if err != nil {
			t.Fatalf("read-back lba %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("lba %d: read-back mismatch", i)
		}
	}

	rc.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestResilientNonIdempotentSurfacesOriginalError: a write not marked
// idempotent must not be replayed after a connection loss — it fails with
// the original transport error reachable through the chain — while an
// idempotent request submitted during the outage still completes.
func TestResilientNonIdempotentSurfacesOriginalError(t *testing.T) {
	base := runtime.NumGoroutine()
	dev := newMemoryDevice(4096, 1024)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, WriteLatency: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultnet.NewInjector(5)
	rc, err := DialWith(srv.Addr(), hostqp.Config{
		Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1,
	}, DialConfig{
		Dialer: faultnet.Dialer(inj),
		Recovery: &RecoveryConfig{
			MaxAttempts: 16, Backoff: time.Millisecond, RequeueLS: true, RequeueTC: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	writeErr := make(chan error, 1)
	err = rc.Submit(hostqp.IO{
		Op: nvme.OpWrite, LBA: 1, Blocks: 1, Data: make([]byte, 4096), // Idempotent NOT set
		Done: func(r hostqp.Result) { writeErr <- r.Err },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Let the capsule reach the device (held there for 100ms), then cut the
	// connection underneath it.
	time.Sleep(20 * time.Millisecond)
	inj.ResetAll()

	select {
	case err := <-writeErr:
		if err == nil {
			t.Fatal("non-idempotent write completed despite connection loss")
		}
		if !errors.Is(err, faultnet.ErrInjectedReset) {
			t.Fatalf("original transport error not in chain: %v", err)
		}
		if !strings.Contains(err.Error(), "not replayable") {
			t.Fatalf("error does not state the replay refusal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("non-idempotent write never completed")
	}

	// A request submitted during/after the outage rides recovery and
	// completes — the client healed even though the write was not replayed.
	if _, err := rc.Read(1, 1, 0); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
	if rc.Reconnects() < 1 {
		t.Error("client never reconnected")
	}

	rc.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestResilientBusyRetryOverload floods a capped tenant with 4× its
// pending cap: the target pushes back with StatusBusy (never buffering
// past the cap), the busy-retrying client still completes every request
// exactly once, and a latency-sensitive neighbour keeps admitting through
// its reserved headroom for the whole flood.
func TestResilientBusyRetryOverload(t *testing.T) {
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
	hostReg := telemetry.New()
	rc, err := DialWith(srv.Addr(), hostqp.Config{
		Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 32, NSID: 1, Telemetry: hostReg,
	}, DialConfig{
		Recovery: &RecoveryConfig{
			MaxAttempts: 8, Backoff: time.Millisecond,
			Budget: 1 << 16, BusyBackoff: time.Millisecond,
			RequeueLS: true, RequeueTC: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}

	const n = 4 * capD
	var completed atomic.Int64
	counts := make([]atomic.Int32, n)
	var mu sync.Mutex
	var failures []string
	for i := 0; i < n; i++ {
		i := i
		err := rc.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1,
			Data: chaosPayload(i, 4096), Idempotent: true,
			Done: func(r hostqp.Result) {
				err := r.Err
				counts[i].Add(1)
				if err != nil || !r.Status.OK() {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("op %d: status=%v err=%v", i, r.Status, err))
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
		t.Fatalf("%d ops failed: %v", len(failures), failures)
	}
	mu.Unlock()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Errorf("op %d completed %d times, want exactly once", i, c)
		}
	}
	if got := srv.PMStats().BusyRejections; got == 0 {
		t.Error("flooding 4× the pending cap produced no busy rejections")
	}
	var busy, replayed int64
	for _, ts := range reg.Tenants() {
		busy += ts.BusyRejections
	}
	for _, ts := range hostReg.Tenants() {
		replayed += ts.Replayed
	}
	if busy == 0 {
		t.Error("telemetry recorded no busy rejections")
	}
	if replayed == 0 {
		t.Error("telemetry recorded no replayed (busy-retried) requests")
	}

	rc.Close()
	ls.Close()
	srv.Close()
	waitGoroutines(t, base)
}

// TestCloseFailsParkedBusyRetry: a busy-rejected request waits out its
// backoff on the reactor, not on a timer goroutine of its own, so Close
// fails it — every completion has run, with ErrClosed, by the time Close
// returns.
func TestCloseFailsParkedBusyRetry(t *testing.T) {
	base := runtime.NumGoroutine()
	dev := newMemoryDevice(4096, 1024)
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev, WriteLatency: time.Second, // holds the admitted write
		MaxPendingPerTenant: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWith(srv.Addr(), lsConfig(), DialConfig{
		Recovery: &RecoveryConfig{BusyBackoff: time.Minute, RequeueLS: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	var completed atomic.Int32
	var mu sync.Mutex
	var wrong []string
	for i := 0; i < n; i++ {
		err := c.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 4096), Idempotent: true,
			Done: func(r hostqp.Result) {
				if !errors.Is(r.Err, ErrClosed) {
					mu.Lock()
					wrong = append(wrong, fmt.Sprintf("status=%v err=%v", r.Status, r.Err))
					mu.Unlock()
				}
				completed.Add(1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// One write is admitted and held by the device; the rest are refused
	// and parked for a minute.
	waitFor(t, "busy rejections", func() bool { return srv.PMStats().BusyRejections >= n-1 })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := completed.Load(); got != n {
		t.Fatalf("%d of %d completions had run when Close returned", got, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(wrong) > 0 {
		t.Fatalf("requests failed by Close without ErrClosed: %v", wrong)
	}
	srv.Close()
	waitGoroutines(t, base)
}

// TestResilientPolicyOnOneConn runs one kill schedule — a quarter of the
// requests done, then the link reset — against the same Conn type with
// and without a recovery policy. Without one, every request completes
// exactly once, and each that the kill caught carries the transport error
// in Result.Err. With one, the reads and idempotent writes all complete
// exactly once and successfully, and read back byte-exact.
func TestResilientPolicyOnOneConn(t *testing.T) {
	for _, recovering := range []bool{false, true} {
		t.Run(fmt.Sprintf("recovery=%v", recovering), func(t *testing.T) {
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
			inj := faultnet.NewInjector(11)
			dcfg := DialConfig{Dialer: faultnet.Dialer(inj)}
			if recovering {
				dcfg.Recovery = &RecoveryConfig{
					MaxAttempts: 64, Backoff: 500 * time.Microsecond,
					Budget: 4096, RequeueLS: true, RequeueTC: true,
				}
			}
			c, err := DialWith(srv.Addr(), hostqp.Config{
				Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 8, NSID: 1,
			}, dcfg)
			if err != nil {
				t.Fatal(err)
			}

			var completed atomic.Int64
			counts := make([]atomic.Int32, n)
			results := make([]hostqp.Result, n) // written once per op, read after all completed
			for i := 0; i < n; i++ {
				io := hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: chaosPayload(i, 4096), Idempotent: true}
				if i%2 == 1 {
					io = hostqp.IO{Op: nvme.OpRead, LBA: uint64(readBase + i), Blocks: 1, Data: make([]byte, 4096)}
				}
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

			lost := 0
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("op %d completed %d times, want exactly once", i, got)
				}
				r := results[i]
				switch {
				case recovering && (r.Err != nil || !r.Status.OK()):
					t.Fatalf("op %d failed under recovery: status=%v err=%v", i, r.Status, r.Err)
				case r.Err != nil:
					lost++
					if !errors.Is(r.Err, faultnet.ErrInjectedReset) || !errors.Is(r.Err, c.Err()) || !errors.Is(r.Err, ErrClosed) {
						t.Fatalf("op %d: %v does not wrap the transport error %v", i, r.Err, c.Err())
					}
				case !r.Status.OK():
					t.Fatalf("op %d: status %v with no error", i, r.Status)
				case i%2 == 1 && !bytes.Equal(r.Data, chaosPayload(readBase+i, 4096)):
					t.Fatalf("read %d returned the wrong bytes", i)
				}
			}
			if !recovering {
				if lost == 0 {
					t.Fatal("the kill caught no request outstanding")
				}
			} else {
				if c.Reconnects() < 1 {
					t.Fatalf("reconnects = %d, want >= 1", c.Reconnects())
				}
				for i := 0; i < n; i += 2 {
					got, err := c.Read(uint64(i), 1, 0)
					if err != nil || !bytes.Equal(got, chaosPayload(i, 4096)) {
						t.Fatalf("lba %d: read-back mismatch (err %v)", i, err)
					}
				}
			}
			c.Close()
			srv.Close()
			waitGoroutines(t, base)
		})
	}
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
	var traceMu sync.Mutex
	var stages []telemetry.Stage
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: dev,
		DrainWatchdog: deadline, Telemetry: reg,
		Trace: func(e telemetry.Event) {
			traceMu.Lock()
			stages = append(stages, e.Stage)
			traceMu.Unlock()
		},
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
	traceMu.Lock()
	var sawForced bool
	for _, s := range stages {
		if s == telemetry.StageForcedDrain {
			sawForced = true
		}
	}
	traceMu.Unlock()
	if !sawForced {
		t.Error("trace recorded no StageForcedDrain event")
	}

	nc.Close()
	waitFor(t, "session torn down", func() bool { return srv.ActiveSessions() == 0 })
	srv.Close()
	waitGoroutines(t, base)
}
