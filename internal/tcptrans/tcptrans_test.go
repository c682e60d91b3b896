package tcptrans

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

func startServer(t *testing.T, mode targetqp.Mode) *Server {
	t.Helper()
	srv, err := NewMemoryServer("127.0.0.1:0", mode, 4096, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dial(t *testing.T, srv *Server, class proto.Priority, window, qd int) *Conn {
	t.Helper()
	c, err := Dial(srv.Addr(), hostqp.Config{Class: class, Window: window, QueueDepth: qd, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDialHandshake(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c1 := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	c2 := dial(t, srv, proto.PrioThroughputCritical, 8, 32)
	if c1.Tenant() == c2.Tenant() {
		t.Fatal("tenant IDs collide over TCP")
	}
}

func TestSyncWriteReadOverTCP(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioLatencySensitive, 1, 4)
	payload := bytes.Repeat([]byte{0x7E, 0x81}, 2048) // one 4K block
	if err := c.Write(42, payload, 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(42, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("TCP round trip mismatch")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestLSConnWithTCOverrideRoundTrip is README's quickstart in one test: an
// LS connection with window 1 and queue depth 2 writes a block and reads it
// back, then sends one write as TC through the per-request override and
// reads that block back too.
func TestLSConnWithTCOverrideRoundTrip(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioLatencySensitive, 1, 2)
	payload := bytes.Repeat([]byte{0xA5}, 4096)
	if err := c.Write(7, payload, 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(7, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("LS round trip mismatch")
	}
	override := bytes.Repeat([]byte{0x5A}, 4096)
	if err := c.Write(8, override, proto.PrioThroughputCritical); err != nil {
		t.Fatal(err)
	}
	if got, err = c.Read(8, 1, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, override) {
		t.Fatal("TC-override write did not land")
	}
}

// TestSyncTCWritesCloseTheirWindow checks that a request a caller waits
// on drains its TC window itself: twenty sequential writes on a window of
// eight reach the target as exactly twenty commands, with no idle-drain
// flush between them.
func TestSyncTCWritesCloseTheirWindow(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioThroughputCritical, 8, 32)
	payload := make([]byte, 4096)
	start := time.Now()
	for i := 0; i < 20; i++ {
		if err := c.Write(uint64(i), payload, 0); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	time.Sleep(5 * idleDrainDelay) // a flush still pending would land now
	if n := srv.Stats().CmdPDUs; n != 20 {
		t.Fatalf("target saw %d commands for 20 writes (%v); each extra one is an idle flush", n, elapsed)
	}
}

// TestSlowSyncWriteSendsNoIdleFlush is the same contract with a device
// slower than idleDrainDelay: a write that closed its own window stays
// closed while the device works, so no idle flush (on opf-target -file, an
// fsync) follows it.
func TestSlowSyncWriteSendsNoIdleFlush(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode: targetqp.ModeOPF, Device: newMemoryDevice(4096, 1024), WriteLatency: 3 * idleDrainDelay,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := dial(t, srv, proto.PrioThroughputCritical, 8, 32)
	for i := 0; i < 3; i++ {
		if err := c.Write(uint64(i), make([]byte, 4096), 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.Stats().CmdPDUs; n != 3 {
		t.Fatalf("target saw %d commands for 3 slow writes; each extra one is an idle flush", n)
	}
}

func TestTCCoalescingOverTCP(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	const window, n = 8, 64
	c := dial(t, srv, proto.PrioThroughputCritical, window, 128)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		lba := uint64(i)
		if err := c.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: lba, Blocks: 1, Data: make([]byte, 4096),
			Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					errs <- &statusErr{r.Status}
				}
				wg.Done()
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Host should have seen far fewer response PDUs than requests.
	st := c.Stats()
	if st.RespPDUs >= st.CmdPDUs {
		t.Fatalf("no coalescing over TCP: %d responses for %d commands", st.RespPDUs, st.CmdPDUs)
	}
	if st.RespPDUs > int64(n/window+2) {
		t.Fatalf("weak coalescing: %d responses", st.RespPDUs)
	}
}

type statusErr struct{ st nvme.Status }

func (e *statusErr) Error() string { return e.st.String() }

func TestBaselineOverTCP(t *testing.T) {
	srv := startServer(t, targetqp.ModeBaseline)
	c := dial(t, srv, proto.PrioThroughputCritical, 8, 32)
	var wg sync.WaitGroup
	const n = 16
	for i := 0; i < n; i++ {
		wg.Add(1)
		if err := c.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 4096),
			Done: func(r hostqp.Result) { wg.Done() },
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	st := c.Stats()
	// One response per request; the idle-drain timer may add one flush
	// round trip depending on scheduling.
	if st.RespPDUs < n || st.RespPDUs > n+2 {
		t.Fatalf("baseline responses = %d, want ~%d", st.RespPDUs, n)
	}
}

func TestConcurrentTenantsOverTCP(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	const tenants = 4
	var wg sync.WaitGroup
	for g := 0; g < tenants; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(srv.Addr(), hostqp.Config{
				Class: proto.PrioThroughputCritical, Window: 4, QueueDepth: 16, NSID: 1,
			})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			base := uint64(g * 1024)
			buf := bytes.Repeat([]byte{byte(g + 1)}, 4096)
			for i := 0; i < 50; i++ {
				if err := c.Write(base+uint64(i%64), buf, 0); err != nil {
					t.Errorf("tenant %d write: %v", g, err)
					return
				}
			}
			got, err := c.Read(base, 1, 0)
			if err != nil {
				t.Errorf("tenant %d read: %v", g, err)
				return
			}
			if !bytes.Equal(got, buf) {
				t.Errorf("tenant %d isolation violated", g)
			}
		}()
	}
	wg.Wait()
}

func TestQueueDepthBackpressure(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Mode:         targetqp.ModeOPF,
		Device:       mustMem(t),
		WriteLatency: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial2(t, srv, proto.PrioThroughputCritical, 2, 2)
	// Issue 8 ops against QD 2: the internal waiting queue must absorb
	// and complete all of them.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		if err := c.Submit(hostqp.IO{
			Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: make([]byte, 4096),
			Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					t.Errorf("status %v", r.Status)
				}
				wg.Done()
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func mustMem(t *testing.T) *bdev.Memory {
	t.Helper()
	m, err := bdev.NewMemory(4096, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func dial2(t *testing.T, srv *Server, class proto.Priority, window, qd int) *Conn {
	t.Helper()
	c, err := Dial(srv.Addr(), hostqp.Config{Class: class, Window: window, QueueDepth: qd, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestLSLatencyUnderTCLoadOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	run := func(mode targetqp.Mode) time.Duration {
		srv, err := Listen("127.0.0.1:0", ServerConfig{
			Mode:         mode,
			Device:       mustMem(t),
			Workers:      2,
			ReadLatency:  200 * time.Microsecond,
			WriteLatency: 500 * time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tc := dial2(t, srv, proto.PrioThroughputCritical, 16, 64)
		ls := dial2(t, srv, proto.PrioLatencySensitive, 1, 1)

		// Saturate with TC writes in the background.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				done := make(chan struct{})
				_ = tc.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i % 1024), Blocks: 1, Data: buf,
					Done: func(hostqp.Result) { close(done) }})
				i++
				if i%64 == 0 {
					<-done // pace roughly at QD
				}
			}
		}()
		time.Sleep(20 * time.Millisecond)
		var worst time.Duration
		for i := 0; i < 30; i++ {
			t0 := time.Now()
			if _, err := ls.Read(uint64(i), 1, 0); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d > worst {
				worst = d
			}
		}
		close(stop)
		wg.Wait()
		return worst
	}
	base := run(targetqp.ModeBaseline)
	opf := run(targetqp.ModeOPF)
	t.Logf("worst LS read under TC load: baseline %v, oPF %v", base, opf)
	// Wall-clock timing on shared CI hardware is noisy; only assert the
	// oPF path is not catastrophically worse.
	if opf > base*3 {
		t.Fatalf("oPF LS latency %v severely worse than baseline %v", opf, base)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	if err := c.Write(0, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Subsequent I/O fails rather than hanging.
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(0, 1, 0)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("read succeeded after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read hung after server close")
	}
}

func TestListenValidation(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", ServerConfig{}); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := Listen("256.0.0.1:99999", ServerConfig{Device: mustMem(t)}); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestSubmitWithoutDone(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	if err := c.Submit(hostqp.IO{Op: nvme.OpRead, LBA: 0, Blocks: 1}); err == nil {
		t.Fatal("IO without Done accepted")
	}
}

func TestIOErrorStatusSurfaced(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	if _, err := c.Read(1<<40, 1, 0); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}
