package tcptrans

// Tests for the latency-sensitive run-to-completion path: an LS burst runs
// on the goroutine that holds it — reader or submitter — when the reactor
// and writer it would hand off to are idle, and is posted as before when
// they are busy. These pin that the fast path is taken, that taking it or
// not never reorders a connection's commands or completions, that Done
// never runs on the submitter, and that a peer that stopped reading can
// hold neither a shard nor a submitter.

import (
	"bytes"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
	"nvmeopf/internal/telemetry"
)

// goid returns the calling goroutine's ID, read off its stack header.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestLSBurstsRunInlineOnIdleTarget: an LS stream against an otherwise idle
// target finds the shard's reactor parked for nearly every burst, so at
// least 90 % of them run on the reader's goroutine. A TC stream never
// borrows: its bursts count on neither side.
func TestLSBurstsRunInlineOnIdleTarget(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	tc := dial(t, srv, proto.PrioThroughputCritical, 1, 4)
	for i := 0; i < 50; i++ {
		if _, err := tc.Read(uint64(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st, cs := srv.Stats(), tc.Stats(); st.InlineBursts+st.PostedBursts+cs.InlineBursts+cs.PostedBursts != 0 {
		t.Fatalf("a TC stream counted LS bursts: target %+v, host %+v", st, cs)
	}

	ls := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	const reads = 500
	for i := 0; i < reads; i++ {
		if _, err := ls.Read(uint64(i%64), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, cs := srv.Stats(), ls.Stats()
	total := st.InlineBursts + st.PostedBursts
	if total < reads {
		t.Fatalf("target counted %d LS bursts for %d commands", total, reads)
	}
	if share := float64(st.InlineBursts) / float64(total); share < 0.9 {
		t.Errorf("target: %d of %d LS bursts inline (%.0f %%), want at least 90 %%", st.InlineBursts, total, 100*share)
	}
	if cs.InlineBursts == 0 {
		t.Errorf("host: no LS burst ran inline (%d posted)", cs.PostedBursts)
	}
	t.Logf("target: %d inline, %d posted; host: %d inline, %d posted",
		st.InlineBursts, st.PostedBursts, cs.InlineBursts, cs.PostedBursts)
}

// TestLSCommandsInWireOrderAcrossInlineAndPosted: an LS connection shares
// one shard with a TC neighbour that keeps it busy, and for a while the
// test holds the reactor outright, so some of the LS connection's bursts
// run inline and some are posted. Its commands must still be handled in
// the order it sent them, and every response must come back in that order.
func TestLSCommandsInWireOrderAcrossInlineAndPosted(t *testing.T) {
	f := newReactorFixture(t, ServerConfig{Device: newBdevMemory(t, 4096, 1<<12)})
	ls := dialRaw(t, f.srv, proto.PrioLatencySensitive)
	tc := dial(t, f.srv, proto.PrioThroughputCritical, 4, 16)

	// One at a time on an idle shard: inline, every one. (The counters are
	// read directly: Stats would wake the reactor.)
	waitFor(t, "the reactor to park", func() bool {
		f.sh.q.mu.Lock()
		defer f.sh.q.mu.Unlock()
		return f.sh.q.parked && f.sh.q.empty()
	})
	inline, posted := f.srv.lsInline.Load(), f.srv.lsPosted.Load()
	cid := 0
	for ; cid < 20; cid++ {
		ls.cmd(nvme.OpRead, nvme.CID(cid), uint64(cid), 1, 0)
		ls.readResponses(cid, cid, 4096)
	}
	if in, po := f.srv.lsInline.Load()-inline, f.srv.lsPosted.Load()-posted; in != int64(cid) || po != 0 {
		t.Fatalf("idle shard: %d bursts inline, %d posted; want all %d inline", in, po, cid)
	}

	stop := make(chan struct{})
	var neighbour sync.WaitGroup
	neighbour.Add(1)
	go func() {
		defer neighbour.Done()
		sem := make(chan struct{}, 16)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case sem <- struct{}{}:
			}
			if tc.Submit(hostqp.IO{Op: nvme.OpRead, LBA: uint64(i % 512), Blocks: 1,
				Done: func(hostqp.Result) { <-sem }}) != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		neighbour.Wait()
	}()

	// One at a time beside the neighbour: inline whenever the reactor is
	// parked, posted whenever the neighbour's work holds it.
	for ; cid < 100; cid++ {
		ls.cmd(nvme.OpRead, nvme.CID(cid), uint64(cid), 1, 0)
		ls.readResponses(cid, cid, 4096)
	}
	// Pipelined behind a held reactor: posted, then handled in one go.
	release := f.hold(t)
	first := cid
	for ; cid < first+20; cid++ {
		ls.cmd(nvme.OpRead, nvme.CID(cid), uint64(cid), 1, 0)
	}
	waitFor(t, "the LS commands to be posted", func() bool { return f.queued(laneLS) > 0 })
	release()
	ls.readResponses(first, cid-1, 4096)
	// Pipelined with the reactor free: whatever the reader gathered.
	first = cid
	for ; cid < first+200; cid++ {
		ls.cmd(nvme.OpRead, nvme.CID(cid), uint64(cid%1024), 1, 0)
	}
	ls.readResponses(first, cid-1, 4096)

	var got []nvme.CID
	for _, e := range f.traced(telemetry.StageArrive) {
		if e.Tenant == ls.tenant {
			got = append(got, e.CID)
		}
	}
	if len(got) != cid {
		t.Fatalf("%d LS commands handled, want %d", len(got), cid)
	}
	for i, c := range got {
		if int(c) != i {
			t.Fatalf("LS command %d handled as the %dth: wire order broken", c, i)
		}
	}
	st := f.srv.Stats()
	if st.PostedBursts == 0 {
		t.Errorf("no LS burst was posted behind the held reactor (%d inline)", st.InlineBursts)
	}
	t.Logf("target: %d inline, %d posted", st.InlineBursts, st.PostedBursts)
}

// TestLSCompletionsInOrderNeverOnSubmitter drives an LS connection at queue
// depth 8 against a shard a TC neighbour keeps busy, and now and then holds
// its reactor with Defer, so submissions and completions go both ways.
// Done must run once per request, in submission order, never on the
// submitting goroutine; a submission the session rejects on the inline
// path fails through Done all the same, on another goroutine.
func TestLSCompletionsInOrderNeverOnSubmitter(t *testing.T) {
	f := newReactorFixture(t, ServerConfig{Device: newBdevMemory(t, 4096, 1<<12)})
	tc := dial(t, f.srv, proto.PrioThroughputCritical, 4, 16)
	c := dial(t, f.srv, proto.PrioLatencySensitive, 1, 8)

	var busy sync.WaitGroup
	stop := make(chan struct{})
	busy.Add(1)
	go func() {
		defer busy.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tc.Read(uint64(i%512), 1, 0); err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		busy.Wait()
	}()

	const n = 3000
	me := goid()
	sem := make(chan struct{}, 8)
	var (
		mu      sync.Mutex
		order   []int
		onOwner atomic.Int64
		failed  atomic.Int64
		all     sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		sem <- struct{}{}
		if i%100 == 50 {
			c.Defer(func() { time.Sleep(200 * time.Microsecond) })
		}
		all.Add(1)
		err := c.Submit(hostqp.IO{Op: nvme.OpRead, LBA: uint64(i % 512), Blocks: 1, Done: func(r hostqp.Result) {
			if goid() == me {
				onOwner.Add(1)
			}
			if !r.Status.OK() {
				failed.Add(1)
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			<-sem
			all.Done()
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	all.Wait()
	if onOwner.Load() != 0 || failed.Load() != 0 {
		t.Fatalf("%d completions ran on the submitter, %d failed", onOwner.Load(), failed.Load())
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion %d is request %d: completions out of submission order", i, v)
		}
	}
	if cs := c.Stats(); cs.PostedBursts == 0 {
		t.Errorf("no submission was posted behind a held reactor (%d inline)", cs.InlineBursts)
	}

	// A malformed write (its payload is not one block) on the idle
	// connection: taken inline, rejected by the session, failed on the
	// reactor.
	waitFor(t, "the connection to go idle", func() bool {
		c.q.mu.Lock()
		defer c.q.mu.Unlock()
		return c.q.parked && c.q.empty()
	})
	before := c.Stats().InlineBursts
	done := make(chan int64, 1)
	var res hostqp.Result
	if err := c.Submit(hostqp.IO{Op: nvme.OpWrite, Blocks: 1, Data: make([]byte, 100), Done: func(r hostqp.Result) {
		res = r
		done <- goid()
	}}); err != nil {
		t.Fatal(err)
	}
	if g := <-done; g == me || res.Err == nil {
		t.Fatalf("rejected submission completed on the submitter=%v with err %v", g == me, res.Err)
	}
	cs := c.Stats()
	if cs.InlineBursts != before+1 {
		t.Error("the rejected submission did not take the inline path")
	}
	t.Logf("host: %d inline, %d posted", cs.InlineBursts, cs.PostedBursts)
}

// TestStalledLSPeerDoesNotHoldShard: an LS peer sends 4 KiB reads one at a
// time and never reads its socket, on the shard a TC neighbour uses. Each
// read is a burst of its own, so each response is a write its reader may do
// inline: the first go out whole, the one that meets the full socket goes
// out in part and leaves its tail to the writer goroutine, and the rest
// queue behind it. The neighbour must keep completing throughout — the
// reader gives the shard back before it writes, and never blocks in a
// write, so a full socket holds no shard — until the stall watchdog resets
// the peer.
func TestStalledLSPeerDoesNotHoldShard(t *testing.T) {
	setStallAfter(t, 2*time.Second)
	f := newReactorFixture(t, ServerConfig{Device: newBdevMemory(t, 4096, 1<<12), Telemetry: telemetry.New()})
	peer := dialRaw(t, f.srv, proto.PrioLatencySensitive)
	neighbour := dial(t, f.srv, proto.PrioThroughputCritical, 1, 1)
	var sc *srvConn
	waitFor(t, "the peer's connection", func() bool {
		f.srv.mu.Lock()
		defer f.srv.mu.Unlock()
		for c := range f.srv.conns {
			if c.nc.RemoteAddr().String() == peer.nc.LocalAddr().String() {
				sc = c
			}
		}
		return sc != nil
	})

	full := make(chan struct{}) // closed once 1 MiB waits behind the full socket
	go func() {
		for i := 0; i < 1<<16; i++ {
			if sc.backlog() > 1<<20 {
				close(full)
				return
			}
			if peer.send(nvme.OpRead, nvme.CID(i%1024), uint64(i%1024), 1, 0) != nil {
				return
			}
			time.Sleep(20 * time.Microsecond) // a burst per read, mostly
		}
	}()

	torn := func() bool { return len(f.traced(telemetry.StageTeardown)) > 0 }
	deadline := time.Now().Add(20 * time.Second)
	for n := 0; !torn() || n < 50; n++ {
		if time.Now().After(deadline) {
			t.Fatalf("stalled LS peer not torn down after %d reads by its neighbour", n)
		}
		start := time.Now()
		if _, err := neighbour.Read(uint64(n%1024), 1, 0); err != nil {
			t.Fatalf("neighbour's read %d: %v", n, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("neighbour's read %d took %v beside an LS peer that stopped reading", n, d)
		}
	}
	select {
	case <-full:
	default:
		t.Fatal("the peer's socket never filled: the stall was not exercised")
	}
	if td := f.traced(telemetry.StageTeardown)[0]; td.Tenant != peer.tenant {
		t.Fatalf("tenant %d torn down, want the stalled LS peer %d", td.Tenant, peer.tenant)
	}
	if st := f.srv.Stats(); st.InlineBursts == 0 {
		t.Errorf("the LS peer's bursts never ran inline (%d posted)", st.PostedBursts)
	}
}

// TestLSSubmitDoesNotBlockOnFullSocket: against a target that stops
// reading right after the handshake, an LS connection's submissions write
// inline until the socket is full. Submit must still return at once every
// time — the kernel's leftovers go to the writer goroutine, which is the
// one that blocks — and Close must fail every request through Done.
func TestLSSubmitDoesNotBlockOnFullSocket(t *testing.T) {
	stop := make(chan struct{})
	addr := fakeTarget(t, func(conn net.Conn, _ *proto.Reader) {
		conn.(*net.TCPConn).SetReadBuffer(4096)
		<-stop
	})
	defer close(stop)
	dialer := func(network, addr string) (net.Conn, error) {
		nc, err := net.Dial(network, addr)
		if err == nil {
			err = nc.(*net.TCPConn).SetWriteBuffer(4096)
		}
		return nc, err
	}
	c, err := DialWith(addr, hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 256, NSID: 1},
		DialConfig{Dialer: dialer})
	if err != nil {
		t.Fatal(err)
	}
	const n = 512 // 2 MiB of writes: far more than the socket buffers hold
	var done atomic.Int64
	data := make([]byte, 4096)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := c.Submit(hostqp.IO{Op: nvme.OpWrite, LBA: uint64(i), Blocks: 1, Data: data,
			Done: func(hostqp.Result) { done.Add(1) }}); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("Submit %d blocked for %v on a full socket", i, d)
		}
	}
	if cs := c.Stats(); cs.InlineBursts == 0 {
		t.Errorf("no submission ran inline (%d posted)", cs.PostedBursts)
	}
	c.Close()
	if got := done.Load(); got != n {
		t.Fatalf("%d of %d requests completed by the time Close returned", got, n)
	}
}
