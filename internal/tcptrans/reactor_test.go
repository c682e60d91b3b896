package tcptrans

// Tests for the run-to-completion shard reactor: the two-lane run queue's
// ordering contract, one-command-per-turn inline execution that yields to
// latency-sensitive arrivals, the reader's queue bound, and the reset of a
// peer that stops reading. All deterministic; run with -race.

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
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

// TestBurstQueueLanesAndClose pins the queue primitive: a lane swaps out
// whole and in order, the LS flag tracks its lane, a put wakes the parked
// consumer, and close fails later puts while leaving what was queued for a
// final take.
func TestBurstQueueLanesAndClose(t *testing.T) {
	var q burstQueue[int]
	q.init()
	q.put(laneNormal, 1, 2)
	q.put(laneLS, 9)
	q.put(laneNormal, 3)
	if !q.urgent.Load() {
		t.Fatal("urgent not set with the LS lane occupied")
	}
	if got := q.take(laneLS, nil); len(got) != 1 || got[0] != 9 || q.urgent.Load() {
		t.Fatalf("LS lane = %v, urgent = %v", got, q.urgent.Load())
	}
	if got := q.take(laneNormal, nil); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("normal lane = %v, want [1 2 3]", got)
	}

	woke := make(chan bool, 1)
	go func() { woke <- q.wait() }()
	waitFor(t, "the consumer to park", func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.parked
	})
	q.put(laneNormal, 4)
	if !<-woke {
		t.Fatal("wait reports an open queue closed")
	}

	q.close()
	if q.put(laneNormal, 5) {
		t.Fatal("put succeeded on a closed queue")
	}
	if q.wait() {
		t.Fatal("wait reports a closed queue open")
	}
	if got := q.take(laneNormal, nil); fmt.Sprint(got) != "[4]" {
		t.Fatalf("final take = %v, want [4]", got)
	}
}

// reactorFixture is a one-shard inline target whose reactor the test can
// hold still, plus a flight recorder of everything the target traced.
type reactorFixture struct {
	srv *Server
	sh  *shard
	rec *telemetry.Recorder
}

func newReactorFixture(t *testing.T, cfg ServerConfig) *reactorFixture {
	t.Helper()
	f := &reactorFixture{rec: countingRecorder()}
	cfg.Mode, cfg.Shards, cfg.Recorder = targetqp.ModeOPF, 1, f.rec
	srv, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	f.srv, f.sh = srv, srv.shards[0]
	return f
}

// hold parks the reactor inside an event until the returned release runs.
func (f *reactorFixture) hold(t *testing.T) (release func()) {
	t.Helper()
	held, gate := make(chan struct{}), make(chan struct{})
	if !f.sh.post(func() { close(held); <-gate }) {
		t.Fatal("shard closed")
	}
	<-held
	return func() { close(gate) }
}

// queued returns how many events sit on a lane of the run queue.
func (f *reactorFixture) queued(lane int) int {
	f.sh.q.mu.Lock()
	defer f.sh.q.mu.Unlock()
	return len(f.sh.q.lanes[lane])
}

// traced returns the events of one stage, in the order the reactor
// emitted them.
func (f *reactorFixture) traced(stage telemetry.Stage) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range f.rec.Events() {
		if telemetry.Stage(e.Stage) == stage {
			out = append(out, telemetry.Event{Stage: stage, Tenant: proto.TenantID(e.Tenant),
				CID: nvme.CID(e.CID), Prio: proto.Priority(e.Prio), Aux: e.Aux})
		}
	}
	return out
}

// countingRecorder is a flight recorder whose clock counts its readings,
// so its events sort in the order they were recorded, across tenants too.
// Its rings hold more events than any test here traces.
func countingRecorder() *telemetry.Recorder {
	var n atomic.Int64
	return telemetry.NewRecorder(telemetry.RecorderConfig{Clock: func() int64 { return n.Add(1) }, PerTenant: 1 << 14})
}

// rawConn is an initiator driven PDU by PDU over a real socket.
type rawConn struct {
	t      *testing.T
	nc     net.Conn
	class  proto.Priority
	tenant proto.TenantID
}

// dialRaw connects and completes the handshake, advertising a queue depth
// of 1024.
func dialRaw(t *testing.T, srv *Server, class proto.Priority) *rawConn {
	t.Helper()
	return dialRawDepth(t, srv, class, 1024)
}

// dialRawDepth is dialRaw advertising the given queue depth.
func dialRawDepth(t *testing.T, srv *Server, class proto.Priority, depth uint16) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	r := &rawConn{t: t, nc: nc, class: class}
	if err := proto.WritePDU(nc, &proto.ICReq{PFV: 1, QueueDepth: depth, Prio: class, NSID: 1}); err != nil {
		t.Fatal(err)
	}
	icr, err := proto.ReadPDU(nc)
	if err != nil {
		t.Fatal(err)
	}
	r.tenant = icr.(*proto.ICResp).Tenant
	return r
}

// cmd sends one command of the connection's class (prio overrides it when
// nonzero); writes carry blocks×4 KiB of payload.
func (r *rawConn) cmd(op nvme.Opcode, cid nvme.CID, lba uint64, blocks int, prio proto.Priority) {
	r.t.Helper()
	if err := r.send(op, cid, lba, blocks, prio); err != nil {
		r.t.Fatal(err)
	}
}

// send is cmd for goroutines that may not fail the test.
func (r *rawConn) send(op nvme.Opcode, cid nvme.CID, lba uint64, blocks int, prio proto.Priority) error {
	if prio == 0 {
		prio = r.class
	}
	c := &proto.CapsuleCmd{
		Cmd:  nvme.Command{Opcode: op, CID: cid, NSID: 1, SLBA: lba, NLB: uint16(blocks - 1)},
		Prio: prio, Tenant: r.tenant,
	}
	if op == nvme.OpWrite {
		c.Data = make([]byte, blocks*4096)
	}
	return proto.WritePDU(r.nc, c)
}

// TestRunQueueLSLaneFirstAndPerConnFIFO: with the reactor held, a normal
// connection pipelines a window of commands and dies, and only then does a
// latency-sensitive connection speak. Released, the reactor must handle
// the LS command before every queued normal one, the normal connection's
// commands in the order it sent them, and its teardown after the last.
func TestRunQueueLSLaneFirstAndPerConnFIFO(t *testing.T) {
	f := newReactorFixture(t, ServerConfig{Device: newBdevMemory(t, 4096, 1<<12)})
	tc := dialRaw(t, f.srv, proto.PrioThroughputCritical)
	ls := dialRaw(t, f.srv, proto.PrioLatencySensitive)

	const n = 40 // more than one reader burst
	release := f.hold(t)
	for i := 0; i < n; i++ {
		tc.cmd(nvme.OpWrite, nvme.CID(i), uint64(i), 1, 0) // no draining flag: all park
	}
	tc.nc.Close()
	waitFor(t, "the TC connection's commands and teardown to queue", func() bool { return f.queued(laneNormal) == n+1 })
	ls.cmd(nvme.OpRead, 7, 0, 1, 0)
	waitFor(t, "the LS command to queue", func() bool { return f.queued(laneLS) == 1 })
	release()

	waitFor(t, "the teardown", func() bool { return len(f.traced(telemetry.StageTeardown)) == 1 })
	arrivals := f.traced(telemetry.StageArrive)
	if len(arrivals) != n+1 {
		t.Fatalf("%d commands arrived, want %d", len(arrivals), n+1)
	}
	if first := arrivals[0]; first.Tenant != ls.tenant || first.CID != 7 {
		t.Errorf("first command handled is tenant %d CID %d, want the LS command posted last", first.Tenant, first.CID)
	}
	for i, e := range arrivals[1:] {
		if e.Tenant != tc.tenant || int(e.CID) != i {
			t.Fatalf("normal-lane command %d is tenant %d CID %d: per-connection order broken", i, e.Tenant, e.CID)
		}
	}
	// Teardown behind every pipelined PDU: all n were parked when it ran.
	if td := f.traced(telemetry.StageTeardown)[0]; td.Tenant != tc.tenant || td.Aux != n {
		t.Errorf("teardown of tenant %d dropped %d parked commands, want tenant %d and %d", td.Tenant, td.Aux, tc.tenant, n)
	}
	if resp, err := proto.ReadPDU(ls.nc); err != nil {
		t.Fatalf("LS read: %v", err)
	} else if d, ok := resp.(*proto.C2HData); !ok || d.CCCID != 7 {
		t.Fatalf("LS connection got %T, want its read data", resp)
	}
}

// probeDevice is a non-blocking device that logs every operation with the
// depth of the stack it ran on, and lets the test run code on the reactor
// in the middle of a chosen write.
type probeDevice struct {
	mu      sync.Mutex
	ops     []probeOp
	onWrite func(lba uint64) // runs inside WriteBlocks, on the reactor
}

type probeOp struct {
	read  bool
	lba   uint64
	depth int
}

func (d *probeDevice) BlockSize() uint32 { return 4096 }
func (d *probeDevice) NumBlocks() uint64 { return 1 << 20 }
func (d *probeDevice) Flush() error      { return nil }
func (d *probeDevice) NonBlocking() bool { return true }

func (d *probeDevice) log(read bool, lba uint64) {
	var pcs [512]uintptr
	d.mu.Lock()
	d.ops = append(d.ops, probeOp{read: read, lba: lba, depth: runtime.Callers(0, pcs[:])})
	d.mu.Unlock()
}

func (d *probeDevice) ReadBlocks(buf []byte, lba uint64) error {
	d.log(true, lba)
	clear(buf)
	return nil
}

func (d *probeDevice) WriteBlocks(buf []byte, lba uint64) error {
	d.log(false, lba)
	if d.onWrite != nil {
		d.onWrite(lba)
	}
	return nil
}

func (d *probeDevice) snapshot() []probeOp {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]probeOp(nil), d.ops...)
}

// TestInlineBacklogYieldsToLSBetweenJobs builds a backlog on an inline
// device — a 16-request TC drain window, then 64 parked scavenger writes
// released chunk by chunk — and has a latency-sensitive read arrive while
// one chosen write of each is executing. The reactor must run that read
// as the very next device command: one job per turn, the LS lane checked
// in between, not after the window or the scavenger chunk. And the whole
// backlog must run at one stack depth: completions that release more work
// extend the ready list, they do not execute it recursively.
func TestInlineBacklogYieldsToLSBetweenJobs(t *testing.T) {
	const (
		window  = 16
		backlog = 64
		tcBase  = 1000 // LBAs tell the streams apart in the device log
		scBase  = 2000
		lsLBA   = 7
	)
	dev := &probeDevice{}
	f := newReactorFixture(t, ServerConfig{Device: dev, ScavengerAging: time.Hour})
	tc := dialRaw(t, f.srv, proto.PrioThroughputCritical)
	sc := dialRaw(t, f.srv, proto.PrioScavenger)
	ls := dialRaw(t, f.srv, proto.PrioLatencySensitive)

	// An LS read is sent from inside the 5th write of the TC window and
	// the 10th write of the scavenger backlog; each time the device call
	// returns only once the read sits on the LS lane, so what the reactor
	// does next is decided by its loop, not by a race.
	lsCID := nvme.CID(0)
	dev.onWrite = func(lba uint64) {
		if lba != tcBase+4 && lba != scBase+9 {
			return
		}
		lsCID++
		if err := ls.send(nvme.OpRead, lsCID, lsLBA, 1, 0); err != nil {
			t.Error(err)
			return
		}
		for !f.sh.q.urgent.Load() {
			runtime.Gosched()
		}
	}

	// Park the window's first 15 and the whole scavenger backlog behind
	// it (scavengers never drain past an open TC window), then drain.
	for i := 0; i < window-1; i++ {
		tc.cmd(nvme.OpWrite, nvme.CID(i), tcBase+uint64(i), 1, 0)
	}
	waitFor(t, "the window to park", func() bool { return f.srv.Stats().CmdPDUs == window-1 })
	for i := 0; i < backlog; i++ {
		sc.cmd(nvme.OpWrite, nvme.CID(i), scBase+uint64(i), 1, 0)
	}
	waitFor(t, "everything to park", func() bool { return f.srv.Stats().CmdPDUs == window-1+backlog })
	if n := len(dev.snapshot()); n != 0 {
		t.Fatalf("%d device commands ran before the drain", n)
	}
	tc.cmd(nvme.OpWrite, window-1, tcBase+window-1, 1, proto.PrioTCDraining)

	waitFor(t, "the backlog to execute", func() bool { return len(dev.snapshot()) == window+backlog+2 })
	ops := dev.snapshot()
	minDepth, maxDepth := ops[0].depth, ops[0].depth
	for i, op := range ops {
		minDepth, maxDepth = min(minDepth, op.depth), max(maxDepth, op.depth)
		if !op.read && (op.lba == tcBase+4 || op.lba == scBase+9) {
			if next := ops[i+1]; !next.read || next.lba != lsLBA {
				t.Errorf("after write %d the device ran %+v, want the LS read that arrived during it", op.lba, next)
			}
		}
	}
	if minDepth != maxDepth {
		t.Errorf("device commands ran at stack depths %d..%d: the backlog is executed recursively", minDepth, maxDepth)
	}
	// In order within each stream, every command exactly once.
	var tcSeen, scSeen uint64
	for _, op := range ops {
		switch {
		case op.read:
		case op.lba >= scBase:
			if op.lba != scBase+scSeen {
				t.Fatalf("scavenger write %d ran at position %d", op.lba-scBase, scSeen)
			}
			scSeen++
		default:
			if op.lba != tcBase+tcSeen {
				t.Fatalf("TC write %d ran at position %d", op.lba-tcBase, tcSeen)
			}
			tcSeen++
		}
	}
	if tcSeen != window || scSeen != backlog {
		t.Fatalf("ran %d TC and %d scavenger writes, want %d and %d", tcSeen, scSeen, window, backlog)
	}
	// Both LS reads were answered before the backlog finished: the data is
	// on the socket by now.
	for want := nvme.CID(1); want <= 2; want++ {
		ls.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for got := false; !got; {
			p, err := proto.ReadPDU(ls.nc)
			if err != nil {
				t.Fatalf("LS read %d: %v", want, err)
			}
			if r, ok := p.(*proto.CapsuleResp); ok {
				if r.Cpl.CID != want || !r.Cpl.Status.OK() {
					t.Fatalf("LS response %+v, want CID %d", r.Cpl, want)
				}
				got = true
			}
		}
	}
}

// TestReaderPausesAtRunQueueBound: with the reactor held, a connection
// that pipelines far more commands than maxQueuedPerConn gets only a
// bounded number of them into the run queue — its reader waits — and once
// the reactor moves every one of them is answered, in order.
func TestReaderPausesAtRunQueueBound(t *testing.T) {
	f := newReactorFixture(t, ServerConfig{Device: newBdevMemory(t, 4096, 1<<12)})
	c := dialRaw(t, f.srv, proto.PrioNormal)
	const n = 8 * maxQueuedPerConn
	release := f.hold(t)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < n; i++ {
			c.cmd(nvme.OpRead, nvme.CID(i), uint64(i), 1, 0)
		}
	}()
	waitFor(t, "the reader to reach the bound", func() bool { return f.queued(laneNormal) >= maxQueuedPerConn })
	<-sent // 80-byte capsules: the socket buffers hold all of them
	time.Sleep(20 * time.Millisecond)
	if got := f.queued(laneNormal); got >= maxQueuedPerConn+maxBurst {
		t.Errorf("%d PDUs queued with the reactor held, bound is %d plus one burst of %d", got, maxQueuedPerConn, maxBurst)
	}
	release()
	for i := 0; i < n; i++ {
		for {
			p, err := proto.ReadPDU(c.nc)
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			if r, ok := p.(*proto.CapsuleResp); ok {
				if int(r.Cpl.CID) != i || !r.Cpl.Status.OK() {
					t.Fatalf("response %d is %+v", i, r.Cpl)
				}
				break
			}
		}
	}
}

// conn returns the fixture's only connection as its shard sees it.
func (f *reactorFixture) conn(t *testing.T) *srvConn {
	t.Helper()
	f.srv.mu.Lock()
	defer f.srv.mu.Unlock()
	if len(f.srv.conns) != 1 {
		t.Fatalf("%d connections, want 1", len(f.srv.conns))
	}
	for c := range f.srv.conns {
		return c
	}
	return nil
}

// setStallAfter shortens the stall watchdog's period for servers the test
// starts from here on.
func setStallAfter(t *testing.T, d time.Duration) {
	old := stallAfter
	stallAfter = d
	t.Cleanup(func() { stallAfter = old })
}

// TestStalledReaderDoesNotBlockShard: tenant A pipelines large reads and
// never reads its socket. Its writer wedges on the full socket, but the
// reactor must not: tenant B, on the same shard, keeps completing reads
// inside a deadline throughout, and A is reset once its writer has gone a
// watchdog period without flushing a byte — torn down, its tenant ID
// recycled to the next dial.
func TestStalledReaderDoesNotBlockShard(t *testing.T) {
	setStallAfter(t, 200*time.Millisecond)
	f := newReactorFixture(t, ServerConfig{Device: newBdevMemory(t, 4096, 1<<16), Telemetry: telemetry.New()})
	a := dialRaw(t, f.srv, proto.PrioNormal)
	b := dial(t, f.srv, proto.PrioLatencySensitive, 1, 1)

	// 1 MiB reads: 256 of them are four times the mark at which the target
	// stops taking more, and far more than the socket buffers hold.
	const reads, blocks = 256, 256
	go func() {
		for i := 0; i < reads; i++ {
			if a.send(nvme.OpRead, nvme.CID(i), 0, blocks, 0) != nil {
				return // reset by the target, as it should be
			}
		}
	}()

	torn := func() bool { return len(f.traced(telemetry.StageTeardown)) > 0 }
	deadline := time.Now().Add(20 * time.Second)
	for n := 0; !torn() || n < 100; n++ {
		if time.Now().After(deadline) {
			t.Fatalf("stalled tenant not torn down after %d reads by its neighbour", n)
		}
		start := time.Now()
		if _, err := b.Read(uint64(n%1024), 1, 0); err != nil {
			t.Fatalf("neighbour's read %d: %v", n, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("neighbour's read %d took %v behind a peer that stopped reading", n, d)
		}
	}
	if td := f.traced(telemetry.StageTeardown)[0]; td.Tenant != a.tenant {
		t.Fatalf("tenant %d torn down, want the stalled tenant %d", td.Tenant, a.tenant)
	}
	if n := f.srv.cfg.Telemetry.Global().TransportErrors; n != 1 {
		t.Errorf("%d transport errors counted, want the one reset", n)
	}
	waitFor(t, "the stalled session to go", func() bool { return f.srv.ActiveSessions() == 1 })
	repl := dial(t, f.srv, proto.PrioLatencySensitive, 1, 1)
	if got := repl.Tenant(); got != a.tenant {
		t.Errorf("replacement got tenant %d, want the stalled tenant's %d back", got, a.tenant)
	}
	want := bytes.Repeat([]byte{0xA5}, 4096)
	if err := repl.Write(9, want, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Read(9, 1, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("neighbour reads the replacement's write: %v", err)
	}
}

// readResponses reads the answers to reads first..last off a raw
// connection: each one's data, then its completion, in command order.
func (r *rawConn) readResponses(first, last, bytesEach int) {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	for cid := first; cid <= last; cid++ {
		got := 0
		for done := false; !done; {
			p, err := proto.ReadPDU(r.nc)
			if err != nil {
				r.t.Fatalf("response to read %d: %v", cid, err)
			}
			switch p := p.(type) {
			case *proto.C2HData:
				if int(p.CCCID) != cid {
					r.t.Fatalf("data for CID %d while waiting for %d", p.CCCID, cid)
				}
				got += len(p.Data)
			case *proto.CapsuleResp:
				if int(p.Cpl.CID) != cid || !p.Cpl.Status.OK() || got != bytesEach {
					r.t.Fatalf("read %d completed as %+v after %d of %d bytes", cid, p.Cpl, got, bytesEach)
				}
				done = true
			}
		}
	}
}

// TestDeepReadBacklogIsFlowControlledNotReset: a peer with far more read
// bytes outstanding than maxUnsentBytes, which gets round to reading them
// late, is an honest peer with a deep queue. The target must hold its
// intake at the mark — not produce all the rest into memory — and, once
// the peer reads, deliver every response in order on a connection that was
// never reset.
func TestDeepReadBacklogIsFlowControlledNotReset(t *testing.T) {
	f := newReactorFixture(t, ServerConfig{Device: newBdevMemory(t, 4096, 1<<12)})
	c := dialRaw(t, f.srv, proto.PrioNormal)
	const (
		blocks    = 64 // 256 KiB per read
		readBytes = blocks * 4096
		reads     = 2 * maxUnsentBytes / readBytes // twice the mark in all
		// What may be produced past the mark: the commands the reader had
		// posted before it saw the mark crossed.
		slack = (maxQueuedPerConn + maxBurst) * (readBytes + 4096)
	)
	for i := 0; i < reads; i++ {
		c.cmd(nvme.OpRead, nvme.CID(i), 0, blocks, 0) // 80-byte capsules: the socket buffers hold them all
	}
	sc := f.conn(t)
	waitFor(t, "the backlog to reach the mark", func() bool { return sc.backlog() >= maxUnsentBytes })
	time.Sleep(100 * time.Millisecond) // let the reactor finish whatever it will do unprompted
	if got := sc.backlog(); got > maxUnsentBytes+slack {
		t.Errorf("%d MiB unsent for a peer that is not reading, want at most %d", got>>20, (maxUnsentBytes+slack)>>20)
	}
	if got := f.srv.Stats().CmdPDUs; got >= reads {
		t.Errorf("all %d commands taken off the socket with the backlog at the mark", got)
	}

	c.readResponses(0, reads-1, readBytes)
	c.cmd(nvme.OpRead, reads, 0, 1, 0)
	c.readResponses(reads, reads, 4096)
	if n := len(f.traced(telemetry.StageTeardown)); n != 0 || f.srv.ActiveSessions() != 1 {
		t.Errorf("%d teardowns, %d sessions: the connection did not survive its backlog", n, f.srv.ActiveSessions())
	}
}

// TestHonestDeepReadQueueIsNotReset drives a real initiator at queue depth
// 128 with 1 MiB reads — 128 MiB outstanding, twice maxUnsentBytes, which
// an inline target produces much faster than a socket carries — for three
// rounds. Every read must succeed with the right bytes.
func TestHonestDeepReadQueueIsNotReset(t *testing.T) {
	const qd, blocks, rounds = 128, 256, 3
	dev := newBdevMemory(t, 4096, blocks)
	want := make([]byte, blocks*4096)
	for i := range want {
		want[i] = byte(i * 31)
	}
	if err := dev.WriteBlocks(want, 0); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Mode: targetqp.ModeOPF, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, srv, proto.PrioNormal, 1, qd)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		bad := 0
		for i := 0; i < qd; i++ {
			wg.Add(1)
			err := c.Submit(hostqp.IO{Op: nvme.OpRead, LBA: 0, Blocks: blocks, Done: func(r hostqp.Result) {
				if !r.Status.OK() || !bytes.Equal(r.Data, want) {
					mu.Lock()
					bad++
					mu.Unlock()
				}
				wg.Done()
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		if bad != 0 || c.Err() != nil {
			t.Fatalf("round %d: %d of %d reads failed, connection error %v", round, bad, qd, c.Err())
		}
	}
}

// TestSessionOwnedReadBuffersAcrossReuse drives stamp-verified reads at
// queue depth 64 with no destination supplied: every completion must show
// the addressed block's bytes while Done runs, although the connection
// cycles a handful of buffers under them, and a supplied destination must
// come back as Result.Data itself.
func TestSessionOwnedReadBuffersAcrossReuse(t *testing.T) {
	const blocksN, qd, total = 512, 64, 20000
	dev := newBdevMemory(t, 4096, blocksN)
	stamp := func(buf []byte, lba uint64) {
		for i := range buf {
			buf[i] = byte(lba*31 + uint64(i)*7)
		}
	}
	blk := make([]byte, 4096)
	for lba := uint64(0); lba < blocksN; lba++ {
		stamp(blk, lba)
		if err := dev.WriteBlocks(blk, lba); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Listen("127.0.0.1:0", ServerConfig{Mode: targetqp.ModeOPF, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := dial(t, srv, proto.PrioThroughputCritical, 16, qd)

	// Everything below the submit loop runs on the connection's reactor.
	want := make([]byte, 4096)
	buffers := map[*byte]bool{}
	bad, completed := 0, 0
	slots := make(chan struct{}, qd)
	finished := make(chan struct{})
	for i := 0; i < total; i++ {
		slots <- struct{}{}
		lba := uint64(i*37) % blocksN
		err := c.Submit(hostqp.IO{Op: nvme.OpRead, LBA: lba, Blocks: 1, Done: func(r hostqp.Result) {
			stamp(want, lba)
			if !r.Status.OK() || !bytes.Equal(r.Data, want) {
				bad++
			} else {
				buffers[&r.Data[0]] = true
			}
			if completed++; completed == total {
				close(finished)
			}
			<-slots
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	<-finished
	if bad != 0 {
		t.Fatalf("%d of %d reads failed or showed another block's bytes", bad, total)
	}
	if n := len(buffers); n > qd {
		t.Errorf("%d distinct buffers served %d reads at depth %d: not reused", n, total, qd)
	}

	mine := make([]byte, 4096)
	got := make(chan []byte, 1)
	if err := c.Submit(hostqp.IO{Op: nvme.OpRead, LBA: 5, Blocks: 1, Data: mine,
		Done: func(r hostqp.Result) { got <- r.Data }}); err != nil {
		t.Fatal(err)
	}
	stamp(want, 5)
	if data := <-got; &data[0] != &mine[0] || !bytes.Equal(mine, want) {
		t.Error("a supplied destination is not what Result.Data returns, or holds the wrong bytes")
	}
}

// TestSynchronousReadResultsAreNotLent: Do returns the Result after the
// completion callback has, so a read submitted through it without a
// destination must not come back in a buffer the connection reuses — the
// first result has to survive the reads that follow.
func TestSynchronousReadResultsAreNotLent(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	rc, err := Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 4, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ones, twos := bytes.Repeat([]byte{1}, 4096), bytes.Repeat([]byte{2}, 4096)
	if err := rc.Write(1, ones, 0); err != nil {
		t.Fatal(err)
	}
	if err := rc.Write(2, twos, 0); err != nil {
		t.Fatal(err)
	}
	first, err := rc.Do(hostqp.IO{Op: nvme.OpRead, LBA: 1, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := rc.Do(hostqp.IO{Op: nvme.OpRead, LBA: 2, Blocks: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first.Data, ones) {
		t.Error("an earlier synchronous read's bytes were overwritten by a later read")
	}
}
