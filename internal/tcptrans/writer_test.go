package tcptrans

// Unit tests for the vectored drainWriter: the byte stream must be
// identical to concatenated proto.Marshal output at every batch size and
// arrival pattern (the zero-copy acceptance criterion), and every queued
// PDU must be released exactly once on every exit path (success, write
// error, sentinel, teardown).

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// writerTestPDUs builds a mixed batch exercising every staging path:
// large payloads (scatter-gather referenced), small payloads (copied into
// the header buffer), and fixed-size PDUs with no payload at all.
func writerTestPDUs() []proto.PDU {
	large := make([]byte, 8192)
	for i := range large {
		large[i] = byte(i * 7)
	}
	small := make([]byte, 512)
	for i := range small {
		small[i] = byte(i * 3)
	}
	return []proto.PDU{
		&proto.ICReq{PFV: 1, QueueDepth: 8, Prio: proto.PrioThroughputCritical, NSID: 1},
		&proto.CapsuleCmd{
			Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, SLBA: 8, NLB: 1},
			Prio: proto.PrioThroughputCritical, Data: large,
		},
		&proto.C2HData{CCCID: 2, Offset: 0, Data: append([]byte(nil), large...)},
		&proto.C2HData{CCCID: 3, Offset: 4096, Data: small},
		&proto.CapsuleCmd{
			Cmd:  nvme.Command{Opcode: nvme.OpWrite, CID: 4, NSID: 1, SLBA: 16, NLB: 0},
			Prio: proto.PrioLatencySensitive, Data: small,
		},
		&proto.CapsuleResp{Cpl: nvme.Completion{CID: 1}},
		&proto.C2HData{CCCID: 5, Offset: 0, Data: nil},
	}
}

func marshalAll(pdus []proto.PDU) []byte {
	var want []byte
	for _, p := range pdus {
		want = proto.AppendPDU(want, p)
	}
	return want
}

// newOutQueue returns a ready outbound queue holding pdus.
func newOutQueue(pdus ...proto.PDU) *burstQueue[proto.PDU] {
	q := new(burstQueue[proto.PDU])
	q.init()
	q.put(laneNormal, pdus...)
	return q
}

// runWriterCollect feeds pdus (then the close sentinel) through a
// drainWriter over the given connection pair and returns the bytes that
// arrived, after the writer closed the socket.
func runWriterCollect(t *testing.T, wc, rc net.Conn, cfg writerConfig, pdus []proto.PDU, feed func(*burstQueue[proto.PDU])) []byte {
	t.Helper()
	q := newOutQueue()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		drainWriter(wc, q, cfg)
	}()
	go func() {
		if feed != nil {
			feed(q)
		} else {
			for _, p := range pdus {
				q.put(laneNormal, p)
			}
		}
		q.put(laneNormal, nil) // flush-then-close sentinel
	}()
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	wg.Wait() // the sentinel closed the socket and ended the writer
	return got
}

// tcpPair returns a connected loopback TCP pair so net.Buffers.WriteTo
// takes the real writev path.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		c.Close()
		t.Fatal(r.err)
	}
	t.Cleanup(func() { c.Close(); r.c.Close() })
	return c, r.c
}

// TestWriterWireIdentity pins the acceptance criterion: over both a real
// TCP socket (writev) and a non-TCP pipe (sequential fallback), the
// vectored writer emits a byte stream identical
// to concatenating proto.Marshal for each PDU.
func TestWriterWireIdentity(t *testing.T) {
	cases := []struct {
		name string
		cfg  writerConfig
		tcp  bool
	}{
		{"default-tcp", writerConfig{}, true},
		{"default-pipe", writerConfig{}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pdus := writerTestPDUs()
			want := marshalAll(pdus)
			var wc, rc net.Conn
			if tc.tcp {
				wc, rc = tcpPair(t)
			} else {
				wc, rc = net.Pipe()
				t.Cleanup(func() { wc.Close(); rc.Close() })
			}
			got := runWriterCollect(t, wc, rc, tc.cfg, pdus, nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("wire stream differs: got %d bytes, want %d", len(got), len(want))
			}
		})
	}
}

// TestWriterWireIdentityStaggered feeds PDUs one at a time with gaps so
// the writer parks and wakes between bursts — the stream must still be
// byte-identical.
func TestWriterWireIdentityStaggered(t *testing.T) {
	pdus := writerTestPDUs()
	want := marshalAll(pdus)
	wc, rc := tcpPair(t)
	got := runWriterCollect(t, wc, rc, writerConfig{}, pdus, func(q *burstQueue[proto.PDU]) {
		for i, p := range pdus {
			if i%2 == 1 {
				time.Sleep(300 * time.Microsecond) // let the writer park
			}
			q.put(laneNormal, p)
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("wire stream differs: got %d bytes, want %d", len(got), len(want))
	}
}

// countReleases wraps a release hook counting per-PDU retirements.
type countReleases struct {
	mu     sync.Mutex
	counts map[proto.PDU]int
}

func newCountReleases() *countReleases {
	return &countReleases{counts: make(map[proto.PDU]int)}
}

func (c *countReleases) release(p proto.PDU) {
	c.mu.Lock()
	c.counts[p]++
	c.mu.Unlock()
}

func (c *countReleases) verify(t *testing.T, pdus []proto.PDU) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range pdus {
		if n := c.counts[p]; n != 1 {
			t.Errorf("pdu %d (%T) released %d times, want exactly 1", i, p, n)
		}
	}
	if len(c.counts) != len(pdus) {
		t.Errorf("released %d distinct PDUs, want %d", len(c.counts), len(pdus))
	}
}

// TestWriterReleaseExactlyOnceSuccess: every flushed PDU retires once.
func TestWriterReleaseExactlyOnceSuccess(t *testing.T) {
	pdus := writerTestPDUs()
	wc, rc := tcpPair(t)
	cr := newCountReleases()
	runWriterCollect(t, wc, rc, writerConfig{release: cr.release}, pdus, nil)
	cr.verify(t, pdus)
}

// errConn fails every write after failAfter bytes and counts closes.
type errConn struct {
	net.Conn
	wrote     atomic.Int64
	failAfter int64
	closed    atomic.Int32
}

var errInjectedWrite = errors.New("injected write failure")

func (c *errConn) Write(b []byte) (int, error) {
	if c.wrote.Load() >= c.failAfter {
		return 0, errInjectedWrite
	}
	c.wrote.Add(int64(len(b)))
	return len(b), nil
}

func (c *errConn) Close() error {
	c.closed.Add(1)
	if c.Conn != nil {
		return c.Conn.Close()
	}
	return nil
}

// TestWriterReleaseExactlyOnceWriteError: a failing flush must release
// the staged batch and everything queued behind it once, close the
// connection, and close the queue so that later puts hand their PDUs back
// to the caller — never a double release. The queue holds more than
// maxWriteBatch bytes, so the cap leaves part of the burst unstaged when
// the first flush fails.
func TestWriterReleaseExactlyOnceWriteError(t *testing.T) {
	pdus := writerTestPDUs()
	for n := 0; n <= maxWriteBatch; n += 8192 {
		pdus = append(pdus, &proto.C2HData{CCCID: nvme.CID(n / 8192), Data: make([]byte, 8192)})
	}
	conn := &errConn{failAfter: 0} // first write fails
	cr := newCountReleases()
	q := newOutQueue(pdus...)
	drainWriter(conn, q, writerConfig{release: cr.release})
	cr.verify(t, pdus)
	if conn.closed.Load() == 0 {
		t.Error("write error did not close the connection")
	}
	if q.put(laneNormal, pdus[0]) {
		t.Error("queue still accepts PDUs after the writer gave up")
	}
}

// TestWriterReleaseExactlyOnceTeardown: PDUs still queued when the
// connection's owner closes the queue are released exactly once, whether
// the writer had staged them or not.
func TestWriterReleaseExactlyOnceTeardown(t *testing.T) {
	pdus := writerTestPDUs()
	cr := newCountReleases()
	q := newOutQueue(pdus...)
	q.close() // teardown already signalled: the writer must take-and-free
	drainWriter(&errConn{failAfter: 1 << 30}, q, writerConfig{release: cr.release})
	cr.verify(t, pdus)

}

// TestWriterSentinelFlushesBeforeClose: everything queued ahead of the
// nil sentinel reaches the wire before the socket closes.
func TestWriterSentinelFlushesBeforeClose(t *testing.T) {
	pdus := writerTestPDUs()
	want := marshalAll(pdus)
	wc, rc := tcpPair(t)
	go drainWriter(wc, newOutQueue(append(pdus, nil)...), writerConfig{})
	got, err := io.ReadAll(rc) // EOF only after the writer closes wc
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sentinel close lost bytes: got %d, want %d", len(got), len(want))
	}
}

// TestWriterFinishesPartialInlineWrite drives one connection's output
// through both paths at once: a borrower writes bursts inline whenever the
// writer is parked with nothing queued, and puts them otherwise. The
// reader starts draining the socket only after a hundred bursts, so inline
// writes go out only in part and the writer goroutine sends the rest. The byte stream must
// still be every PDU, whole and in submission order, each released once,
// and the flushed bytes must add up to the stream.
func TestWriterFinishesPartialInlineWrite(t *testing.T) {
	wc, rc := tcpPair(t)
	if err := wc.(*net.TCPConn).SetWriteBuffer(4096); err != nil {
		t.Fatal(err)
	}
	cr := newCountReleases()
	var flushed atomic.Int64
	d := newDirect(wc, cr.release, func(n int) { flushed.Add(int64(n)) })
	if d == nil {
		t.Fatal("no direct writer for a TCP conn")
	}
	q := newOutQueue()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		drainWriter(wc, q, writerConfig{release: cr.release, flushed: func(n int) { flushed.Add(int64(n)) }, direct: d})
	}()

	var all []proto.PDU
	inline, partial := 0, 0
	gate := make(chan struct{})
	got := make(chan []byte, 1)
	go func() {
		<-gate // nothing is read until the socket has filled
		b, _ := io.ReadAll(rc)
		got <- b
	}()
	// settle gives the writer up to d to park with nothing queued, so the
	// next burst may go inline; a writer stuck on the full socket does not.
	settle := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); time.Sleep(100 * time.Microsecond) {
			q.mu.Lock()
			idle := q.parked && q.empty()
			q.mu.Unlock()
			if idle {
				return
			}
		}
	}
	for i := 0; i < 400; i++ {
		if i == 100 {
			close(gate)
		}
		if i < 100 {
			settle(time.Millisecond)
		} else if i%2 == 0 {
			settle(5 * time.Second)
		}
		data := make([]byte, 4096)
		for j := range data {
			data[j] = byte(i + j)
		}
		burst := []proto.PDU{
			&proto.C2HData{CCCID: nvme.CID(i), Data: data},
			&proto.CapsuleResp{Cpl: nvme.Completion{CID: nvme.CID(i)}},
		}
		all = append(all, burst...)
		if d.fits(burst) && q.borrow() {
			inline++
			rest := d.send(burst)
			if rest {
				partial++
			}
			q.giveBack(rest)
		} else if !q.put(laneNormal, burst...) {
			t.Fatal("writer queue closed early")
		}
	}
	q.put(laneNormal, nil) // flush, then close the socket
	<-writerDone
	stream := <-got
	if want := marshalAll(all); !bytes.Equal(stream, want) {
		t.Fatalf("stream of %d bytes differs from the %d marshalled", len(stream), len(want))
	}
	if flushed.Load() != int64(len(stream)) {
		t.Errorf("flushed %d bytes, stream has %d", flushed.Load(), len(stream))
	}
	cr.verify(t, all)
	if inline == 0 || partial == 0 {
		t.Errorf("%d bursts inline, %d of them partial: want both paths exercised", inline, partial)
	}
	t.Logf("%d bursts: %d inline (%d partial), %d posted", 400, inline, partial, 400-inline)
}
