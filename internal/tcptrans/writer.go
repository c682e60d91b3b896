package tcptrans

import (
	"net"
	"syscall"

	"nvmeopf/internal/proto"
)

// maxWriteBatch caps how many marshalled bytes one drain of the outbound
// queue may accumulate before flushing — a full coalesced drain window
// of data PDUs goes out in one syscall, but a slow peer cannot force
// unbounded buffering.
const maxWriteBatch = 256 << 10

// zcPayloadThreshold selects which payloads ride the scatter-gather path:
// a payload at least this large is sent by reference (its slice becomes
// its own iovec entry) instead of being copied into the staging buffer.
// Below the threshold the copy is cheaper than an extra iovec entry.
const zcPayloadThreshold = 1024

// joinThreshold: a staged batch at or below this many wire bytes is
// copied into one contiguous buffer and sent with a plain Write instead
// of a vectored write. For a batch carrying a single small payload the
// memcpy (~hundreds of ns) is cheaper than the iovec setup and kernel
// gather path; writev earns its keep on large multi-PDU batches, where
// the copies it avoids dominate.
const joinThreshold = 16 << 10

// writerConfig parameterizes one connection's drainWriter.
type writerConfig struct {
	// release retires each staged PDU after its bytes are flushed (or
	// dropped on error/teardown) — never earlier, because the payload
	// slice is referenced by the write vector until the syscall lands.
	release func(proto.PDU)
	// closeConn overrides how the writer tears the socket down (nil means
	// conn.Close). The client passes its once-only socket close here while
	// writing to the raw *net.TCPConn, so the writev fast path is not
	// defeated by a wrapper type.
	closeConn func()
	// flushed, when set, is told the wire bytes of each batch once its
	// write has returned — the progress signal for whoever meters the
	// connection's unsent backlog.
	flushed func(bytes int)
	// direct, when set, is where a goroutine that borrowed this writer's
	// role wrote from; the writer finishes what the kernel did not take
	// before anything queued, and releases it on exit.
	direct *direct
}

// wbatch stages one flush worth of PDUs: fixed prefixes (headers, and the
// payloads small enough to copy) accumulate in hdr, while large payloads
// are referenced, not copied — cuts[i] records the hdr offset where
// payloads[i] interleaves. flushVec assembles the net.Buffers vector at
// flush time (indices stay valid across hdr reallocation), merging the
// contiguous header spans between payloads into single iovec entries.
// pending holds every staged PDU until the flush outcome is known:
// ownership of a referenced payload transfers only when the bytes are on
// the wire (or the connection is abandoned), exactly once.
type wbatch struct {
	hdr      []byte
	cuts     []int
	payloads [][]byte
	vec      net.Buffers
	// out is vec handed to a vectored write, which consumes the slice it
	// is called on: a field, so the call does not move a local to the heap
	// on every flush, and not vec itself, whose backing array is reused.
	out     net.Buffers
	join    []byte
	pending []proto.PDU
	bytes   int
}

// add stages one PDU.
func (b *wbatch) add(p proto.PDU) {
	b.bytes += p.WireSize()
	if pl := proto.PayloadRef(p); len(pl) >= zcPayloadThreshold {
		b.hdr = proto.AppendPDUHeader(b.hdr, p)
		b.cuts = append(b.cuts, len(b.hdr))
		b.payloads = append(b.payloads, pl)
	} else {
		b.hdr = proto.AppendPDU(b.hdr, p)
	}
	b.pending = append(b.pending, p)
}

// flushVec assembles the scatter-gather vector for the staged batch.
func (b *wbatch) flushVec() net.Buffers {
	vec := b.vec[:0]
	prev := 0
	for i, cut := range b.cuts {
		if cut > prev {
			vec = append(vec, b.hdr[prev:cut])
		}
		vec = append(vec, b.payloads[i])
		prev = cut
	}
	if len(b.hdr) > prev {
		vec = append(vec, b.hdr[prev:])
	}
	return vec
}

// write flushes the staged bytes to conn: one plain Write when the batch
// is a single contiguous span (no referenced payloads) or small enough
// that joining beats the iovec setup, one vectored write — writev on a
// *net.TCPConn — otherwise.
func (b *wbatch) write(conn net.Conn) error {
	vec := b.flushVec()
	b.vec = vec // keep the (possibly grown) backing array for reuse
	var err error
	switch {
	case len(vec) == 0:
	case len(vec) == 1:
		_, err = conn.Write(vec[0])
	case b.bytes <= joinThreshold:
		_, err = conn.Write(b.joined(vec))
	default:
		b.out = vec
		_, err = b.out.WriteTo(conn)
		b.out = nil
	}
	// Clear the saved entries so retired payloads are not pinned by the
	// reused backing array until the next flush overwrites them.
	for i := range b.vec {
		b.vec[i] = nil
	}
	b.vec = b.vec[:0]
	return err
}

// joined copies vec, the staged batch, into one contiguous buffer.
func (b *wbatch) joined(vec net.Buffers) []byte {
	b.join = b.join[:0]
	for _, s := range vec {
		b.join = append(b.join, s...)
	}
	return b.join
}

// retire releases every staged PDU exactly once and resets the batch.
func (b *wbatch) retire(release func(proto.PDU)) {
	for i, p := range b.pending {
		if p != nil && release != nil {
			release(p)
		}
		b.pending[i] = nil
	}
	b.pending = b.pending[:0]
	for i := range b.payloads {
		b.payloads[i] = nil
	}
	b.payloads = b.payloads[:0]
	b.cuts = b.cuts[:0]
	b.hdr = b.hdr[:0]
	b.bytes = 0
}

// drainWriter is the outbound half of one connection, shared by the
// server and the client: it swaps whole bursts of PDUs out of q, stages
// them — headers marshalled allocation-free into one reused buffer, large
// payloads referenced in place — picking up whatever else was queued
// meanwhile, up to maxWriteBatch bytes, then flushes the whole batch with a
// single (vectored) write. Payload bytes travel from the owner's buffer
// to the socket without an intermediate copy, and a burst of N coalesced
// responses costs one syscall instead of N. Producers never block on q
// and wake the writer at most once per burst; the writer parks on q alone.
//
// A nil PDU in q is the flush-then-close sentinel: everything queued
// before it is written, then the socket is closed — how a reactor-side
// protocol error tears the connection down without racing a final
// TermReq off the wire.
//
// cfg.release retires each PDU after its flush resolves (success, write
// error, or teardown drop) — exactly once, never at stage time, because
// the write vector references pooled payload bytes until the syscall
// lands. The writer returns once q is closed (the connection's owner
// closes it at teardown), after the sentinel, or after a write error — it
// closes q itself in the last two cases, so later puts fail and their
// callers release what they hold.
func drainWriter(conn net.Conn, q *burstQueue[proto.PDU], cfg writerConfig) {
	closeConn := cfg.closeConn
	if closeConn == nil {
		closeConn = func() { conn.Close() }
	}
	b := &wbatch{hdr: make([]byte, 0, 64<<10)}
	var in []proto.PDU // the burst in hand; in[:next] is staged already
	next := 0
	defer func() {
		// Whatever ended the writer, each PDU that reached q is released
		// exactly once: the staged batch, the rest of the burst in hand,
		// and what was queued behind it — and what a borrower left
		// unsent, since no loan outlives the queue's close.
		b.retire(cfg.release)
		if d := cfg.direct; d != nil {
			d.rest = nil
			d.b.retire(cfg.release)
		}
		for _, rest := range [][]proto.PDU{in[next:], q.take(laneNormal, nil)} {
			for _, p := range rest {
				if p != nil && cfg.release != nil {
					cfg.release(p)
				}
			}
		}
		q.dropPipe()
	}()
	for {
		if next == len(in) && b.bytes == 0 {
			var open bool
			next = 0
			if in, open = q.next(in); !open {
				return
			}
			if d := cfg.direct; d != nil && len(d.rest) > 0 {
				// A borrower's write the kernel took only part of: its
				// tail goes before anything queued since.
				_, err := conn.Write(d.rest)
				d.rest = nil
				if cfg.flushed != nil {
					cfg.flushed(d.b.bytes)
				}
				d.b.retire(cfg.release)
				if err != nil {
					closeConn()
					q.close()
					return
				}
				continue
			}
		}
		closeAfter := false
		for next < len(in) && b.bytes < maxWriteBatch && !closeAfter {
			p := in[next]
			in[next] = nil
			next++
			if p == nil {
				closeAfter = true
			} else {
				b.add(p)
			}
		}
		if next == len(in) && b.bytes < maxWriteBatch && !closeAfter {
			// The burst ran dry below the cap: take what was queued while
			// it was being staged.
			if in, next = q.take(laneNormal, in), 0; len(in) > 0 {
				continue
			}
		}
		err := b.write(conn)
		if cfg.flushed != nil {
			cfg.flushed(b.bytes)
		}
		b.retire(cfg.release)
		if err != nil || closeAfter {
			closeConn() // unblocks the read loop; on the sentinel, after the flush
			q.close()
			return
		}
	}
}

// direct lets a goroutine that borrowed a connection's parked writer (a
// loan of its outbound queue: the writer is idle, nothing is queued or
// staged) put a small burst on the wire itself, where a hand-off would wake
// the writer goroutine for it. The burst is joined into one buffer and
// written with one non-blocking write: an inline write never blocks, so a
// peer that stopped reading cannot hold the borrower. Whatever the kernel
// did not take stays in rest for the writer goroutine, which the loan's
// return wakes to send it before anything queued behind it.
type direct struct {
	raw     syscall.RawConn
	release func(proto.PDU)
	flushed func(bytes int)
	b       wbatch
	rest    []byte // b's joined bytes not yet on the wire; b's PDUs wait for them
	// n is what the last write took: a field, like its argument rest, so
	// the callback handed to raw.Write is one method value bound once, not
	// a closure per write.
	n       int
	writeFd func(fd uintptr) bool
}

// newDirect returns conn's direct writer, or nil when conn is not a socket
// that can be written without blocking (a wrapped or in-memory conn): its
// output always goes through the writer goroutine.
func newDirect(conn net.Conn, release func(proto.PDU), flushed func(int)) *direct {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	d := &direct{raw: raw, release: release, flushed: flushed}
	d.writeFd = d.write1
	return d
}

// fits reports whether pdus may be written inline: a joined batch no
// larger than joinThreshold, holding no flush-then-close sentinel (that
// one needs the writer, which closes the socket after it).
func (d *direct) fits(pdus []proto.PDU) bool {
	n := 0
	for _, p := range pdus {
		if p == nil {
			return false
		}
		n += p.WireSize()
	}
	return n <= joinThreshold
}

// write1 is one non-blocking write of d.rest; the poller never waits.
func (d *direct) write1(fd uintptr) bool {
	d.n = writeFD(fd, d.rest)
	return true
}

// send writes pdus, which fit, holding the writer's loan, and reports
// whether the writer must finish the job: the kernel took less than all
// (a full socket, or an error the writer's own write will surface). Sent
// in full, the PDUs are released here.
func (d *direct) send(pdus []proto.PDU) (rest bool) {
	b := &d.b
	for _, p := range pdus {
		b.add(p)
	}
	vec := b.flushVec()
	d.rest = b.joined(vec)
	clear(vec) // the join holds the bytes; drop the payload references
	b.vec = vec[:0]
	d.n = 0
	if d.raw.Write(d.writeFd) == nil && d.n > 0 {
		d.rest = d.rest[d.n:]
	}
	if len(d.rest) > 0 {
		return true
	}
	d.rest = nil
	if d.flushed != nil {
		d.flushed(b.bytes)
	}
	b.retire(d.release)
	return false
}

// releaseServerPDU retires an outbound PDU after the server writer has
// flushed (or dropped) it: pooled read payloads go back to the buffer
// pool, per-request structs to the struct pools. Cold PDUs (ICResp,
// TermReq) pass through Recycle as no-ops.
func releaseServerPDU(p proto.PDU) {
	if d, ok := p.(*proto.C2HData); ok {
		proto.PutBuf(d.Data)
		d.Data = nil
	}
	proto.Recycle(p)
}

// releaseClientPDU retires an outbound PDU after the client writer has
// flushed (or dropped) it. CapsuleCmd write payloads are user-owned
// (hostqp passes the caller's slice through), so only the reference is
// dropped — never the buffer.
func releaseClientPDU(p proto.PDU) {
	if c, ok := p.(*proto.CapsuleCmd); ok {
		c.Data = nil
	}
	proto.Recycle(p)
}
