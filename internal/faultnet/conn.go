package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn is a net.Conn with faults injected on both directions: Wrap an
// existing connection, or dial through Dialer.
//
// Conn applies, per operation and in order: chunking (MaxChunk), delay
// (Latency + Jitter + serialization at BandwidthBPS), the byte-count
// reset trigger, silent drops, and corruption. A reset — injected or
// triggered — closes the underlying connection so blocked peers unwedge,
// and every later operation returns ErrInjectedReset.
type Conn struct {
	inner  net.Conn
	inj    *Injector
	killed atomic.Bool

	// Per-direction serialization clocks for bandwidth pacing and byte
	// counters for ResetAfterBytes.
	mu        [2]sync.Mutex
	busyUntil [2]time.Time
	moved     [2]int64
}

// Wrap places c under the injector's fault policy.
func Wrap(c net.Conn, inj *Injector) *Conn {
	fc := &Conn{inner: c, inj: inj}
	inj.register(fc)
	return fc
}

// Reset forcibly kills the connection, as if the peer sent a RST: the
// underlying socket closes (unblocking any reader) and subsequent
// operations return ErrInjectedReset.
func (c *Conn) Reset() {
	if c.killed.CompareAndSwap(false, true) {
		c.inner.Close()
	}
}

// delay sleeps for the fault-induced latency of moving n bytes: the fixed
// Latency, a jitter draw, and serialization time against the direction's
// bandwidth clock.
func (c *Conn) delay(dir int, f Faults, n int) {
	d := f.Latency + c.inj.jitter(f.Jitter)
	if f.BandwidthBPS > 0 {
		tx := time.Duration(float64(n) / float64(f.BandwidthBPS) * float64(time.Second))
		c.mu[dir].Lock()
		now := time.Now()
		start := c.busyUntil[dir]
		if start.Before(now) {
			start = now
		}
		done := start.Add(tx)
		c.busyUntil[dir] = done
		c.mu[dir].Unlock()
		if wait := time.Until(done); wait > d {
			d = wait
		}
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// account adds n bytes to the direction counter and reports whether the
// ResetAfterBytes trigger fired.
func (c *Conn) account(dir int, f Faults, n int) bool {
	c.mu[dir].Lock()
	c.moved[dir] += int64(n)
	tripped := f.ResetAfterBytes > 0 && c.moved[dir] >= f.ResetAfterBytes
	c.mu[dir].Unlock()
	return tripped
}

// Write implements net.Conn. Chunks are paced, possibly dropped (reported
// as written without transmitting) or corrupted, and the reset trigger is
// honored mid-stream, so a PDU can be cut half-written — the torn-frame
// case the reader-side codec must survive.
func (c *Conn) Write(b []byte) (int, error) {
	total := 0
	for len(b) > 0 {
		if c.killed.Load() {
			return total, ErrInjectedReset
		}
		f := c.inj.faults(DirSend)
		chunk := b
		if f.MaxChunk > 0 && len(chunk) > f.MaxChunk {
			chunk = chunk[:f.MaxChunk]
		}
		c.delay(DirSend, f, len(chunk))
		if c.account(DirSend, f, len(chunk)) {
			c.Reset()
			return total, ErrInjectedReset
		}
		if c.inj.roll(f.DropProb) {
			// Swallowed by the network: the writer believes it sent.
			total += len(chunk)
			b = b[len(chunk):]
			continue
		}
		out := chunk
		if len(chunk) > 0 && c.inj.roll(f.CorruptProb) {
			idx, mask := c.inj.corruptByte(len(chunk))
			out = make([]byte, len(chunk))
			copy(out, chunk)
			out[idx] ^= mask
		}
		n, err := c.inner.Write(out)
		total += n
		if err != nil {
			if c.killed.Load() {
				err = ErrInjectedReset
			}
			return total, err
		}
		b = b[len(chunk):]
	}
	return total, nil
}

// Read implements net.Conn. Received bytes are delayed, possibly
// corrupted, or dropped entirely (the read retries, so a dropped PDU
// looks like silence, not EOF).
func (c *Conn) Read(b []byte) (int, error) {
	for {
		if c.killed.Load() {
			return 0, ErrInjectedReset
		}
		f := c.inj.faults(DirRecv)
		buf := b
		if f.MaxChunk > 0 && len(buf) > f.MaxChunk {
			buf = buf[:f.MaxChunk]
		}
		n, err := c.inner.Read(buf)
		if err != nil {
			if c.killed.Load() {
				err = ErrInjectedReset
			}
			return n, err
		}
		if n == 0 {
			continue
		}
		c.delay(DirRecv, f, n)
		if c.account(DirRecv, f, n) {
			c.Reset()
			return 0, ErrInjectedReset
		}
		if c.inj.roll(f.DropProb) {
			continue // bytes vanished in the fabric
		}
		if c.inj.roll(f.CorruptProb) {
			idx, mask := c.inj.corruptByte(n)
			buf[idx] ^= mask
		}
		return n, nil
	}
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.inj.unregister(c)
	return c.inner.Close()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.inner.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }

// Dialer returns a dial function that wraps every outbound connection
// under inj — it plugs directly into tcptrans.DialConfig.Dialer.
func Dialer(inj *Injector) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return Wrap(c, inj), nil
	}
}
