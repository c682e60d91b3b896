package proto

// Allocation-free hot path for the real transport. Three pools cooperate:
//
//   - payload buffers (GetBuf/PutBuf): size-classed sync.Pools backing
//     in-capsule write data, device read buffers, and the Reader's pooled
//     payload decode. Amortized zero allocations per PDU.
//   - PDU structs (Recycle): the three hot capsule types cycle through
//     sync.Pools so a steady-state datapath never allocates a PDU header
//     object. Cold types (ICReq, ICResp, TermReq, telemetry) are not
//     pooled — they appear once per connection, not once per request.
//   - the Reader's scratch buffer: one per connection, 4 KiB for its whole
//     life. Only common headers, the fixed part of data-bearing PDUs and
//     small control PDUs pass through it; payloads never do.
//
// Ownership rules (the transports enforce them; the simulator recycles
// PDU structs once their receiver is done but never pools a payload):
//
//   - A buffer obtained from GetBuf has exactly one owner at a time; the
//     owner either hands it off (send path) or returns it with PutBuf.
//   - An inbound payload is written once, by the socket read that lands it
//     in the buffer Reader.payloadBuf chose, and that buffer is the PDU's
//     Data from then on: the Reader owns it until Next returns (a failed
//     read releases it), the consumer until ReleaseInbound — or, when it
//     clears Data first (the target parking write data until the device
//     has it), until its own PutBuf.
//   - Recycle never touches the payload: callers that retained or pooled
//     a PDU's Data release it separately, *before* recycling the struct.
//   - PutBuf ignores slices whose capacity is not an exact pool class, so
//     a user-owned buffer that leaks into a release path is dropped to the
//     GC instead of poisoning the pool.

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"nvmeopf/internal/nvme"
)

// Payload-buffer size classes: powers of two from 512 B to 1 MiB (the
// default MaxDataLen). Requests larger than the top class fall back to a
// plain allocation.
const (
	minBufClass   = 512
	maxBufClass   = 1 << 20
	numBufClasses = 12 // 512 << 11 == 1 MiB
)

// bufPools[i] holds buffers of exactly minBufClass<<i bytes. The pooled
// object is a *wrapped slice; wrappers themselves cycle through
// wrapperPool so neither Get nor Put allocates in steady state.
var bufPools [numBufClasses]sync.Pool

// wrapper boxes a slice for sync.Pool (pooling a bare []byte would box it
// into an interface and allocate on every Put).
type wrapper struct{ b []byte }

var wrapperPool = sync.Pool{New: func() any { return new(wrapper) }}

// classFor returns the pool index for a requested size, or -1 when the
// size is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > maxBufClass {
		return -1
	}
	c, size := 0, minBufClass
	for size < n {
		size <<= 1
		c++
	}
	return c
}

// GetBuf returns a buffer with len == n from the pool (capacity is the
// size class). Sizes above the pooled range are plainly allocated.
func GetBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if w, _ := bufPools[c].Get().(*wrapper); w != nil {
		b := w.b
		w.b = nil
		wrapperPool.Put(w)
		return b[:n]
	}
	return make([]byte, n, minBufClass<<c)
}

// PutBuf returns a GetBuf buffer to its pool. Nil slices and slices whose
// capacity does not match a pool class exactly (user-owned or oversized
// buffers) are ignored.
func PutBuf(b []byte) {
	if b == nil {
		return
	}
	c := classFor(cap(b))
	if c < 0 || cap(b) != minBufClass<<c {
		return
	}
	w := wrapperPool.Get().(*wrapper)
	w.b = b[:0]
	bufPools[c].Put(w)
}

// Struct pools for the per-request PDU types.
var (
	capsuleCmdPool  = sync.Pool{New: func() any { return new(CapsuleCmd) }}
	capsuleRespPool = sync.Pool{New: func() any { return new(CapsuleResp) }}
	c2hDataPool     = sync.Pool{New: func() any { return new(C2HData) }}
)

// GetCapsuleCmd returns a zeroed CapsuleCmd from the pool.
func GetCapsuleCmd() *CapsuleCmd { return capsuleCmdPool.Get().(*CapsuleCmd) }

// GetCapsuleResp returns a zeroed CapsuleResp from the pool.
func GetCapsuleResp() *CapsuleResp { return capsuleRespPool.Get().(*CapsuleResp) }

// GetC2HData returns a zeroed C2HData from the pool.
func GetC2HData() *C2HData { return c2hDataPool.Get().(*C2HData) }

// Recycle returns a per-request PDU struct to its pool; other PDU types
// are ignored. It never releases the payload: a caller that owns p.Data
// must PutBuf (or keep) it first — Recycle only drops the reference.
func Recycle(p PDU) {
	switch v := p.(type) {
	case *CapsuleCmd:
		*v = CapsuleCmd{}
		capsuleCmdPool.Put(v)
	case *CapsuleResp:
		*v = CapsuleResp{}
		capsuleRespPool.Put(v)
	case *C2HData:
		*v = C2HData{}
		c2hDataPool.Put(v)
	}
}

// ReleaseInbound retires a PDU obtained from a pooling Reader once the
// state machines are done with it: any payload still attached goes back
// to the buffer pool, then the struct is recycled. A handler that took
// ownership of the payload (the target parking write data in its request
// pool) must have cleared the Data field first.
func ReleaseInbound(p PDU) {
	switch v := p.(type) {
	case *CapsuleCmd:
		PutBuf(v.Data)
		v.Data = nil
	case *C2HData:
		// A Borrowed payload lives in a caller-owned destination buffer
		// (landed there by a C2HSink); returning it to the pool would
		// poison the pool with memory the caller keeps using.
		if !v.Borrowed {
			PutBuf(v.Data)
		}
		v.Data = nil
	}
	Recycle(p)
}

// Reader decodes a PDU stream with a fixed 4 KiB scratch buffer for the
// fixed fields. With pooling enabled, per-request PDU structs come from
// the struct pools and payloads from the buffer pool, making Next
// allocation-free in steady state; the consumer retires each PDU with
// ReleaseInbound when done. Without pooling, Next yields what ReadPDU
// would (fresh structs, fresh payloads). Either way there is one decode
// path per PDU type, shared with Unmarshal.
//
// A Reader is not safe for concurrent use; each connection's read loop
// owns one. The PDU returned by Next is independent of the scratch
// buffer, so the caller may pipeline it (hand it to another goroutine)
// and call Next again immediately.
type Reader struct {
	r       io.Reader
	peek    peeker // r, when it buffers (see Ready)
	scratch []byte
	pooled  bool
	sink    C2HSink
}

// peeker is what Ready needs of a buffering stream; *bufio.Reader has it.
type peeker interface {
	Buffered() int
	Peek(n int) ([]byte, error)
}

// NewReader wraps r. pooled selects pooled structs and payloads (the
// transport datapath); pass false when PDU payloads escape to callers
// that never release them.
func NewReader(r io.Reader, pooled bool) *Reader {
	rd := &Reader{r: r, scratch: make([]byte, 4096), pooled: pooled}
	rd.peek, _ = r.(peeker)
	return rd
}

// Ready reports whether the next PDU already sits whole in the stream's
// buffer, so that Next returns it without reading from underneath. A read
// loop uses it to tell where a burst of pipelined PDUs ends. Always false
// over a stream that does not buffer.
func (rd *Reader) Ready() bool {
	if rd.peek == nil || rd.peek.Buffered() < chSize {
		return false
	}
	h, err := rd.peek.Peek(chSize)
	if err != nil {
		return false
	}
	// A PLen Next would reject counts as ready: the error is due now.
	plen := binary.LittleEndian.Uint32(h[4:])
	return plen > MaxPDUSize || int(plen) <= rd.peek.Buffered()
}

// C2HSink resolves the destination buffer for an inbound C2HData
// payload: given the PDU-specific header fields (command ID, byte offset,
// payload length), it returns the caller-owned slice the payload bytes
// should land in, or nil to decline. A non-nil return must have length
// exactly length; anything else falls back to a pooled read.
//
// The sink runs on the Reader's goroutine while the rest of the PDU is
// still on the wire, so it must not block on the consumer of the PDU.
type C2HSink func(cccid nvme.CID, offset, length uint32) []byte

// SetC2HSink installs the zero-copy destination resolver for C2HData
// payloads. When the sink accepts a payload, Next reads the bytes from
// the wire directly into the returned buffer — no pool staging, no copy —
// and marks the returned PDU Borrowed so release paths leave the caller's
// memory alone. A nil sink (the default) restores pooled decoding.
func (rd *Reader) SetC2HSink(s C2HSink) { rd.sink = s }

// Next reads and decodes one PDU. The returned PDU does not alias the
// reader's internal buffer.
//
// Only the fixed fields of a PDU pass through scratch. A data-bearing PDU
// (CapsuleCmd, C2HData) has its payload read from the stream
// straight into the buffer it will be handed on in, chosen by payloadBuf;
// from there to PutBuf (ReleaseInbound, or whoever the consumer passed the
// buffer to) nothing copies it again.
func (rd *Reader) Next() (PDU, error) {
	if _, err := io.ReadFull(rd.r, rd.scratch[:chSize]); err != nil {
		return nil, err
	}
	typ, flags := Type(rd.scratch[0]), rd.scratch[1]
	plen := binary.LittleEndian.Uint32(rd.scratch[4:])
	if plen < chSize || plen > MaxPDUSize {
		return nil, fmt.Errorf("proto: bad PLen %d", plen)
	}
	p, err := rd.alloc(typ)
	if err != nil {
		return nil, err
	}
	if sp, ok := p.(splitPDU); ok {
		err = rd.readSplit(sp, int(plen)-chSize)
	} else {
		err = rd.readWhole(p, int(plen)-chSize)
	}
	if err != nil {
		// Whatever p holds by now — pooled struct, pooled or borrowed
		// payload buffer — goes back the way a delivered PDU's would.
		if rd.pooled {
			ReleaseInbound(p)
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the stream ended inside a PDU
		}
		return nil, err
	}
	p.setHeaderFlags(flags)
	return p, nil
}

// alloc returns an empty PDU of the given wire type, from the struct pools
// when the Reader pools and the type is a per-request one.
func (rd *Reader) alloc(typ Type) (PDU, error) {
	if rd.pooled {
		switch typ {
		case TypeCapsuleCmd:
			return GetCapsuleCmd(), nil
		case TypeCapsuleResp:
			return GetCapsuleResp(), nil
		case TypeC2HData:
			return GetC2HData(), nil
		}
	}
	return newPDU(typ)
}

// readWhole reads an n-byte body without a detachable payload and decodes
// it in place. The per-request types fit scratch; a rare larger one (a
// TelemetryUpdate with many buckets, a TermReq with a long reason) gets a
// buffer for the one call, so nothing a peer sends pins memory to the
// connection.
func (rd *Reader) readWhole(p PDU, n int) error {
	body := rd.scratch[chSize:]
	if n > len(body) {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(rd.r, body[:n]); err != nil {
		return err
	}
	return p.decodeBody(body[:n])
}

// readSplit reads an n-byte body of a data-bearing PDU: the fixed part
// through scratch, the payload into its final buffer. The buffer is
// attached to p before the read, so a stream that fails mid-payload
// releases it with the PDU, once.
func (rd *Reader) readSplit(p splitPDU, n int) error {
	fixed := p.fixedSize()
	if n < fixed {
		return fmt.Errorf("proto: short %v body: %d", p.PDUType(), n)
	}
	hdr := rd.scratch[chSize : chSize+fixed]
	if _, err := io.ReadFull(rd.r, hdr); err != nil {
		return err
	}
	if err := p.decodeFixed(hdr, n-fixed); err != nil {
		return err
	}
	if n == fixed {
		return nil
	}
	buf := rd.payloadBuf(p, n-fixed)
	p.setPayload(buf)
	_, err := io.ReadFull(rd.r, buf)
	return err
}

// payloadBuf is the one place an inbound payload's buffer is chosen: the
// caller's own memory when a C2HSink accepts the PDU (marked Borrowed so
// release paths leave it alone), else the buffer pool when the Reader
// pools, else a fresh allocation. A sink that declines (unknown CID,
// out-of-range offset) or answers with the wrong length falls through, so
// the buffer is sized by the wire length — never by the untrusted offset —
// and the consumer decides whether to reject the PDU.
func (rd *Reader) payloadBuf(p splitPDU, n int) []byte {
	if d, ok := p.(*C2HData); ok && rd.sink != nil {
		if dst := rd.sink(d.CCCID, d.Offset, uint32(n)); len(dst) == n {
			d.Borrowed = true
			return dst
		}
	}
	if rd.pooled {
		return GetBuf(n)
	}
	return make([]byte, n)
}
