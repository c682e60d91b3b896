package proto

// Allocation-free hot path for the real transport. Three pools cooperate:
//
//   - payload buffers (GetBuf/PutBuf): size-classed sync.Pools backing
//     in-capsule write data, device read buffers, and the Reader's pooled
//     payload decode. Amortized zero allocations per PDU.
//   - PDU structs (Recycle): the three hot capsule types cycle through
//     sync.Pools so a steady-state datapath never allocates a PDU header
//     object. Cold types (ICReq, ICResp, TermReq, discovery) are not
//     pooled — they appear once per connection, not once per request.
//   - the Reader's scratch buffer: one per connection, grown to the
//     largest PDU seen and reused for every wire read.
//
// Ownership rules (the transports enforce them; the simulator never
// pools):
//
//   - A buffer obtained from GetBuf has exactly one owner at a time; the
//     owner either hands it off (send path) or returns it with PutBuf.
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
	case *H2CData:
		PutBuf(v.Data)
		v.Data = nil
	}
	Recycle(p)
}

// pooledDecoder is implemented by the data-bearing PDU types: decode with
// the payload drawn from the buffer pool instead of a fresh allocation.
type pooledDecoder interface {
	decodeBodyPooled(src []byte) error
}

// Reader decodes a PDU stream with a reusable scratch buffer. With
// pooling enabled, per-request PDU structs come from the struct pools and
// payloads from the buffer pool, making Next allocation-free in steady
// state; the consumer retires each PDU with ReleaseInbound when done.
// Without pooling, Next behaves like ReadPDU (fresh structs, fresh
// payloads) while still reusing the scratch buffer for the wire read.
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
func (rd *Reader) Next() (PDU, error) {
	if _, err := io.ReadFull(rd.r, rd.scratch[:chSize]); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(rd.scratch[4:])
	if plen < chSize || plen > MaxPDUSize {
		return nil, fmt.Errorf("proto: bad PLen %d", plen)
	}
	if rd.sink != nil && Type(rd.scratch[0]) == TypeC2HData && plen >= chSize+c2hPSHSize {
		return rd.nextC2HDataSink(int(plen), rd.scratch[1])
	}
	if int(plen) > len(rd.scratch) {
		grown := make([]byte, 1<<bitsFor(int(plen)))
		copy(grown, rd.scratch[:chSize])
		rd.scratch = grown
	}
	buf := rd.scratch[:plen]
	if _, err := io.ReadFull(rd.r, buf[chSize:]); err != nil {
		return nil, err
	}
	typ := Type(buf[0])
	flags := buf[1]
	var p PDU
	if rd.pooled {
		switch typ {
		case TypeCapsuleCmd:
			p = GetCapsuleCmd()
		case TypeCapsuleResp:
			p = GetCapsuleResp()
		case TypeC2HData:
			p = GetC2HData()
		}
	}
	if p == nil {
		var err error
		if p, err = newPDU(typ); err != nil {
			return nil, err
		}
	}
	body := buf[chSize:]
	var err error
	if pd, ok := p.(pooledDecoder); ok && rd.pooled {
		err = pd.decodeBodyPooled(body)
	} else {
		err = p.decodeBody(body)
	}
	if err != nil {
		if rd.pooled {
			ReleaseInbound(p)
		}
		return nil, err
	}
	p.setHeaderFlags(flags)
	return p, nil
}

// nextC2HDataSink is the zero-copy read path: the 16-byte PDU-specific
// header is decoded from scratch, then the payload bytes are read from
// the wire directly into the destination the sink resolves — the pooled
// staging copy the plain path pays disappears. When the sink declines
// (unknown CID, out-of-range offset), the payload falls back to a pooled
// buffer sized by the actual wire length — never by the untrusted offset
// — and the consumer decides whether to reject the PDU.
func (rd *Reader) nextC2HDataSink(plen int, flags uint8) (PDU, error) {
	psh := rd.scratch[chSize : chSize+c2hPSHSize]
	if _, err := io.ReadFull(rd.r, psh); err != nil {
		return nil, err
	}
	payload := plen - chSize - c2hPSHSize
	n := binary.LittleEndian.Uint32(psh[8:])
	if int(n) != payload {
		return nil, fmt.Errorf("proto: C2HData length field %d != payload %d", n, payload)
	}
	var p *C2HData
	if rd.pooled {
		p = GetC2HData()
	} else {
		p = &C2HData{}
	}
	p.CCCID = binary.LittleEndian.Uint16(psh[0:])
	p.Offset = binary.LittleEndian.Uint32(psh[4:])
	p.Borrowed = false
	if payload == 0 {
		p.Data = nil
		p.setHeaderFlags(flags)
		return p, nil
	}
	if dst := rd.sink(p.CCCID, p.Offset, n); len(dst) == payload {
		if _, err := io.ReadFull(rd.r, dst); err != nil {
			if rd.pooled {
				Recycle(p)
			}
			return nil, err
		}
		p.Data = dst
		p.Borrowed = true
		p.setHeaderFlags(flags)
		return p, nil
	}
	var buf []byte
	if rd.pooled {
		buf = GetBuf(payload)
	} else {
		buf = make([]byte, payload)
	}
	if _, err := io.ReadFull(rd.r, buf); err != nil {
		if rd.pooled {
			PutBuf(buf)
			Recycle(p)
		}
		return nil, err
	}
	p.Data = buf
	p.setHeaderFlags(flags)
	return p, nil
}

// bitsFor returns ceil(log2(n)) for n >= 1.
func bitsFor(n int) uint {
	var b uint
	for (1 << b) < n {
		b++
	}
	return b
}

// clonePayload copies src into a pooled buffer (nil for empty payloads).
func clonePayload(src []byte) []byte {
	if len(src) == 0 {
		return nil
	}
	dst := GetBuf(len(src))
	copy(dst, src)
	return dst
}

// decodeBodyPooled implements pooledDecoder for CapsuleCmd.
func (p *CapsuleCmd) decodeBodyPooled(src []byte) error {
	if len(src) < nvme.CommandSize {
		return fmt.Errorf("proto: short CapsuleCmd body: %d", len(src))
	}
	if err := p.Cmd.Unmarshal(src); err != nil {
		return err
	}
	p.Prio = decodePriority(src[sqePrioOffset])
	p.Tenant = TenantID(binary.LittleEndian.Uint16(src[sqeTenantOffset:]))
	p.Data = clonePayload(src[nvme.CommandSize:])
	return nil
}

// decodeBodyPooled implements pooledDecoder for C2HData.
func (p *C2HData) decodeBodyPooled(src []byte) error {
	if len(src) < c2hPSHSize {
		return fmt.Errorf("proto: short C2HData body: %d", len(src))
	}
	p.CCCID = binary.LittleEndian.Uint16(src[0:])
	p.Offset = binary.LittleEndian.Uint32(src[4:])
	n := binary.LittleEndian.Uint32(src[8:])
	if int(n) != len(src)-c2hPSHSize {
		return fmt.Errorf("proto: C2HData length field %d != payload %d", n, len(src)-c2hPSHSize)
	}
	p.Data = clonePayload(src[c2hPSHSize:])
	return nil
}

// decodeBodyPooled implements pooledDecoder for H2CData.
func (p *H2CData) decodeBodyPooled(src []byte) error {
	if len(src) < c2hPSHSize {
		return fmt.Errorf("proto: short H2CData body: %d", len(src))
	}
	p.CCCID = binary.LittleEndian.Uint16(src[0:])
	p.Offset = binary.LittleEndian.Uint32(src[4:])
	n := binary.LittleEndian.Uint32(src[8:])
	if int(n) != len(src)-c2hPSHSize {
		return fmt.Errorf("proto: H2CData length field %d != payload %d", n, len(src)-c2hPSHSize)
	}
	p.Data = clonePayload(src[c2hPSHSize:])
	return nil
}
