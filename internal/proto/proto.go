// Package proto implements the NVMe/TCP-like PDU layer that NVMe-oPF
// initiators and targets exchange, including the paper's protocol
// extension: two reserved bits of each command capsule carry the
// latency-sensitive / throughput-critical / draining priority flags (a
// third reserved bit carries this dialect's scavenger/best-effort
// class), and reserved bits carry the per-initiator tenant ID (§IV-A).
//
// The layout follows the NVMe/TCP transport specification's structure
// (8-byte common header, capsule/data PDUs) but is a simplified dialect,
// not byte-compatible with the spec: digests, R2T and PDU data alignment
// are omitted because the runtime always sends command data in-capsule
// (as SPDK's target does for small I/O). Field semantics — and crucially
// the placement of the priority flags and tenant IDs in bytes that the
// base protocol reserves — are preserved, so PDU sizes on the wire match
// what the paper's modified SPDK would transmit: the priority extension
// adds zero bytes to any PDU (§IV-A, "the size of the PDUs remains
// unchanged").
package proto

import (
	"encoding/binary"
	"fmt"
	"io"

	"nvmeopf/internal/nvme"
)

// Type identifies a PDU type (values follow the NVMe/TCP spec).
type Type uint8

// PDU types. 0x06, the spec's H2CData, is retired: this dialect carries
// every write in-capsule, so a peer that sends one is refused at the type
// byte, before any of its payload is read.
const (
	TypeICReq       Type = 0x00
	TypeICResp      Type = 0x01
	TypeH2CTermReq  Type = 0x02
	TypeC2HTermReq  Type = 0x03
	TypeCapsuleCmd  Type = 0x04
	TypeCapsuleResp Type = 0x05
	TypeC2HData     Type = 0x07
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeICReq:
		return "ICReq"
	case TypeICResp:
		return "ICResp"
	case TypeH2CTermReq:
		return "H2CTermReq"
	case TypeC2HTermReq:
		return "C2HTermReq"
	case TypeCapsuleCmd:
		return "CapsuleCmd"
	case TypeCapsuleResp:
		return "CapsuleResp"
	case TypeC2HData:
		return "C2HData"
	case TypeTelemetryUpdate:
		return "TelemetryUpdate"
	case TypeTelemetryAck:
		return "TelemetryAck"
	default:
		return fmt.Sprintf("Type(0x%02x)", uint8(t))
	}
}

// Priority is the priority field the paper adds to command capsules: the
// paper's 2-bit LS/TC/draining flags, plus one more reserved bit this
// dialect claims for the scavenger (best-effort) class. Draining implies
// throughput-critical: a draining request is the last request of a TC
// window and instructs the target to execute and complete the whole
// pending batch (§III-C).
type Priority uint8

// Priority values. The paper's three flags pack into the low two bits;
// the scavenger class occupies bit 2 alone, so a legacy peer masking the
// low two bits reads a scavenger request as PrioNormal (FIFO path) — a
// safe downgrade, never an accidental LS/TC/draining escalation. There
// is deliberately no scavenger+draining combination: scavenger drains
// are target-driven (leftover capacity or aging), never host-flagged,
// and value 5 would alias to latency-sensitive under a legacy mask.
const (
	PrioNormal             Priority = 0 // legacy NVMe-oF request, FIFO path
	PrioLatencySensitive   Priority = 1
	PrioThroughputCritical Priority = 2
	PrioTCDraining         Priority = 3
	PrioScavenger          Priority = 4 // best-effort: leftover capacity only
)

// LatencySensitive reports whether the request asked for the LS bypass.
func (p Priority) LatencySensitive() bool { return p == PrioLatencySensitive }

// ThroughputCritical reports whether the request joins a TC queue
// (draining requests are TC requests too).
func (p Priority) ThroughputCritical() bool {
	return p == PrioThroughputCritical || p == PrioTCDraining
}

// Draining reports whether the request carries the draining flag.
func (p Priority) Draining() bool { return p == PrioTCDraining }

// Scavenger reports whether the request runs in the best-effort class
// (drained only from leftover capacity, aged so it cannot starve).
func (p Priority) Scavenger() bool { return p == PrioScavenger }

// String implements fmt.Stringer.
func (p Priority) String() string {
	switch p {
	case PrioNormal:
		return "normal"
	case PrioLatencySensitive:
		return "latency-sensitive"
	case PrioThroughputCritical:
		return "throughput-critical"
	case PrioTCDraining:
		return "throughput-critical+draining"
	case PrioScavenger:
		return "scavenger"
	default:
		return fmt.Sprintf("Priority(%d)", uint8(p))
	}
}

// encodePriority canonicalizes a priority for the wire: scavenger emits
// bit 2 alone (so legacy peers masking two bits read PrioNormal); every
// other value is masked to the paper's two bits.
func encodePriority(p Priority) uint8 {
	if p.Scavenger() {
		return uint8(PrioScavenger)
	}
	return uint8(p) & 0x3
}

// decodePriority inverts encodePriority. Any byte with the scavenger bit
// set decodes as PrioScavenger regardless of the low bits — a peer
// cannot smuggle an LS or draining flag alongside the scavenger bit.
func decodePriority(b uint8) Priority {
	if b&uint8(PrioScavenger) != 0 {
		return PrioScavenger
	}
	return Priority(b & 0x3)
}

// TenantID identifies an initiator within a target. The paper used 8
// reserved bits in the command capsule (§IV-A); this dialect widens the
// field to 16 bits — little-endian in SQE bytes 9..10, still inside the
// reserved region, still zero extra wire bytes — so one cluster can
// address thousands of tenants.
type TenantID uint16

// Offsets of the priority extension inside the 64-byte SQE: bytes 8..10
// sit in the region the base NVMe spec reserves for command dwords the I/O
// command set does not use over fabrics, which is where the paper stashes
// its bits (byte 8: priority; bytes 9..10: tenant ID, little-endian).
const (
	sqePrioOffset   = 8
	sqeTenantOffset = 9
)

// chSize is the PDU common header size: Type(1) Flags(1) HLen(1) PDO(1)
// PLen(4).
const chSize = 8

// Common-header flag bits.
const (
	// FlagCoalesced marks a CapsuleResp that completes a drained window:
	// it implicitly completes every TC request of the same tenant queued
	// before the CID it names (§III-B).
	FlagCoalesced uint8 = 1 << 0
)

// PDU is implemented by every protocol data unit. WireSize is the exact
// encoded size and is what the network model charges for transmission.
type PDU interface {
	PDUType() Type
	WireSize() int
	encodeBody(dst []byte) // dst has WireSize()-chSize bytes
	decodeBody(src []byte) error
	headerFlags() uint8
	setHeaderFlags(uint8)
}

// ICReq opens a queue pair: the host proposes protocol version, its queue
// depth, the priority class it wants this connection to run under, the
// drain window it opens with, and the namespace whose geometry the ICResp
// should describe (0 selects the target's namespace).
type ICReq struct {
	PFV        uint16 // protocol format version
	QueueDepth uint16
	Prio       Priority
	// Window is the TC drain window the host opens with: the bound the
	// target's adaptive controller holds the tenant to. Zero (a peer built
	// before hosts declared it) declares none.
	Window uint16
	NSID   uint32
}

// ICReqSize is the wire size of an ICReq.
const ICReqSize = chSize + 16

// PDUType implements PDU.
func (*ICReq) PDUType() Type { return TypeICReq }

// WireSize implements PDU.
func (*ICReq) WireSize() int { return ICReqSize }

func (p *ICReq) encodeBody(dst []byte) {
	binary.LittleEndian.PutUint16(dst[0:], p.PFV)
	binary.LittleEndian.PutUint16(dst[2:], p.QueueDepth)
	dst[4] = encodePriority(p.Prio)
	binary.LittleEndian.PutUint16(dst[6:], p.Window)
	binary.LittleEndian.PutUint32(dst[8:], p.NSID)
}

func (p *ICReq) decodeBody(src []byte) error {
	if len(src) < ICReqSize-chSize {
		return fmt.Errorf("proto: short ICReq body: %d", len(src))
	}
	p.PFV = binary.LittleEndian.Uint16(src[0:])
	p.QueueDepth = binary.LittleEndian.Uint16(src[2:])
	p.Prio = decodePriority(src[4])
	p.Window = binary.LittleEndian.Uint16(src[6:])
	p.NSID = binary.LittleEndian.Uint32(src[8:])
	return nil
}

func (p *ICReq) headerFlags() uint8     { return 0 }
func (p *ICReq) setHeaderFlags(f uint8) {}

// ICResp accepts a queue pair, assigns the tenant ID the host must stamp
// into every subsequent command capsule, and describes the namespace so
// the host learns the device geometry during the handshake (the fabrics
// analogue of Identify Namespace).
type ICResp struct {
	PFV        uint16
	Tenant     TenantID
	MaxDataLen uint32 // largest in-capsule data the target accepts
	BlockSize  uint32 // namespace logical block size in bytes
	Capacity   uint64 // namespace capacity in logical blocks
	// TargetClock is the target's clock (nanoseconds) sampled while
	// building this response. The host combines it with its own send and
	// receive times to estimate the clock offset between the runtimes, so
	// flight-recorder dumps from both sides land on one time axis. Zero
	// means the target declined to share a clock.
	TargetClock int64
}

// ICRespSize is the wire size of an ICResp.
const ICRespSize = chSize + 32

// PDUType implements PDU.
func (*ICResp) PDUType() Type { return TypeICResp }

// WireSize implements PDU.
func (*ICResp) WireSize() int { return ICRespSize }

func (p *ICResp) encodeBody(dst []byte) {
	binary.LittleEndian.PutUint16(dst[0:], p.PFV)
	binary.LittleEndian.PutUint16(dst[2:], uint16(p.Tenant))
	binary.LittleEndian.PutUint32(dst[4:], p.MaxDataLen)
	binary.LittleEndian.PutUint32(dst[8:], p.BlockSize)
	binary.LittleEndian.PutUint64(dst[12:], p.Capacity)
	binary.LittleEndian.PutUint64(dst[24:], uint64(p.TargetClock))
}

func (p *ICResp) decodeBody(src []byte) error {
	if len(src) < ICRespSize-chSize {
		return fmt.Errorf("proto: short ICResp body: %d", len(src))
	}
	p.PFV = binary.LittleEndian.Uint16(src[0:])
	p.Tenant = TenantID(binary.LittleEndian.Uint16(src[2:]))
	p.MaxDataLen = binary.LittleEndian.Uint32(src[4:])
	p.BlockSize = binary.LittleEndian.Uint32(src[8:])
	p.Capacity = binary.LittleEndian.Uint64(src[12:])
	p.TargetClock = int64(binary.LittleEndian.Uint64(src[24:]))
	return nil
}

func (p *ICResp) headerFlags() uint8     { return 0 }
func (p *ICResp) setHeaderFlags(f uint8) {}

// CapsuleCmd carries one NVMe command, the priority extension, and (for
// writes) the in-capsule data.
type CapsuleCmd struct {
	Cmd    nvme.Command
	Prio   Priority
	Tenant TenantID
	Data   []byte // in-capsule write payload; nil for reads/flush
}

// PDUType implements PDU.
func (*CapsuleCmd) PDUType() Type { return TypeCapsuleCmd }

// WireSize implements PDU.
func (p *CapsuleCmd) WireSize() int { return chSize + nvme.CommandSize + len(p.Data) }

func (p *CapsuleCmd) encodeBody(dst []byte) {
	p.encodeFixed(dst)
	copy(dst[nvme.CommandSize:], p.Data)
}

func (p *CapsuleCmd) encodeFixed(dst []byte) {
	p.Cmd.Marshal(dst)
	// The priority extension lives in reserved SQE bytes, so it costs no
	// extra wire bytes (§IV-A).
	dst[sqePrioOffset] = encodePriority(p.Prio)
	binary.LittleEndian.PutUint16(dst[sqeTenantOffset:], uint16(p.Tenant))
}

func (p *CapsuleCmd) payloadRef() []byte { return p.Data }

func (p *CapsuleCmd) setPayload(b []byte) { p.Data = b }

func (*CapsuleCmd) fixedSize() int { return nvme.CommandSize }

func (p *CapsuleCmd) decodeFixed(src []byte, _ int) error {
	if err := p.Cmd.Unmarshal(src); err != nil {
		return err
	}
	p.Prio = decodePriority(src[sqePrioOffset])
	p.Tenant = TenantID(binary.LittleEndian.Uint16(src[sqeTenantOffset:]))
	return nil
}

func (p *CapsuleCmd) decodeBody(src []byte) error { return decodeSplit(p, src) }

func (p *CapsuleCmd) headerFlags() uint8     { return 0 }
func (p *CapsuleCmd) setHeaderFlags(f uint8) {}

// CapsuleResp carries one NVMe completion. When Coalesced is set, this is
// the single completion notification for a drained TC window: the host must
// treat every TC request of the same tenant submitted before the named CID
// as completed with the same status (§III-B, Alg. 2).
type CapsuleResp struct {
	Cpl       nvme.Completion
	Coalesced bool
}

// CapsuleRespSize is the wire size of a CapsuleResp: this is the
// "completion notification packet" whose count the coalescing strategy
// minimizes (Fig. 6(c)).
const CapsuleRespSize = chSize + nvme.CompletionSize

// PDUType implements PDU.
func (*CapsuleResp) PDUType() Type { return TypeCapsuleResp }

// WireSize implements PDU.
func (*CapsuleResp) WireSize() int { return CapsuleRespSize }

func (p *CapsuleResp) encodeBody(dst []byte) {
	p.Cpl.Marshal(dst)
}

func (p *CapsuleResp) decodeBody(src []byte) error {
	if len(src) < nvme.CompletionSize {
		return fmt.Errorf("proto: short CapsuleResp body: %d", len(src))
	}
	return p.Cpl.Unmarshal(src)
}

func (p *CapsuleResp) headerFlags() uint8 {
	if p.Coalesced {
		return FlagCoalesced
	}
	return 0
}

func (p *CapsuleResp) setHeaderFlags(f uint8) { p.Coalesced = f&FlagCoalesced != 0 }

// C2HData carries read data from the target to the host.
type C2HData struct {
	CCCID  nvme.CID // CID of the command this data answers
	Offset uint32   // byte offset within the command's buffer
	Data   []byte
	// Borrowed marks Data as caller-owned rather than pool-owned: a
	// Reader with a C2HSink landed the payload directly in the
	// destination buffer the sink returned, so ReleaseInbound must drop
	// the reference without returning it to the buffer pool. Never set
	// on the send path; not a wire field.
	Borrowed bool
}

// c2hPSHSize is the size of the C2HData PDU-specific header.
const c2hPSHSize = 16

// PDUType implements PDU.
func (*C2HData) PDUType() Type { return TypeC2HData }

// WireSize implements PDU.
func (p *C2HData) WireSize() int { return chSize + c2hPSHSize + len(p.Data) }

func (p *C2HData) encodeBody(dst []byte) {
	p.encodeFixed(dst)
	copy(dst[c2hPSHSize:], p.Data)
}

func (p *C2HData) encodeFixed(dst []byte) {
	binary.LittleEndian.PutUint16(dst[0:], p.CCCID)
	binary.LittleEndian.PutUint32(dst[4:], p.Offset)
	binary.LittleEndian.PutUint32(dst[8:], uint32(len(p.Data)))
}

func (p *C2HData) payloadRef() []byte { return p.Data }

func (p *C2HData) setPayload(b []byte) { p.Data = b }

func (*C2HData) fixedSize() int { return c2hPSHSize }

// decodeFixed holds the PSH's length field to the payload bytes the
// common header's PLen leaves after it.
func (p *C2HData) decodeFixed(src []byte, payload int) error {
	if n := binary.LittleEndian.Uint32(src[8:]); uint64(n) != uint64(payload) {
		return fmt.Errorf("proto: %v length field %d != payload %d", TypeC2HData, n, payload)
	}
	p.CCCID, p.Offset = binary.LittleEndian.Uint16(src[0:]), binary.LittleEndian.Uint32(src[4:])
	return nil
}

func (p *C2HData) decodeBody(src []byte) error { return decodeSplit(p, src) }

func (p *C2HData) headerFlags() uint8     { return 0 }
func (p *C2HData) setHeaderFlags(f uint8) {}

// TermReq aborts a connection with a fatal error status (both directions
// use the same body).
type TermReq struct {
	Dir    Type // TypeH2CTermReq or TypeC2HTermReq
	FES    uint16
	Reason string
}

// PDUType implements PDU.
func (p *TermReq) PDUType() Type { return p.Dir }

// WireSize implements PDU.
func (p *TermReq) WireSize() int { return chSize + 4 + len(p.Reason) }

func (p *TermReq) encodeBody(dst []byte) {
	binary.LittleEndian.PutUint16(dst[0:], p.FES)
	copy(dst[4:], p.Reason)
}

func (p *TermReq) decodeBody(src []byte) error {
	if len(src) < 4 {
		return fmt.Errorf("proto: short TermReq body: %d", len(src))
	}
	p.FES = binary.LittleEndian.Uint16(src[0:])
	p.Reason = string(src[4:])
	return nil
}

func (p *TermReq) headerFlags() uint8     { return 0 }
func (p *TermReq) setHeaderFlags(f uint8) {}

// MaxPDUSize bounds the accepted PLen to prevent hostile or corrupt
// headers from triggering huge allocations.
const MaxPDUSize = 16 << 20

// AppendPDU appends the encoding of p to dst and returns the extended
// slice. When dst has capacity for the PDU this performs no allocation,
// so a transport writer batching a drain window of PDUs into one reused
// buffer marshals the whole burst allocation-free.
func AppendPDU(dst []byte, p PDU) []byte {
	size := p.WireSize()
	off := len(dst)
	dst = append(dst, make([]byte, size)...)
	buf := dst[off:]
	buf[0] = uint8(p.PDUType())
	buf[1] = p.headerFlags()
	buf[2] = chSize
	buf[3] = chSize // data begins after PSH; informational in this dialect
	binary.LittleEndian.PutUint32(buf[4:], uint32(size))
	p.encodeBody(buf[chSize:])
	return dst
}

// Marshal encodes a PDU into a fresh byte slice.
func Marshal(p PDU) []byte {
	return AppendPDU(make([]byte, 0, p.WireSize()), p)
}

// splitPDU is implemented by the data-bearing PDU types (CapsuleCmd and
// C2HData), whose encoding is a fixed part — the 64-byte SQE or
// the 16-byte PDU-specific header — followed by a verbatim payload. Both
// directions split there: a scatter-gather writer marshals the fixed part
// and sends the payload straight from the owner's buffer, and a decoder
// parses the fixed part once (decodeFixed is the only decode of those
// fields) and puts the payload wherever its caller wants it — a private
// copy for Unmarshal, the final buffer read off the stream for Reader.
type splitPDU interface {
	PDU
	fixedSize() int
	encodeFixed(dst []byte) // dst has fixedSize() bytes
	// decodeFixed parses src (fixedSize() bytes) and holds any length field
	// in it to payload, the count of bytes that follow.
	decodeFixed(src []byte, payload int) error
	payloadRef() []byte
	setPayload([]byte)
}

// decodeSplit decodes a data-bearing PDU whose whole body is in memory,
// giving it a copy of the payload (nil when there is none).
func decodeSplit(p splitPDU, src []byte) error {
	n := p.fixedSize()
	if len(src) < n {
		return fmt.Errorf("proto: short %v body: %d", p.PDUType(), len(src))
	}
	if err := p.decodeFixed(src[:n], len(src)-n); err != nil {
		return err
	}
	p.setPayload(append([]byte(nil), src[n:]...))
	return nil
}

// AppendPDUHeader appends the encoding of p minus its trailing payload
// bytes and returns the extended slice. The PLen field still covers the
// payload: the wire stream is only valid once the caller transmits
// PayloadRef(p)'s bytes immediately after the appended prefix. PDU types
// without a detachable payload are appended whole (equivalent to
// AppendPDU), and PayloadRef returns nil for them, so
//
//	dst = AppendPDUHeader(dst, p); send(dst); send(PayloadRef(p))
//
// produces bytes identical to AppendPDU for every PDU type.
func AppendPDUHeader(dst []byte, p PDU) []byte {
	sp, ok := p.(splitPDU)
	if !ok {
		return AppendPDU(dst, p)
	}
	size := p.WireSize()
	prefix := size - len(sp.payloadRef())
	off := len(dst)
	dst = append(dst, make([]byte, prefix)...)
	buf := dst[off:]
	buf[0] = uint8(p.PDUType())
	buf[1] = p.headerFlags()
	buf[2] = chSize
	buf[3] = chSize
	binary.LittleEndian.PutUint32(buf[4:], uint32(size))
	sp.encodeFixed(buf[chSize:])
	return dst
}

// PayloadRef returns the payload slice AppendPDUHeader leaves for the
// caller to transmit (nil when p has no detachable payload). The returned
// slice aliases the PDU's buffer: the caller owns its lifetime until the
// bytes are on the wire.
func PayloadRef(p PDU) []byte {
	if sp, ok := p.(splitPDU); ok {
		return sp.payloadRef()
	}
	return nil
}

// newPDU returns an empty PDU of the given wire type.
func newPDU(typ Type) (PDU, error) {
	switch typ {
	case TypeICReq:
		return &ICReq{}, nil
	case TypeICResp:
		return &ICResp{}, nil
	case TypeCapsuleCmd:
		return &CapsuleCmd{}, nil
	case TypeCapsuleResp:
		return &CapsuleResp{}, nil
	case TypeC2HData:
		return &C2HData{}, nil
	case TypeH2CTermReq, TypeC2HTermReq:
		return &TermReq{Dir: typ}, nil
	case TypeTelemetryUpdate:
		return &TelemetryUpdate{}, nil
	case TypeTelemetryAck:
		return &TelemetryAck{}, nil
	default:
		return nil, fmt.Errorf("proto: unknown PDU type 0x%02x", uint8(typ))
	}
}

// Unmarshal decodes one full PDU from buf.
func Unmarshal(buf []byte) (PDU, error) {
	if len(buf) < chSize {
		return nil, fmt.Errorf("proto: short PDU: %d bytes", len(buf))
	}
	flags := buf[1]
	plen := binary.LittleEndian.Uint32(buf[4:])
	if int(plen) != len(buf) {
		return nil, fmt.Errorf("proto: PLen %d != buffer %d", plen, len(buf))
	}
	p, err := newPDU(Type(buf[0]))
	if err != nil {
		return nil, err
	}
	if err := p.decodeBody(buf[chSize:]); err != nil {
		return nil, err
	}
	p.setHeaderFlags(flags)
	return p, nil
}

// WritePDU encodes p and writes it to w.
func WritePDU(w io.Writer, p PDU) error {
	_, err := w.Write(Marshal(p))
	return err
}

// ReadPDU reads exactly one PDU from r.
func ReadPDU(r io.Reader) (PDU, error) {
	var ch [chSize]byte
	if _, err := io.ReadFull(r, ch[:]); err != nil {
		return nil, err
	}
	plen := binary.LittleEndian.Uint32(ch[4:])
	if plen < chSize || plen > MaxPDUSize {
		return nil, fmt.Errorf("proto: bad PLen %d", plen)
	}
	buf := make([]byte, plen)
	copy(buf, ch[:])
	if _, err := io.ReadFull(r, buf[chSize:]); err != nil {
		return nil, err
	}
	return Unmarshal(buf)
}
