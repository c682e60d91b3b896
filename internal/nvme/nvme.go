// Package nvme implements the subset of the NVMe base specification that an
// NVMe-over-Fabrics runtime needs: the I/O command set (read/write/flush),
// 64-byte submission queue entries, 16-byte completion queue entries, status
// codes, and circular submission/completion queues with head/tail doorbells.
//
// The types mirror the on-device layout closely enough that the fabric layer
// (internal/proto) can embed commands in capsules byte-for-byte, and the SSD
// model (internal/ssdsim) can consume them unchanged.
package nvme

import (
	"encoding/binary"
	"fmt"
)

// Opcode is an NVMe I/O command opcode.
type Opcode uint8

// I/O command set opcodes (NVMe base spec, figure "Opcodes for I/O
// Commands").
const (
	OpFlush Opcode = 0x00
	OpWrite Opcode = 0x01
	OpRead  Opcode = 0x02
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	switch o {
	case OpFlush:
		return "Flush"
	case OpWrite:
		return "Write"
	case OpRead:
		return "Read"
	default:
		return fmt.Sprintf("Opcode(0x%02x)", uint8(o))
	}
}

// Status is an NVMe completion status (status code type << 8 | status code).
// Zero means success.
type Status uint16

// Status codes used by this runtime (generic command status type 0).
const (
	StatusSuccess        Status = 0x0000
	StatusInvalidOpcode  Status = 0x0001
	StatusInvalidField   Status = 0x0002
	StatusIDConflict     Status = 0x0003
	StatusDataXferError  Status = 0x0004
	StatusAborted        Status = 0x0007
	StatusInvalidNSID    Status = 0x000B
	StatusLBAOutOfRange  Status = 0x0080
	StatusCapacityExceed Status = 0x0081
	StatusQueueFull      Status = 0x0101 // command-specific SCT
	StatusBusy           Status = 0x0102 // command-specific SCT: admission cap hit, retry later
	StatusInternalError  Status = 0x0006
)

// OK reports whether the status indicates success.
func (s Status) OK() bool { return s == StatusSuccess }

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "Success"
	case StatusInvalidOpcode:
		return "InvalidOpcode"
	case StatusInvalidField:
		return "InvalidField"
	case StatusIDConflict:
		return "CommandIDConflict"
	case StatusDataXferError:
		return "DataTransferError"
	case StatusAborted:
		return "Aborted"
	case StatusInvalidNSID:
		return "InvalidNamespace"
	case StatusLBAOutOfRange:
		return "LBAOutOfRange"
	case StatusCapacityExceed:
		return "CapacityExceeded"
	case StatusQueueFull:
		return "QueueFull"
	case StatusBusy:
		return "Busy"
	case StatusInternalError:
		return "InternalError"
	default:
		return fmt.Sprintf("Status(0x%04x)", uint16(s))
	}
}

// CID is a 16-bit command identifier, unique among a queue pair's
// outstanding commands.
type CID = uint16

// Command is a 64-byte NVMe submission queue entry, restricted to the
// fields the I/O command set uses. SLBA/NLB live in CDW10-12 as in the
// spec; the data itself travels out-of-band (in-capsule for fabrics).
type Command struct {
	Opcode Opcode
	Flags  uint8 // FUSE/PSDT bits; unused here but carried on the wire
	CID    CID
	NSID   uint32
	SLBA   uint64 // starting logical block address
	NLB    uint16 // number of logical blocks, 0's-based per spec
}

// CommandSize is the wire size of an encoded submission entry.
const CommandSize = 64

// Marshal encodes the command into a 64-byte SQE layout:
// byte 0 opcode, byte 1 flags, bytes 2-3 CID, 4-7 NSID,
// CDW10-11 (40-47) SLBA, CDW12 (48-49) NLB.
func (c *Command) Marshal(dst []byte) {
	if len(dst) < CommandSize {
		panic("nvme: Marshal buffer too small")
	}
	for i := 0; i < CommandSize; i++ {
		dst[i] = 0
	}
	dst[0] = uint8(c.Opcode)
	dst[1] = c.Flags
	binary.LittleEndian.PutUint16(dst[2:], c.CID)
	binary.LittleEndian.PutUint32(dst[4:], c.NSID)
	binary.LittleEndian.PutUint64(dst[40:], c.SLBA)
	binary.LittleEndian.PutUint16(dst[48:], c.NLB)
}

// Unmarshal decodes a 64-byte SQE.
func (c *Command) Unmarshal(src []byte) error {
	if len(src) < CommandSize {
		return fmt.Errorf("nvme: short command: %d bytes", len(src))
	}
	c.Opcode = Opcode(src[0])
	c.Flags = src[1]
	c.CID = binary.LittleEndian.Uint16(src[2:])
	c.NSID = binary.LittleEndian.Uint32(src[4:])
	c.SLBA = binary.LittleEndian.Uint64(src[40:])
	c.NLB = binary.LittleEndian.Uint16(src[48:])
	return nil
}

// Blocks returns the number of logical blocks the command covers (NLB is
// zero-based on the wire).
func (c *Command) Blocks() uint32 { return uint32(c.NLB) + 1 }

// Completion is a 16-byte NVMe completion queue entry.
type Completion struct {
	Result uint32 // command-specific result (DW0)
	SQHead uint16
	SQID   uint16
	CID    CID
	Status Status // includes phase bit stripped
}

// CompletionSize is the wire size of an encoded CQE.
const CompletionSize = 16

// Marshal encodes the completion.
func (c *Completion) Marshal(dst []byte) {
	if len(dst) < CompletionSize {
		panic("nvme: Marshal buffer too small")
	}
	binary.LittleEndian.PutUint32(dst[0:], c.Result)
	binary.LittleEndian.PutUint32(dst[4:], 0)
	binary.LittleEndian.PutUint16(dst[8:], c.SQHead)
	binary.LittleEndian.PutUint16(dst[10:], c.SQID)
	binary.LittleEndian.PutUint16(dst[12:], c.CID)
	binary.LittleEndian.PutUint16(dst[14:], uint16(c.Status)<<1) // bit 0 is the phase tag
}

// Unmarshal decodes a 16-byte CQE.
func (c *Completion) Unmarshal(src []byte) error {
	if len(src) < CompletionSize {
		return fmt.Errorf("nvme: short completion: %d bytes", len(src))
	}
	c.Result = binary.LittleEndian.Uint32(src[0:])
	c.SQHead = binary.LittleEndian.Uint16(src[8:])
	c.SQID = binary.LittleEndian.Uint16(src[10:])
	c.CID = binary.LittleEndian.Uint16(src[12:])
	c.Status = Status(binary.LittleEndian.Uint16(src[14:]) >> 1)
	return nil
}

// Namespace describes an NVMe namespace: a linear array of logical blocks.
type Namespace struct {
	ID        uint32
	BlockSize uint32 // bytes per logical block
	Capacity  uint64 // total logical blocks
}

// Validate checks a namespace description.
func (ns Namespace) Validate() error {
	if ns.ID == 0 {
		return fmt.Errorf("nvme: namespace ID 0 is reserved")
	}
	if ns.BlockSize == 0 || ns.BlockSize&(ns.BlockSize-1) != 0 {
		return fmt.Errorf("nvme: block size %d is not a power of two", ns.BlockSize)
	}
	if ns.Capacity == 0 {
		return fmt.Errorf("nvme: zero-capacity namespace")
	}
	return nil
}

// CheckRange reports a status for an access of nlb blocks at slba.
func (ns Namespace) CheckRange(slba uint64, nlb uint32) Status {
	if nlb == 0 {
		return StatusInvalidField
	}
	if slba >= ns.Capacity || uint64(nlb) > ns.Capacity-slba {
		return StatusLBAOutOfRange
	}
	return StatusSuccess
}

// Bytes returns the byte length of an access of nlb blocks.
func (ns Namespace) Bytes(nlb uint32) int { return int(nlb) * int(ns.BlockSize) }
