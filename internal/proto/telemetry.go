package proto

import (
	"encoding/binary"
	"fmt"
)

// Telemetry PDU types. These extend the dialect past the retired
// discovery codes (0x08–0x0A, refused on decode): an in-band
// host→target feedback channel that closes the egress-queue blind spot — the target's own service-latency telemetry
// cannot see queueing that happens after its completions leave the NIC,
// so each host periodically reports what it actually observed.
const (
	// TypeTelemetryUpdate carries one host's per-class end-to-end latency
	// histogram deltas, outstanding queue depth, and busy/retry counters
	// since its previous update (host → target).
	TypeTelemetryUpdate Type = 0x0B
	// TypeTelemetryAck acknowledges a TelemetryUpdate, echoing the host's
	// clock sample next to the target's so the host can re-estimate the
	// clock offset NTP-style on every keep-alive round trip
	// (target → host).
	TypeTelemetryAck Type = 0x0C
)

// TelemetryBucket is one sparse histogram bucket delta: the count added to
// bucket Index since the previous update. Indices address the stats
// package's histogram grid (64 sub-buckets per octave, 2816 buckets), so the target merges host deltas into its own
// per-tenant histograms exactly (bucket-wise addition, no re-sampling).
type TelemetryBucket struct {
	Index uint16
	Count uint32
}

// TelemetryClassDelta is one priority class's end-to-end latency histogram
// delta since the host's previous update.
type TelemetryClassDelta struct {
	Class Priority
	// Sum is the sum of end-to-end latencies (ns) recorded in this delta.
	Sum uint64
	// Max is the largest end-to-end latency (ns) seen since the previous
	// update (not a running max: each delta reports its own window).
	Max uint64
	// Buckets holds the sparse bucket-count deltas, ascending by Index.
	Buckets []TelemetryBucket
}

// TelemetryUpdate is the host→target end-to-end feedback PDU, emitted on
// the transport's keep-alive cadence. The connection's tenant identity is
// implicit (the target learned it at ICReq), so the body carries only the
// measurements.
type TelemetryUpdate struct {
	// HostClock is the host's clock (ns) sampled while building the
	// update; the target echoes it in the TelemetryAck.
	HostClock int64
	// SubBits tags the histogram geometry (sub-bucket resolution bits) the
	// bucket indices assume: stats.SubBucketBits, 6. The target refuses an
	// update whose tag differs from its own rather than merge garbage, so
	// a host built when the telemetry grid had 5 sub-bucket bits is
	// refused, not merged.
	SubBits uint8
	// QueueDepth is the host's outstanding command count at build time.
	QueueDepth uint32
	// Busy counts StatusBusy completions since the previous update.
	Busy uint32
	// Retries counts commands the host resubmitted since the previous
	// update. This repository's host resubmits nothing and sends 0; the
	// field keeps the PDU's layout, and the target still merges what a
	// peer reports.
	Retries uint32
	// Classes holds one delta per priority class with new samples.
	Classes []TelemetryClassDelta
}

// Fixed body sizes: update header, per-class header, per-bucket pair.
const (
	tuHdrSize    = 8 + 1 + 1 + 4 + 4 + 4 // HostClock SubBits NumClasses QD Busy Retries
	tuClassSize  = 1 + 2 + 8 + 8         // Class NumBuckets Sum Max
	tuBucketSize = 2 + 4                 // Index Count
)

// PDUType implements PDU.
func (*TelemetryUpdate) PDUType() Type { return TypeTelemetryUpdate }

// WireSize implements PDU.
func (p *TelemetryUpdate) WireSize() int {
	size := chSize + tuHdrSize
	for i := range p.Classes {
		size += tuClassSize + tuBucketSize*len(p.Classes[i].Buckets)
	}
	return size
}

func (p *TelemetryUpdate) encodeBody(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(p.HostClock))
	dst[8] = p.SubBits
	dst[9] = uint8(len(p.Classes))
	binary.LittleEndian.PutUint32(dst[10:], p.QueueDepth)
	binary.LittleEndian.PutUint32(dst[14:], p.Busy)
	binary.LittleEndian.PutUint32(dst[18:], p.Retries)
	off := tuHdrSize
	for i := range p.Classes {
		c := &p.Classes[i]
		dst[off] = encodePriority(c.Class)
		binary.LittleEndian.PutUint16(dst[off+1:], uint16(len(c.Buckets)))
		binary.LittleEndian.PutUint64(dst[off+3:], c.Sum)
		binary.LittleEndian.PutUint64(dst[off+11:], c.Max)
		off += tuClassSize
		for _, b := range c.Buckets {
			binary.LittleEndian.PutUint16(dst[off:], b.Index)
			binary.LittleEndian.PutUint32(dst[off+2:], b.Count)
			off += tuBucketSize
		}
	}
}

func (p *TelemetryUpdate) decodeBody(src []byte) error {
	if len(src) < tuHdrSize {
		return fmt.Errorf("proto: short TelemetryUpdate body: %d", len(src))
	}
	p.HostClock = int64(binary.LittleEndian.Uint64(src[0:]))
	p.SubBits = src[8]
	nClasses := int(src[9])
	p.QueueDepth = binary.LittleEndian.Uint32(src[10:])
	p.Busy = binary.LittleEndian.Uint32(src[14:])
	p.Retries = binary.LittleEndian.Uint32(src[18:])
	p.Classes = nil
	off := tuHdrSize
	for i := 0; i < nClasses; i++ {
		if len(src) < off+tuClassSize {
			return fmt.Errorf("proto: TelemetryUpdate truncated at class %d", i)
		}
		c := TelemetryClassDelta{
			Class: decodePriority(src[off]),
			Sum:   binary.LittleEndian.Uint64(src[off+3:]),
			Max:   binary.LittleEndian.Uint64(src[off+11:]),
		}
		nBuckets := int(binary.LittleEndian.Uint16(src[off+1:]))
		off += tuClassSize
		if len(src) < off+nBuckets*tuBucketSize {
			return fmt.Errorf("proto: TelemetryUpdate truncated in class %d buckets", i)
		}
		if nBuckets > 0 {
			c.Buckets = make([]TelemetryBucket, nBuckets)
			for j := range c.Buckets {
				c.Buckets[j].Index = binary.LittleEndian.Uint16(src[off:])
				c.Buckets[j].Count = binary.LittleEndian.Uint32(src[off+2:])
				off += tuBucketSize
			}
		}
		p.Classes = append(p.Classes, c)
	}
	if off != len(src) {
		return fmt.Errorf("proto: TelemetryUpdate trailing %d bytes", len(src)-off)
	}
	return nil
}

func (p *TelemetryUpdate) headerFlags() uint8     { return 0 }
func (p *TelemetryUpdate) setHeaderFlags(f uint8) {}

// TelemetryAck answers a TelemetryUpdate. The echoed host clock plus the
// target clock give the host both ends of an NTP-style sample: on receipt,
// rtt = now − EchoHostClock and offset = TargetClock − (EchoHostClock +
// rtt/2), refreshing the one-shot ICReq/ICResp estimate that drifts over
// long sessions.
type TelemetryAck struct {
	EchoHostClock int64
	TargetClock   int64
}

// TelemetryAckSize is the wire size of a TelemetryAck.
const TelemetryAckSize = chSize + 16

// PDUType implements PDU.
func (*TelemetryAck) PDUType() Type { return TypeTelemetryAck }

// WireSize implements PDU.
func (*TelemetryAck) WireSize() int { return TelemetryAckSize }

func (p *TelemetryAck) encodeBody(dst []byte) {
	binary.LittleEndian.PutUint64(dst[0:], uint64(p.EchoHostClock))
	binary.LittleEndian.PutUint64(dst[8:], uint64(p.TargetClock))
}

func (p *TelemetryAck) decodeBody(src []byte) error {
	if len(src) < TelemetryAckSize-chSize {
		return fmt.Errorf("proto: short TelemetryAck body: %d", len(src))
	}
	p.EchoHostClock = int64(binary.LittleEndian.Uint64(src[0:]))
	p.TargetClock = int64(binary.LittleEndian.Uint64(src[8:]))
	return nil
}

func (p *TelemetryAck) headerFlags() uint8     { return 0 }
func (p *TelemetryAck) setHeaderFlags(f uint8) {}
