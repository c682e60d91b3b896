package simnet

import "fmt"

// LinkConfig describes one full-duplex point-to-point Ethernet link.
type LinkConfig struct {
	// BitsPerSec is the line rate (10e9, 25e9, 100e9 in the paper).
	BitsPerSec int64
	// MTU is the maximum transmission unit; payload bytes per packet.
	MTU int
	// PacketOverhead is added to every packet on the wire: Ethernet
	// preamble+header+FCS+IFG plus IP and TCP headers (~78 bytes for the
	// paper's TCP transport).
	PacketOverhead int
	// PropagationDelay is the one-way latency added after serialization.
	PropagationDelay Time
}

// Validate checks the configuration.
func (c LinkConfig) Validate() error {
	if c.BitsPerSec <= 0 {
		return fmt.Errorf("simnet: link rate %d <= 0", c.BitsPerSec)
	}
	if c.MTU <= 0 {
		return fmt.Errorf("simnet: MTU %d <= 0", c.MTU)
	}
	if c.PacketOverhead < 0 {
		return fmt.Errorf("simnet: negative packet overhead")
	}
	if c.PropagationDelay < 0 {
		return fmt.Errorf("simnet: negative propagation delay")
	}
	return nil
}

// Link models one direction pair of a full-duplex link. Each direction
// serializes messages FIFO at the line rate; concurrent messages queue
// behind each other, which is how the model expresses congestion from
// per-request completion packets (§V-A3).
type Link struct {
	eng  *Engine
	cfg  LinkConfig
	name string

	// busyUntil per direction (0 = A->B, 1 = B->A).
	busyUntil [2]Time

	// handed per direction: the instant of the latest hand-off (see
	// SendAt), which the next one may not precede.
	handed [2]Time

	// lastAt per direction: the latest delivery scheduled so far. The
	// link models an ordered byte stream (TCP), so deliveries must stay
	// FIFO even when an attached FaultProfile assigns size-dependent
	// extra delays that would otherwise let a small message overtake a
	// large one sent before it.
	lastAt [2]Time

	// deliveries per direction: lastAt keeps them in FIFO order.
	deliveries [2]*Timeline

	// Stats per direction.
	stats [2]LinkStats

	// faults optionally degrades the link (see SetFaults).
	faults FaultProfile
}

// FaultProfile degrades a link for fault-injection experiments. Apply is
// consulted once per message: extraDelay is added to the propagation
// delay, and drop discards the message entirely (its deliver callback
// never runs — callers opting into drops must have timeout recovery, as
// the real transport does). internal/faultnet provides an implementation
// sharing the chaos harness's fault vocabulary.
type FaultProfile interface {
	Apply(dir int, size int) (extraDelay Time, drop bool)
}

// SetFaults attaches a fault profile to the link (nil detaches). A
// profile may be attached at any time. Detaching one while messages are in
// flight can make an upstream that sent per event fall behind one that now
// hands over early (see SendAt), and the late hand-off panics.
func (l *Link) SetFaults(p FaultProfile) { l.faults = p }

// Faults returns the attached fault profile, nil if none.
func (l *Link) Faults() FaultProfile { return l.faults }

// LinkStats accumulates per-direction transmission counters. A message
// is counted when it is handed to the link, which for SendAt may be ahead
// of the instant it reaches the link.
type LinkStats struct {
	Messages int64 // PDUs sent
	Packets  int64 // MTU-sized packets on the wire
	Bytes    int64 // wire bytes including per-packet overhead
	BusyTime Time  // total serialization time
	Dropped  int64 // messages discarded by an attached FaultProfile
}

// DirAtoB and DirBtoA select a link direction.
const (
	DirAtoB = 0
	DirBtoA = 1
)

// NewLink creates a link on the engine.
func NewLink(eng *Engine, name string, cfg LinkConfig) *Link {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Link{eng: eng, cfg: cfg, name: name,
		deliveries: [2]*Timeline{NewTimeline(eng), NewTimeline(eng)}}
}

// Packets returns how many wire packets a message of size bytes needs.
func (l *Link) PacketsFor(size int) int {
	if size <= 0 {
		return 1 // a header-only PDU still occupies one packet
	}
	return (size + l.cfg.MTU - 1) / l.cfg.MTU
}

// txTime returns serialization time for a message of wire bytes.
func (l *Link) txTime(wire int64) Time {
	bits := wire * 8
	// ns = bits / (bits/sec) * 1e9, computed to avoid overflow for any
	// realistic size (bits < 2^40, 1e9 multiplier fits in int64 via
	// float64 intermediate kept exact for these magnitudes).
	return Time(float64(bits) / float64(l.cfg.BitsPerSec) * 1e9)
}

// Send transmits a message of size bytes in direction dir and runs deliver
// when the last bit arrives at the far end. It returns the scheduled
// delivery time. It is SendAt at the engine's clock.
func (l *Link) Send(dir int, size int, deliver func()) Time {
	return l.SendAt(dir, size, l.eng.Now(), deliver)
}

// SendAt is Send for a message that reaches the link at instant at, at or
// after the engine's clock. A direction fed by a single FIFO resource
// knows when each message will clear that resource as soon as it is
// scheduled there, so the upstream can hand it over straight away instead
// of from an event at at: the delivery happens at the same instant either
// way. Hand-offs must come in non-decreasing at order on a direction, the
// order in which the messages reach it; an earlier one panics.
func (l *Link) SendAt(dir int, size int, at Time, deliver func()) Time {
	if dir != DirAtoB && dir != DirBtoA {
		panic(fmt.Sprintf("simnet: bad link direction %d", dir))
	}
	if at < l.eng.Now() || at < l.handed[dir] {
		panic(fmt.Sprintf("simnet: %s: hand-off at %d, before the clock (%d) or the previous hand-off (%d)",
			l.name, at, l.eng.Now(), l.handed[dir]))
	}
	l.handed[dir] = at
	var extra Time
	if l.faults != nil {
		var drop bool
		extra, drop = l.faults.Apply(dir, size)
		if drop {
			// The message still occupied the wire (it was transmitted and
			// lost), so serialization accounting proceeds; only delivery
			// is suppressed.
			l.stats[dir].Dropped++
			deliver = nil
		}
	}
	start := max(l.busyUntil[dir], at)
	packets := int64(l.PacketsFor(size))
	wire := int64(size) + packets*int64(l.cfg.PacketOverhead)
	tx := l.txTime(wire)
	done := start + tx
	l.busyUntil[dir] = done
	st := &l.stats[dir]
	st.Messages++
	st.Packets += packets
	st.Bytes += wire
	st.BusyTime += tx
	arrive := done + l.cfg.PropagationDelay + extra
	// An ordered stream never reorders: a message cannot arrive before
	// one serialized ahead of it, whatever per-message delay the fault
	// profile added.
	if arrive < l.lastAt[dir] {
		arrive = l.lastAt[dir]
	}
	l.lastAt[dir] = arrive
	if deliver != nil {
		l.deliveries[dir].at(arrive, at, deliver)
	}
	return arrive
}

// Stats returns the accumulated counters for a direction.
func (l *Link) Stats(dir int) LinkStats { return l.stats[dir] }
