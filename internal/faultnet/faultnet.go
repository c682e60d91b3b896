// Package faultnet injects transport faults — added latency, bandwidth
// caps, partial writes, connection resets, silent drops, and byte
// corruption — under any code that talks through a net.Conn, and exposes
// the same fault vocabulary to the discrete-event simulator's links.
//
// The package exists because the NVMe-oPF datapath's failure handling
// (request deadlines, session teardown, retry classification) is only
// trustworthy if it is exercised: NeVerMore-style protocol failures
// surface exclusively under adversarial transport conditions. Tests wrap
// a dialer or listener with an Injector and drive the real initiator and
// target state machines through the impaired pipe; the chaos harness in
// internal/tcptrans does exactly that under the race detector.
//
// Faults are described declaratively (Faults) and applied per direction:
// DirSend governs Writes, DirRecv governs Reads. All randomness is drawn
// from a seeded generator owned by the Injector, so a failing run can be
// reproduced from its seed.
package faultnet

import (
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Directions of one wrapped connection, from the wrapping endpoint's
// point of view.
const (
	// DirSend impairs Write calls (bytes leaving this endpoint).
	DirSend = 0
	// DirRecv impairs Read calls (bytes arriving at this endpoint).
	DirRecv = 1
)

// ErrInjectedReset is returned by operations on a connection the injector
// has forcibly reset (Conn.Reset, Injector.ResetAll, or a
// Faults.ResetAfterBytes trigger). It deliberately mimics a peer RST: the
// datapath above must treat it exactly like a real connection failure.
var ErrInjectedReset = errors.New("faultnet: connection reset by injector")

// Faults describes the impairments applied to one direction of a
// connection. The zero value is a transparent pipe.
type Faults struct {
	// Latency is added to every operation before bytes move.
	Latency time.Duration
	// Jitter adds a uniform random [0, Jitter) on top of Latency.
	Jitter time.Duration
	// BandwidthBPS caps the direction's throughput in bytes per second by
	// pacing operations against a serialization clock (0 = unlimited).
	BandwidthBPS int64
	// MaxChunk caps how many bytes a single Read or Write moves,
	// forcing the short reads and partial writes real sockets produce
	// under memory pressure (0 = unlimited).
	MaxChunk int
	// DropProb silently discards an operation's payload with this
	// probability: writes report success without transmitting, reads
	// discard received bytes and keep reading. Dropped PDUs are how
	// half-written frames and lost completions are simulated.
	DropProb float64
	// CorruptProb flips one random byte of the payload with this
	// probability, exercising codec validation paths.
	CorruptProb float64
	// ResetAfterBytes forcibly resets the connection once this many
	// cumulative bytes have moved in this direction (0 = never). The
	// reset surfaces as ErrInjectedReset on both subsequent Reads and
	// Writes.
	ResetAfterBytes int64
}

// active reports whether any impairment is configured.
func (f Faults) active() bool { return f != Faults{} }

// Injector owns the fault policy for a set of connections: per-direction
// faults, a seeded random source, and the registry of live connections so
// tests can reset them all at once.
//
// All methods are safe for concurrent use.
type Injector struct {
	mu    sync.Mutex
	dirs  [2]Faults
	rng   *rand.Rand
	conns map[*Conn]struct{}
}

// NewInjector creates an injector whose random decisions (drops,
// corruption, jitter) derive from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		conns: make(map[*Conn]struct{}),
	}
}

// Set installs the faults for one direction.
func (i *Injector) Set(dir int, f Faults) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.dirs[dir] = f
}

// faults returns the impairments in effect for dir.
func (i *Injector) faults(dir int) Faults {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.dirs[dir]
}

// roll returns true with probability p.
func (i *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Float64() < p
}

// jitter draws a uniform duration in [0, d).
func (i *Injector) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return time.Duration(i.rng.Int63n(int64(d)))
}

// corruptByte picks (index, xor-mask) for a payload of n bytes.
func (i *Injector) corruptByte(n int) (int, byte) {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.rng.Intn(n), byte(1 + i.rng.Intn(255))
}

// register tracks a live connection.
func (i *Injector) register(c *Conn) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.conns[c] = struct{}{}
}

// unregister forgets a connection.
func (i *Injector) unregister(c *Conn) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.conns, c)
}

// Conns returns the live connections wrapped under this injector.
func (i *Injector) Conns() []*Conn {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]*Conn, 0, len(i.conns))
	for c := range i.conns {
		out = append(out, c)
	}
	return out
}

// ResetAll forcibly resets every live connection — the "pull the cable"
// event of a chaos run.
func (i *Injector) ResetAll() {
	for _, c := range i.Conns() {
		c.Reset()
	}
}
