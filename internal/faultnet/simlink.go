package faultnet

import (
	"math/rand"
	"sync"

	"nvmeopf/internal/simnet"
)

// LinkProfile adapts the faultnet fault vocabulary to the discrete-event
// simulator: attach one to a simnet.Link with SetFaults and the same
// Faults that impair a real TCP connection degrade a simulated one, on
// the virtual clock. Latency, Jitter, BandwidthBPS (as additional
// serialization delay on top of the link's own line rate), and DropProb
// are honored; MaxChunk, CorruptProb, and ResetAfterBytes have no
// simulator equivalent (the sim moves whole messages, not byte streams)
// and are ignored.
//
// LinkProfile is deterministic for a given seed, preserving the
// simulator's reproducibility guarantee.
type LinkProfile struct {
	mu   sync.Mutex
	dirs [2]Faults
	rng  *rand.Rand
}

// NewLinkProfile creates a profile whose random decisions derive from
// seed.
func NewLinkProfile(seed int64) *LinkProfile {
	return &LinkProfile{rng: rand.New(rand.NewSource(seed))}
}

// Set installs the faults for one direction (simnet.DirAtoB or
// simnet.DirBtoA).
func (p *LinkProfile) Set(dir int, f Faults) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dirs[dir] = f
}

// Apply implements simnet.FaultProfile.
func (p *LinkProfile) Apply(dir int, size int) (simnet.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.dirs[dir]
	if !f.active() {
		return 0, false
	}
	if f.DropProb > 0 && p.rng.Float64() < f.DropProb {
		return 0, true
	}
	extra := simnet.Time(f.Latency)
	if f.Jitter > 0 {
		extra += simnet.Time(p.rng.Int63n(int64(f.Jitter)))
	}
	if f.BandwidthBPS > 0 {
		// Degraded-path serialization: the time the message would need at
		// the impaired rate, modeled as added one-way delay.
		extra += simnet.Time(float64(size) / float64(f.BandwidthBPS) * 1e9)
	}
	return extra, false
}
