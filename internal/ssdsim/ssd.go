// Package ssdsim models an NVMe SSD as a discrete-event service station:
// k independent flash channels pull commands from a two-level (high/normal)
// admission queue, service times are drawn per-opcode from jittered
// distributions (reads complete faster than writes, §V-C of the paper), and
// completions therefore finish out of submission order — exactly the
// behaviour the NVMe-oPF initiator's out-of-order completion handling
// (§IV-C) must absorb. Data integrity is preserved through an in-memory
// backing store so end-to-end read-after-write tests run against the model.
package ssdsim

import (
	"fmt"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/simnet"
)

// Config describes the device model.
type Config struct {
	// Namespace geometry.
	Namespace nvme.Namespace
	// Channels is the number of independent flash channels (parallel
	// servers).
	Channels int
	// ReadBase/ReadJitter: per-4K-read service time, uniform jitter.
	ReadBase, ReadJitter simnet.Time
	// WriteBase/WriteJitter: per-4K-write service time.
	WriteBase, WriteJitter simnet.Time
	// FlushLatency: fixed flush service time.
	FlushLatency simnet.Time
	// PerBlockExtra: added per additional logical block beyond the first
	// (large I/O costs more).
	PerBlockExtra simnet.Time
	// Seed for the service-time jitter stream.
	Seed uint64
	// Backed enables the in-memory data store. Experiments that only
	// measure timing can disable it to save memory.
	Backed bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Namespace.Validate(); err != nil {
		return err
	}
	if c.Channels <= 0 {
		return fmt.Errorf("ssdsim: %d channels", c.Channels)
	}
	if c.ReadBase <= 0 || c.WriteBase <= 0 {
		return fmt.Errorf("ssdsim: nonpositive service time")
	}
	if c.ReadJitter < 0 || c.WriteJitter < 0 || c.FlushLatency < 0 || c.PerBlockExtra < 0 {
		return fmt.Errorf("ssdsim: negative jitter/latency")
	}
	return nil
}

// Request is one command in flight to the device. Data is the write
// payload (nil otherwise). Done is invoked on the event loop when the
// device completes the command; for reads, data carries the block contents
// when the store is enabled.
type Request struct {
	Cmd  nvme.Command
	Data []byte
	Done func(cpl nvme.Completion, data []byte)
}

// SSD is the simulated device. All methods must be called from engine
// events (single-threaded simulation discipline).
type SSD struct {
	eng   *simnet.Engine
	cfg   Config
	rng   *simnet.Rand
	store *bdev.Memory

	// channelFree holds the time each channel finishes its current
	// command, as a binary min-heap. A channel is free once its time has
	// come, even before its completion event runs, so the root says
	// whether any channel is. Which free channel serves a command is not
	// observable, so dispatch always takes the root.
	channelFree []simnet.Time
	// done schedules the in-service commands' completions: only the
	// earliest is in the engine's heap, the rest wait here in order.
	done *simnet.Timeline

	// Two-level admission: high-priority requests (the oPF LS bypass)
	// always dispatch before normal ones, no matter how deep the normal
	// backlog is. Baseline SPDK mode never uses the high queue, so its
	// LS requests wait behind the full FIFO (§V-C).
	high   simnet.Ring[*op]
	normal simnet.Ring[*op]

	// freeOps recycles op records. It belongs to the device, not the
	// package: simulations run in parallel.
	freeOps *op

	stats Stats
}

// op is one request's record inside the device, from submission to
// completion. The engine callbacks a request needs — admission, when the
// submission was deferred, then completion — are both step, a method value
// bound once when the record is made, so a command costs its events in the
// engine's heap and no closure. Records recycle through the device's free
// list; one returns there just before Done runs.
type op struct {
	s       *SSD
	req     Request
	high    bool
	service bool // a channel is serving it: the next step completes it
	step    func()
	next    *op // free list
}

func (s *SSD) newOp(req Request, high bool) *op {
	if req.Done == nil {
		panic("ssdsim: Submit without Done callback")
	}
	o := s.freeOps
	if o == nil {
		o = &op{s: s}
		o.step = o.advance
	} else {
		s.freeOps = o.next
	}
	o.req, o.high, o.service = req, high, false
	return o
}

func (o *op) advance() {
	if o.service {
		o.s.complete(o)
	} else {
		o.s.admit(o)
	}
}

// zeroBuf backs read completions of unbacked (timing-only) devices: the
// fabric and CPU models charge per byte, so reads must carry
// correctly-sized payloads even when no data store exists. Readers treat
// device data as immutable, so one shared buffer serves every request of
// every simulation in the process. The simulated host keeps a whole
// payload as the read's Result.Data, which is read-only for that reason
// (TestSharedZeroViewStaysZero).
var zeroBuf = make([]byte, 1<<20)

// Stats accumulates device-level counters.
type Stats struct {
	Submitted int64
	Completed int64
	Reads     int64
	Writes    int64
	Flushes   int64
	Errors    int64
	BusyTime  simnet.Time
	// MaxQueue tracks the deepest normal-queue backlog observed; the
	// tail-latency analysis in §V-C is about exactly this backlog.
	MaxQueue int
}

// New creates a simulated SSD on the engine.
func New(eng *simnet.Engine, cfg Config) (*SSD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SSD{
		eng:         eng,
		cfg:         cfg,
		rng:         simnet.NewRand(cfg.Seed),
		channelFree: make([]simnet.Time, cfg.Channels),
		done:        simnet.NewTimeline(eng),
	}
	if cfg.Backed {
		store, err := bdev.NewMemory(cfg.Namespace.BlockSize, cfg.Namespace.Capacity)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	return s, nil
}

// Namespace returns the device's namespace description.
func (s *SSD) Namespace() nvme.Namespace { return s.cfg.Namespace }

// Stats returns a copy of the device counters.
func (s *SSD) Stats() Stats { return s.stats }

// QueueDepth returns the number of requests waiting for a channel
// (excluding in-service ones).
func (s *SSD) QueueDepth() int { return s.high.Len() + s.normal.Len() }

// Submit admits one request. When high is true the request is placed in
// the priority class that dispatches ahead of any queued normal request
// (the NVMe-oPF latency-sensitive bypass). Completion is delivered via
// req.Done on the event loop.
func (s *SSD) Submit(req Request, high bool) {
	s.admit(s.newOp(req, high))
}

// Deferred returns a callback that submits req when it runs, for callers
// that admit a request from a later event (the target poller charging its
// submission cost first). The callback is good for one call.
func (s *SSD) Deferred(req Request, high bool) func() {
	return s.newOp(req, high).step
}

func (s *SSD) admit(o *op) {
	s.stats.Submitted++
	if o.high {
		s.high.Push(o)
	} else {
		s.normal.Push(o)
	}
	if q := s.QueueDepth(); q > s.stats.MaxQueue {
		s.stats.MaxQueue = q
	}
	s.dispatch()
}

// dispatch assigns queued requests to free channels. When every channel
// is busy, completion events re-dispatch.
func (s *SSD) dispatch() {
	now := s.eng.Now()
	for s.channelFree[0] <= now {
		var o *op
		switch {
		case s.high.Len() > 0:
			o = s.high.Pop()
		case s.normal.Len() > 0:
			o = s.normal.Pop()
		default:
			return
		}
		svc := s.serviceTime(o.req.Cmd)
		s.reserve(now + svc)
		s.stats.BusyTime += svc
		o.service = true
		s.done.At(now+svc, o.step)
	}
}

// reserve keeps the earliest-free channel busy until t: the root of the
// channelFree heap takes t and sinks to its place.
func (s *SSD) reserve(t simnet.Time) {
	h := s.channelFree
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if t <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = t
}

// serviceTime draws the service duration for a command.
func (s *SSD) serviceTime(cmd nvme.Command) simnet.Time {
	var t simnet.Time
	switch cmd.Opcode {
	case nvme.OpRead:
		t = s.rng.Jitter(s.cfg.ReadBase, s.cfg.ReadJitter)
	case nvme.OpWrite:
		t = s.rng.Jitter(s.cfg.WriteBase, s.cfg.WriteJitter)
	case nvme.OpFlush:
		t = s.cfg.FlushLatency
		if t <= 0 {
			t = 1
		}
		return t
	default:
		return 1
	}
	if extra := cmd.Blocks() - 1; extra > 0 {
		t += simnet.Time(extra) * s.cfg.PerBlockExtra
	}
	return t
}

// complete finishes one command: touch the store, build the CQE, invoke
// Done, and pull more work onto the freed channel.
func (s *SSD) complete(o *op) {
	req := o.req
	o.req = Request{}
	o.next, s.freeOps = s.freeOps, o
	cpl := nvme.Completion{CID: req.Cmd.CID, Status: nvme.StatusSuccess}
	var data []byte
	ns := s.cfg.Namespace
	switch req.Cmd.Opcode {
	case nvme.OpRead:
		s.stats.Reads++
		if st := ns.CheckRange(req.Cmd.SLBA, req.Cmd.Blocks()); !st.OK() {
			cpl.Status = st
		} else if s.store != nil {
			data = make([]byte, ns.Bytes(req.Cmd.Blocks()))
			if err := s.store.ReadBlocks(data, req.Cmd.SLBA); err != nil {
				cpl.Status = nvme.StatusInternalError
				data = nil
			}
		} else {
			// Timing-only device: the payload bytes still travel the
			// fabric, so return a correctly-sized zero view.
			n := ns.Bytes(req.Cmd.Blocks())
			if n <= len(zeroBuf) {
				data = zeroBuf[:n]
			} else {
				data = make([]byte, n)
			}
		}
	case nvme.OpWrite:
		s.stats.Writes++
		if st := ns.CheckRange(req.Cmd.SLBA, req.Cmd.Blocks()); !st.OK() {
			cpl.Status = st
		} else if s.store != nil {
			want := ns.Bytes(req.Cmd.Blocks())
			if len(req.Data) != want {
				cpl.Status = nvme.StatusDataXferError
			} else if err := s.store.WriteBlocks(req.Data, req.Cmd.SLBA); err != nil {
				cpl.Status = nvme.StatusInternalError
			}
		}
	case nvme.OpFlush:
		s.stats.Flushes++
	default:
		cpl.Status = nvme.StatusInvalidOpcode
	}
	if !cpl.Status.OK() {
		s.stats.Errors++
	}
	s.stats.Completed++
	req.Done(cpl, data)
	s.dispatch()
}

// DefaultConfig returns the device model used throughout the experiments:
// a 16-channel SSD with 4K read service 52µs±12µs and write service
// 120µs±30µs, giving ~300K read IOPS and ~130K write IOPS at saturation —
// in line with the datacenter-class NVMe devices on the paper's testbeds.
func DefaultConfig(seed uint64, backed bool) Config {
	return Config{
		Namespace:     nvme.Namespace{ID: 1, BlockSize: 4096, Capacity: 1 << 28}, // 1 TiB
		Channels:      16,
		ReadBase:      52_000,
		ReadJitter:    12_000,
		WriteBase:     120_000,
		WriteJitter:   30_000,
		FlushLatency:  200_000,
		PerBlockExtra: 2_000,
		Seed:          seed,
		Backed:        backed,
	}
}
