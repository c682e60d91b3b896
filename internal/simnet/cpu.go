package simnet

import "fmt"

// CPUConfig models a node's poller core: the userspace NVMe-oF runtime is a
// run-to-completion poll loop (SPDK reactor), so PDU processing serializes
// on one core. Costs are per-event nanoseconds.
type CPUConfig struct {
	// RxPDU is charged for receiving and parsing one PDU (any type).
	RxPDU Time
	// TxPDU is charged for staging one PDU for transmission.
	TxPDU Time
	// SmallTxExtra is the additional cost of flushing a standalone small
	// PDU (a completion notification): socket flush, segmentation of a
	// tiny segment, ACK handling. Completions are generated one at a time
	// as the device finishes requests, so unlike deep-queue submissions
	// they cannot batch into larger sends; this is the dominant
	// per-request cost the paper's coalescing amortizes (§V-A3:
	// completion notifications "consume CPU processing at both the
	// NVMe-oF target and initiator").
	SmallTxExtra Time
	// RxSmallExtra is the receive-side analogue of SmallTxExtra: the cost
	// of taking delivery of an isolated small PDU (a completion
	// notification) that arrives on its own tiny segment and cannot ride
	// a coalesced receive the way bulk data segments do. The paper:
	// completion notifications "consume CPU processing at both the
	// NVMe-oF target and initiator" (§V-A3).
	RxSmallExtra Time
	// PerByte is the per-byte staging/copy cost (applied to payload bytes).
	PerByte float64
	// SubmitOp is charged on the target for handing one command to the
	// SSD (or on the host for building one command).
	SubmitOp Time
}

// Validate checks the configuration.
func (c CPUConfig) Validate() error {
	if c.RxPDU < 0 || c.TxPDU < 0 || c.SmallTxExtra < 0 || c.RxSmallExtra < 0 || c.PerByte < 0 || c.SubmitOp < 0 {
		return fmt.Errorf("simnet: negative CPU cost")
	}
	return nil
}

// CPU is a serialized compute resource on the engine.
type CPU struct {
	eng       *Engine
	done      *Timeline
	cfg       CPUConfig
	name      string
	busyUntil Time
}

// NewCPU creates a poller CPU.
func NewCPU(eng *Engine, name string, cfg CPUConfig) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &CPU{eng: eng, done: NewTimeline(eng), cfg: cfg, name: name}
}

// Exec occupies the CPU for cost nanoseconds (FIFO after already-queued
// work) and then runs fn. It returns the completion time; a nil fn only
// reserves the time, for a caller that hands the work's result on itself
// (see Link.SendAt).
func (c *CPU) Exec(cost Time, fn func()) Time {
	if cost < 0 {
		cost = 0
	}
	now := c.eng.Now()
	start := c.busyUntil
	if start < now {
		start = now
	}
	done := start + cost
	c.busyUntil = done
	if fn != nil {
		c.done.at(done, now, fn)
	}
	return done
}

// RxCost returns the cost of receiving a PDU with payloadBytes of data.
// standalone marks an isolated small PDU (a completion notification),
// which pays the RxSmallExtra surcharge.
func (c *CPU) RxCost(payloadBytes int, standalone bool) Time {
	cost := c.cfg.RxPDU + Time(c.cfg.PerByte*float64(payloadBytes))
	if standalone {
		cost += c.cfg.RxSmallExtra
	}
	return cost
}

// TxCost returns the cost of sending a PDU with payloadBytes of data.
// standalone marks a send that cannot batch with neighbours (a completion
// notification emitted by a device-completion event); it pays the
// SmallTxExtra surcharge. Submission-path sends from a deep queue batch
// into large segments and pass standalone=false.
func (c *CPU) TxCost(payloadBytes int, standalone bool) Time {
	cost := c.cfg.TxPDU + Time(c.cfg.PerByte*float64(payloadBytes))
	if standalone {
		cost += c.cfg.SmallTxExtra
	}
	return cost
}

// SubmitCost returns the per-command submission cost.
func (c *CPU) SubmitCost() Time { return c.cfg.SubmitOp }
