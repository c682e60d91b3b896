package hdf5

import (
	"errors"
	"fmt"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// SyncDevice adapts a synchronous bdev.Device to the async Device
// interface; callbacks run inline. Used by unit tests and local tools.
type SyncDevice struct {
	D bdev.Device
}

// NewSyncDevice wraps a bdev.
func NewSyncDevice(d bdev.Device) *SyncDevice { return &SyncDevice{D: d} }

// BlockSize implements Device.
func (s *SyncDevice) BlockSize() uint32 { return s.D.BlockSize() }

// NumBlocks implements Device.
func (s *SyncDevice) NumBlocks() uint64 { return s.D.NumBlocks() }

// ReadAsync implements Device.
func (s *SyncDevice) ReadAsync(lba uint64, blocks uint32, meta bool, done func([]byte, error)) {
	buf := make([]byte, uint64(blocks)*uint64(s.D.BlockSize()))
	err := s.D.ReadBlocks(buf, lba)
	if err != nil {
		done(nil, err)
		return
	}
	done(buf, nil)
}

// WriteAsync implements Device.
func (s *SyncDevice) WriteAsync(lba uint64, data []byte, meta bool, done func(error)) {
	done(s.D.WriteBlocks(data, lba))
}

// SessionDevice exposes a window of an NVMe-oPF namespace (a partition
// starting at Base, NumBlocks long) as a Device, over one initiator
// session. Data accesses inherit the session's class (throughput-critical
// for h5bench ranks); metadata accesses are tagged latency-sensitive —
// the paper's recommended flag use ("if an application necessitates
// exchanging metadata or control information ... users can set requests
// as latency-sensitive", §III-C).
//
// The adapter performs its own flow control: operations that exceed the
// session queue depth wait in an internal FIFO and are resubmitted as
// completions free slots.
type SessionDevice struct {
	sess    *hostqp.Session
	base    uint64
	blocks  uint64
	bs      uint32
	waiting []func() error

	// deferFn schedules a function to run after the current event cascade
	// (engine.Schedule(0, fn) in simulation). It powers the quiesce
	// check: a partial throughput-critical window whose owner has gone
	// quiet must be force-drained or it waits at the target forever.
	deferFn    func(func())
	checkArmed bool
	activity   int64
}

// NewSessionDevice creates a partition view [base, base+blocks) over a
// session. blockSize must match the target namespace's block size.
// deferFn schedules a callback after the current event cascade (pass the
// simulation engine's zero-delay Schedule; nil disables the quiesce check,
// in which case the caller must size its in-flight window to a multiple of
// the session's drain window or flush manually).
func NewSessionDevice(sess *hostqp.Session, blockSize uint32, base, blocks uint64, deferFn func(func())) (*SessionDevice, error) {
	if sess == nil {
		return nil, errors.New("hdf5: nil session")
	}
	if blocks == 0 {
		return nil, errors.New("hdf5: empty partition")
	}
	return &SessionDevice{
		sess: sess, base: base, blocks: blocks, bs: blockSize,
		deferFn: deferFn,
	}, nil
}

// BlockSize implements Device.
func (d *SessionDevice) BlockSize() uint32 { return d.bs }

// NumBlocks implements Device.
func (d *SessionDevice) NumBlocks() uint64 { return d.blocks }

// check validates a partition-relative access.
func (d *SessionDevice) check(lba uint64, blocks uint32) error {
	if blocks == 0 || lba+uint64(blocks) > d.blocks {
		return fmt.Errorf("hdf5: partition access [%d,+%d) beyond %d blocks", lba, blocks, d.blocks)
	}
	return nil
}

// submit tries an op now or queues it behind earlier waiters.
func (d *SessionDevice) submit(try func() error) {
	d.activity++
	defer d.armQuiesceCheck()
	if len(d.waiting) == 0 {
		err := try()
		if err == nil {
			return
		}
		if !errors.Is(err, hostqp.ErrQueueFull) {
			// Hard failure surfaces through the op's own done callback
			// (try is built to report non-queue errors itself), so an
			// error here is always queue-full by construction.
			return
		}
	}
	d.waiting = append(d.waiting, try)
}

// armQuiesceCheck schedules (at most one) end-of-cascade check that
// force-drains a partial TC window once the caller has gone quiet: the
// coalescing design defers completions until a draining request (§III-C),
// so a tail window with no successor submissions would otherwise wait at
// the target forever.
func (d *SessionDevice) armQuiesceCheck() {
	if d.deferFn == nil || d.checkArmed {
		return
	}
	d.checkArmed = true
	snapshot := d.activity
	d.deferFn(func() {
		d.checkArmed = false
		if d.activity != snapshot {
			// Progress since the check was armed: look again after the
			// next cascade.
			d.armQuiesceCheck()
			return
		}
		if len(d.waiting) == 0 && d.sess.PartialWindow() > 0 && d.sess.CanSubmit() {
			d.sess.Flush()
			_ = d.sess.Submit(hostqp.IO{Op: nvme.OpFlush, Done: func(hostqp.Result) { d.pump() }})
		}
	})
}

// pump retries waiting ops after a completion freed a slot.
func (d *SessionDevice) pump() {
	d.activity++
	d.armQuiesceCheck()
	for len(d.waiting) > 0 {
		if err := d.waiting[0](); errors.Is(err, hostqp.ErrQueueFull) {
			return
		}
		d.waiting = d.waiting[1:]
	}
}

// Waiting returns the number of queued (not yet submitted) ops.
func (d *SessionDevice) Waiting() int { return len(d.waiting) }

// prioFor maps the meta flag to a wire priority override: metadata ops go
// latency-sensitive.
func (d *SessionDevice) prioFor(meta bool) proto.Priority {
	if meta {
		return proto.PrioLatencySensitive
	}
	return 0 // inherit session class
}

// ReadAsync implements Device.
func (d *SessionDevice) ReadAsync(lba uint64, blocks uint32, meta bool, done func([]byte, error)) {
	if err := d.check(lba, blocks); err != nil {
		done(nil, err)
		return
	}
	d.submit(func() error {
		err := d.sess.Submit(hostqp.IO{
			Op:     nvme.OpRead,
			LBA:    d.base + lba,
			Blocks: blocks,
			// done keeps the bytes, so they get a buffer of their own
			// rather than one the session reuses after the completion.
			Data: make([]byte, int(blocks)*int(d.bs)),
			Prio: d.prioFor(meta),
			Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					done(nil, fmt.Errorf("hdf5: read failed: %v", r.Status))
				} else {
					done(r.Data, nil)
				}
				d.pump()
			},
		})
		if err != nil && !errors.Is(err, hostqp.ErrQueueFull) {
			done(nil, err)
			return nil // consumed: reported via done
		}
		return err
	})
}

// WriteAsync implements Device.
func (d *SessionDevice) WriteAsync(lba uint64, data []byte, meta bool, done func(error)) {
	blocks := uint32(uint64(len(data)) / uint64(d.bs))
	if uint64(len(data))%uint64(d.bs) != 0 {
		done(fmt.Errorf("hdf5: write of %d bytes not block-aligned", len(data)))
		return
	}
	if err := d.check(lba, blocks); err != nil {
		done(err)
		return
	}
	d.submit(func() error {
		err := d.sess.Submit(hostqp.IO{
			Op:     nvme.OpWrite,
			LBA:    d.base + lba,
			Blocks: blocks,
			Data:   data,
			Prio:   d.prioFor(meta),
			Done: func(r hostqp.Result) {
				if !r.Status.OK() {
					done(fmt.Errorf("hdf5: write failed: %v", r.Status))
				} else {
					done(nil)
				}
				d.pump()
			},
		})
		if err != nil && !errors.Is(err, hostqp.ErrQueueFull) {
			done(err)
			return nil
		}
		return err
	})
}
