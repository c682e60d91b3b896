package experiments

import (
	"encoding/binary"
	"fmt"
	"time"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/simnet"
	"nvmeopf/internal/stats"
)

// The block layout of one rank's HDF5 file, as h5bench's particle kernels
// touch it: a superblock, an object table, then the particle dataset, one
// 4 KiB access per block.
const (
	h5SuperLBA    = 0
	h5TableLBA    = 1
	h5TableBlocks = 64
	h5DataLBA     = h5TableLBA + h5TableBlocks
	h5BlockBytes  = 4096
	// Creating the file, its particle group and its dataset each flush
	// the metadata once before the first timestep.
	h5CreateFlushes = 3
)

// h5LoadGap models h5bench's per-timestep dataset-loading overhead in the
// read kernel (§V-E: "h5bench read must perform dataset loading overheads
// between read requests").
const h5LoadGap = 3 * time.Millisecond

// h5Session is what a rank needs of its initiator session.
type h5Session interface {
	Submit(hostqp.IO) error
	Flush()
}

// h5Phase is the outcome of one phase (write or read) of a rank.
type h5Phase struct {
	Bytes, Errors  int64 // data bytes moved; failed or mismatched commands
	StartNs, EndNs int64
	OpLat          stats.Histogram // data accesses only
}

// h5Rank is one h5bench particle rank (§V-E) reduced to the block sequence
// its HDF5 file puts on the wire, on a partition of the namespace starting
// at base. The paper's VOL connector tags metadata latency-sensitive, so
// every superblock and object-table access is LS whatever the session's
// class, and data accesses inherit it.
//
// Write phase: h5CreateFlushes metadata flushes (the object table, then
// the superblock), then per timestep `blocks` one-block writes from
// h5DataLBA, at most qd in flight, and one more flush. Read phase: the
// superblock, the object table, then per timestep the load gap and the
// same reads. Every block carries its own LBA, so the read phase checks
// what it gets back against what the write phase stored; the check
// schedules nothing.
//
// A rank runs on one simulation engine and is not safe for concurrent use.
type h5Rank struct {
	sess   h5Session
	eng    *simnet.Engine
	base   uint64
	blocks int // data blocks per timestep
	steps  int
	qd     int
	gap    time.Duration // before each read timestep
	ls     bool          // the node's LS rank (Fig. 9's ls_write_lat_us)

	write, read h5Phase

	cur      *h5Phase
	done     func(error)
	err      error
	step     int
	next     int // next data block of the timestep
	inflight int
}

func (r *h5Rank) now() int64 { return int64(r.eng.Now()) }

// writePhase creates the file and runs the write timesteps; done receives
// the first failure, or nil.
func (r *h5Rank) writePhase(done func(error)) {
	r.start(&r.write, done)
	r.flush(h5CreateFlushes, r.beginStep)
}

// readPhase opens the file and runs the read timesteps.
func (r *h5Rank) readPhase(done func(error)) {
	r.start(&r.read, done)
	r.submit(nvme.OpRead, h5SuperLBA, 1, proto.PrioLatencySensitive, func() {
		r.submit(nvme.OpRead, h5TableLBA, h5TableBlocks, proto.PrioLatencySensitive, r.beginStep)
	})
}

func (r *h5Rank) start(p *h5Phase, done func(error)) {
	r.cur, r.done, r.step = p, done, 0
	p.StartNs = r.now()
}

// flush writes the metadata n times in a row, then calls then.
func (r *h5Rank) flush(n int, then func()) {
	if n == 0 {
		then()
		return
	}
	r.submit(nvme.OpWrite, h5TableLBA, h5TableBlocks, proto.PrioLatencySensitive, func() {
		r.submit(nvme.OpWrite, h5SuperLBA, 1, proto.PrioLatencySensitive, func() { r.flush(n-1, then) })
	})
}

func (r *h5Rank) beginStep() {
	r.next = 0
	if r.cur == &r.read && r.gap > 0 {
		r.eng.Schedule(r.gap, r.fill)
		return
	}
	r.fill()
}

func (r *h5Rank) fill() {
	for r.err == nil && r.inflight < r.qd && r.next < r.blocks {
		r.access()
	}
}

// access issues the timestep's next data block.
func (r *h5Rank) access() {
	lba := uint64(h5DataLBA + r.next)
	r.next++
	r.inflight++
	if r.next == r.blocks {
		// The timestep's last access closes the TC window it is in, full
		// or not: nothing follows it that would.
		r.sess.Flush()
	}
	op := nvme.OpWrite
	if r.cur == &r.read {
		op = nvme.OpRead
	}
	issued := r.now()
	r.submit(op, lba, 1, 0, func() {
		r.inflight--
		r.cur.Bytes += h5BlockBytes
		r.cur.OpLat.Record(r.now() - issued)
		if r.next < r.blocks {
			r.access()
		} else if r.inflight == 0 {
			r.endStep()
		}
	})
}

func (r *h5Rank) endStep() {
	r.step++
	if r.cur == &r.write {
		r.flush(1, r.afterStep)
		return
	}
	r.afterStep()
}

func (r *h5Rank) afterStep() {
	if r.step < r.steps {
		r.beginStep()
		return
	}
	r.cur.EndNs = r.now()
	r.done(nil)
}

// submit issues one command on the partition and calls then once it
// completes intact. prio 0 inherits the session's class.
func (r *h5Rank) submit(op nvme.Opcode, lba uint64, blocks uint32, prio proto.Priority, then func()) {
	lba += r.base
	var data []byte
	if op == nvme.OpWrite {
		data = make([]byte, int(blocks)*h5BlockBytes)
		for i := 0; i < len(data); i += 8 {
			binary.LittleEndian.PutUint64(data[i:], lba+uint64(i/h5BlockBytes))
		}
	}
	err := r.sess.Submit(hostqp.IO{Op: op, LBA: lba, Blocks: blocks, Data: data, Prio: prio,
		Done: func(res hostqp.Result) {
			if !res.Status.OK() {
				r.fail(fmt.Errorf("h5 rank: %v of LBA %d: %v", op, lba, res.Status))
			} else if op == nvme.OpRead && !h5Intact(res.Data, lba) {
				r.fail(fmt.Errorf("h5 rank: LBA %d+%d reads back other than written", lba, blocks))
			} else if r.err == nil {
				then()
			}
		}})
	if err != nil {
		r.fail(err)
	}
}

// h5Intact reports whether every 8-byte word of buf, read from lba on,
// holds the LBA of its block, as submit writes it.
func h5Intact(buf []byte, lba uint64) bool {
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != lba+uint64(i/h5BlockBytes) {
			return false
		}
	}
	return len(buf) > 0
}

// fail counts a failed command and ends the rank on the first one.
func (r *h5Rank) fail(err error) {
	r.cur.Errors++
	if r.err != nil {
		return
	}
	r.err = err
	r.cur.EndNs = r.now()
	r.done(err)
}
