// Package bdev provides the block-device abstraction the NVMe-oPF target
// exposes over fabrics, with an in-memory sparse implementation (the
// default backing store for simulations and tests) and a file-backed
// implementation (for the real-TCP target daemon).
package bdev

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Device is a linear array of fixed-size logical blocks. Implementations
// must be safe for concurrent use: the TCP target serves multiple queue
// pairs from independent goroutines.
type Device interface {
	// BlockSize returns bytes per logical block.
	BlockSize() uint32
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint64
	// ReadBlocks fills buf (len must be a multiple of BlockSize) from
	// blocks starting at lba. Unwritten blocks read as zeros.
	ReadBlocks(buf []byte, lba uint64) error
	// WriteBlocks stores buf (len must be a multiple of BlockSize) to
	// blocks starting at lba.
	WriteBlocks(buf []byte, lba uint64) error
	// Flush persists outstanding writes.
	Flush() error
}

// NonBlocking is the marker a Device implements when its operations never
// wait on anything slower than memory — no disk, no network, no sleep. A
// caller with its own event loop (the TCP target's reactor) may run such a
// device on that loop instead of handing each command to an executor
// thread. Memory advertises it; File, whose operations are system calls
// into a filesystem, does not.
type NonBlocking interface {
	NonBlocking() bool
}

// IsNonBlocking reports whether d advertises NonBlocking.
func IsNonBlocking(d Device) bool {
	nb, ok := d.(NonBlocking)
	return ok && nb.NonBlocking()
}

// Adopter is implemented by a Device that can keep a write's buffer instead
// of copying it — what a target whose payloads were received into buffers
// of their own (the TCP transport's pooled ones) hands its writes to.
// AdoptBlocks stores buf at lba exactly as WriteBlocks would and returns
// the buffer the caller holds in buf's place: buf itself when the device
// copied it, or, when the device kept buf, whatever it gave up for it —
// possibly nil. The caller gives buf up either way; the returned buffer
// shares no memory with anything the device still holds. Memory
// implements it; File, which copies into the kernel anyway, does not.
type Adopter interface {
	AdoptBlocks(buf []byte, lba uint64) (owned []byte, err error)
}

// checkRange validates an access against device geometry.
func checkRange(d Device, buf []byte, lba uint64) error {
	bs := uint64(d.BlockSize())
	if uint64(len(buf))%bs != 0 || len(buf) == 0 {
		return fmt.Errorf("bdev: buffer %d bytes is not a positive multiple of block size %d", len(buf), bs)
	}
	blocks := uint64(len(buf)) / bs
	if lba >= d.NumBlocks() || blocks > d.NumBlocks()-lba {
		return fmt.Errorf("bdev: access [%d, %d) beyond capacity %d", lba, lba+blocks, d.NumBlocks())
	}
	return nil
}

// Memory is a sparse in-memory Device, so multi-terabyte namespaces cost
// memory proportional to the touched footprint only. Blocks are grouped at
// two sizes:
//
//   - an extent (256 blocks) is the unit of the table and of locking:
//     extents hang off a two-level table read with atomic loads and filled
//     in by compare-and-swap, and each carries its own lock;
//   - a chunk (128 KiB — at least one block, at most an extent) is the unit
//     of storage: an extent's data is a row of separately allocated chunks,
//     each created on its first write; a chunk never written reads as
//     zeros.
//
// A command is executed one extent run at a time — the contiguous part of
// it inside one extent, every chunk of it under that extent's lock — so:
//
//   - a block is never torn, and a command that stays inside one extent is
//     atomic against every other command;
//   - a command that spans extents is atomic per extent run only (another
//     command may land between two of its runs), which is what NVMe
//     promises a host that has not been given an AWUPF to lean on;
//   - commands on different extents share no lock at all.
//
// WriteBlocks copies. AdoptBlocks (Adopter) does too, except for a buffer
// that is exactly one aligned chunk with no spare capacity — a 128 KiB
// write received into a 128 KiB buffer: that buffer becomes the chunk, in
// one pointer swap under the extent's lock, and the chunk it replaced goes
// back to the caller.
type Memory struct {
	blockSize   uint32
	numBlocks   uint64
	chunkBlocks uint64                       // blocks per chunk; divides extentBlocks
	pages       []atomic.Pointer[extentPage] // extent index / pageExtents -> page
}

const (
	// extentBlocks is the number of blocks per sparse extent.
	extentBlocks = 256
	// chunkBytes is the storage unit inside an extent, and the size of a
	// write AdoptBlocks keeps: 128 KiB, SPDK NVMe/TCP's default I/O unit and
	// an exact size class of the proto buffer pool the replaced chunk goes
	// back to. A device whose extent is smaller uses one chunk per extent;
	// one whose block is larger, one block per chunk.
	chunkBytes = 128 << 10
	// pageExtents is the number of extent slots per table page: 8 KiB of
	// pointers covering 2^18 blocks, which keeps the root of a 4 TiB
	// namespace (2^30 blocks of 4 KiB) at 4096 pointers.
	pageExtents = 1024
)

// extent is extentBlocks consecutive blocks and the lock that orders
// commands on them.
type extent struct {
	mu     sync.RWMutex
	chunks [][]byte // extentBlocks/chunkBlocks entries, nil until first written
}

type extentPage [pageExtents]atomic.Pointer[extent]

// NewMemory creates a sparse in-memory device.
func NewMemory(blockSize uint32, numBlocks uint64) (*Memory, error) {
	if blockSize == 0 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("bdev: block size %d is not a power of two", blockSize)
	}
	if numBlocks == 0 {
		return nil, fmt.Errorf("bdev: zero capacity")
	}
	extents := (numBlocks-1)/extentBlocks + 1
	return &Memory{
		blockSize:   blockSize,
		numBlocks:   numBlocks,
		chunkBlocks: min(max(chunkBytes/uint64(blockSize), 1), extentBlocks),
		pages:       make([]atomic.Pointer[extentPage], (extents-1)/pageExtents+1),
	}, nil
}

// BlockSize implements Device.
func (m *Memory) BlockSize() uint32 { return m.blockSize }

// NumBlocks implements Device.
func (m *Memory) NumBlocks() uint64 { return m.numBlocks }

// extent returns extent number ext, or nil while nothing has been written
// to it. With create set it materializes the page and the extent: racing
// creators all allocate, one compare-and-swap wins, and every one of them
// returns the winner.
func (m *Memory) extent(ext uint64, create bool) *extent {
	root := &m.pages[ext/pageExtents]
	pg := root.Load()
	if pg == nil {
		if !create {
			return nil
		}
		root.CompareAndSwap(nil, new(extentPage))
		pg = root.Load()
	}
	slot := &pg[ext%pageExtents]
	e := slot.Load()
	if e == nil && create {
		slot.CompareAndSwap(nil, &extent{chunks: make([][]byte, extentBlocks/m.chunkBlocks)})
		e = slot.Load()
	}
	return e
}

// extentRun returns the part of buf, an access starting at lba, that lies
// inside lba's extent.
func (m *Memory) extentRun(buf []byte, lba uint64) []byte {
	return buf[:min(uint64(len(buf)), (extentBlocks-lba%extentBlocks)*uint64(m.blockSize))]
}

// chunkRun returns the part of buf, an access starting at lba, that lies
// inside lba's chunk, that chunk's slot in extent e, and where in the chunk
// the part starts.
func (m *Memory) chunkRun(e *extent, buf []byte, lba uint64) (part []byte, chunk *[]byte, off uint64) {
	bs := uint64(m.blockSize)
	off = lba % m.chunkBlocks * bs
	return buf[:min(uint64(len(buf)), m.chunkBlocks*bs-off)], &e.chunks[lba%extentBlocks/m.chunkBlocks], off
}

// ReadBlocks implements Device.
func (m *Memory) ReadBlocks(buf []byte, lba uint64) error {
	if err := checkRange(m, buf, lba); err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	for len(buf) > 0 {
		run := m.extentRun(buf, lba)
		buf = buf[len(run):]
		e := m.extent(lba/extentBlocks, false)
		if e == nil {
			clear(run)
			lba += uint64(len(run)) / bs
			continue
		}
		e.mu.RLock()
		for len(run) > 0 {
			part, c, off := m.chunkRun(e, run, lba)
			if *c != nil {
				copy(part, (*c)[off:])
			} else {
				clear(part)
			}
			run = run[len(part):]
			lba += uint64(len(part)) / bs
		}
		e.mu.RUnlock()
	}
	return nil
}

// WriteBlocks implements Device.
func (m *Memory) WriteBlocks(buf []byte, lba uint64) error {
	_, err := m.write(buf, lba, false)
	return err
}

// AdoptBlocks implements Adopter: a buffer that is exactly one aligned
// chunk (len == cap == 128 KiB on a device of 4 KiB blocks) becomes that
// chunk and the chunk it replaced is returned, nil if it was never written;
// anything else is copied and buf is returned.
func (m *Memory) AdoptBlocks(buf []byte, lba uint64) ([]byte, error) {
	return m.write(buf, lba, true)
}

// write is the write loop behind WriteBlocks and AdoptBlocks. It returns
// what the caller holds in buf's place: buf, unless donate is set and buf
// is a whole chunk it may keep.
func (m *Memory) write(buf []byte, lba uint64, donate bool) ([]byte, error) {
	if err := checkRange(m, buf, lba); err != nil {
		return buf, err
	}
	bs := uint64(m.blockSize)
	chunkLen := m.chunkBlocks * bs
	adopt := donate && uint64(len(buf)) == chunkLen && cap(buf) == len(buf) && lba%m.chunkBlocks == 0
	owned := buf
	for len(buf) > 0 {
		run := m.extentRun(buf, lba)
		buf = buf[len(run):]
		e := m.extent(lba/extentBlocks, true)
		e.mu.Lock()
		for len(run) > 0 {
			part, c, off := m.chunkRun(e, run, lba)
			if adopt { // part is all of buf
				*c, owned = part, *c
			} else {
				if *c == nil {
					*c = make([]byte, chunkLen)
				}
				copy((*c)[off:], part)
			}
			run = run[len(part):]
			lba += uint64(len(part)) / bs
		}
		e.mu.Unlock()
	}
	return owned, nil
}

// Flush implements Device (no-op for memory).
func (m *Memory) Flush() error { return nil }

// NonBlocking implements NonBlocking: every operation is a bounded copy
// (or a chunk's first allocation, or a pointer swap) under a lock held only
// for such work.
func (m *Memory) NonBlocking() bool { return true }

// ExtentCount returns the number of materialized extents (test hook for
// the sparseness property).
func (m *Memory) ExtentCount() int {
	n := 0
	for i := range m.pages {
		pg := m.pages[i].Load()
		if pg == nil {
			continue
		}
		for j := range pg {
			if pg[j].Load() != nil {
				n++
			}
		}
	}
	return n
}

// File is a Device backed by an *os.File (or any ReaderAt/WriterAt with
// the same geometry), used by the real-TCP target daemon.
type File struct {
	blockSize uint32
	numBlocks uint64
	f         *os.File
}

// OpenFile creates or opens a file-backed device of the given geometry,
// truncating/extending the file to capacity.
func OpenFile(path string, blockSize uint32, numBlocks uint64) (*File, error) {
	if blockSize == 0 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("bdev: block size %d is not a power of two", blockSize)
	}
	if numBlocks == 0 {
		return nil, fmt.Errorf("bdev: zero capacity")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(blockSize) * int64(numBlocks)); err != nil {
		f.Close()
		return nil, err
	}
	return &File{blockSize: blockSize, numBlocks: numBlocks, f: f}, nil
}

// BlockSize implements Device.
func (d *File) BlockSize() uint32 { return d.blockSize }

// NumBlocks implements Device.
func (d *File) NumBlocks() uint64 { return d.numBlocks }

// ReadBlocks implements Device.
func (d *File) ReadBlocks(buf []byte, lba uint64) error {
	if err := checkRange(d, buf, lba); err != nil {
		return err
	}
	_, err := d.f.ReadAt(buf, int64(lba)*int64(d.blockSize))
	return err
}

// WriteBlocks implements Device.
func (d *File) WriteBlocks(buf []byte, lba uint64) error {
	if err := checkRange(d, buf, lba); err != nil {
		return err
	}
	_, err := d.f.WriteAt(buf, int64(lba)*int64(d.blockSize))
	return err
}

// Flush implements Device.
func (d *File) Flush() error { return d.f.Sync() }

// Close closes the underlying file.
func (d *File) Close() error { return d.f.Close() }
