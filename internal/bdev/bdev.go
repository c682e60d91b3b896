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

// Memory is a sparse in-memory Device. Blocks are materialized in
// fixed-size extents on first write, so multi-terabyte namespaces cost
// memory proportional to the touched footprint only.
//
// Nothing in it is device-wide: extents hang off a two-level table read
// with atomic loads and filled in by compare-and-swap, and each extent
// carries its own lock. A command is executed one extent run at a time —
// the contiguous part of it that falls inside one extent, copied whole
// under that extent's lock — so:
//
//   - a block is never torn, and a command that stays inside one extent is
//     atomic against every other command;
//   - a command that spans extents is atomic per extent run only (another
//     command may land between two of its runs), which is what NVMe
//     promises a host that has not been given an AWUPF to lean on;
//   - commands on different extents share no lock at all.
type Memory struct {
	blockSize uint32
	numBlocks uint64
	pages     []atomic.Pointer[extentPage] // extent index / pageExtents -> page
}

const (
	// extentBlocks is the number of blocks per sparse extent.
	extentBlocks = 256
	// pageExtents is the number of extent slots per table page: 8 KiB of
	// pointers covering 2^18 blocks, which keeps the root of a 4 TiB
	// namespace (2^30 blocks of 4 KiB) at 4096 pointers.
	pageExtents = 1024
)

// extent is extentBlocks consecutive blocks and the lock that orders
// commands on them.
type extent struct {
	mu   sync.RWMutex
	data []byte // extentBlocks*blockSize bytes
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
		blockSize: blockSize,
		numBlocks: numBlocks,
		pages:     make([]atomic.Pointer[extentPage], (extents-1)/pageExtents+1),
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
		slot.CompareAndSwap(nil, &extent{data: make([]byte, extentBlocks*uint64(m.blockSize))})
		e = slot.Load()
	}
	return e
}

// ReadBlocks implements Device.
func (m *Memory) ReadBlocks(buf []byte, lba uint64) error {
	if err := checkRange(m, buf, lba); err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	for len(buf) > 0 {
		off := (lba % extentBlocks) * bs
		run := buf[:min(uint64(len(buf)), extentBlocks*bs-off)]
		if e := m.extent(lba/extentBlocks, false); e != nil {
			e.mu.RLock()
			copy(run, e.data[off:])
			e.mu.RUnlock()
		} else {
			clear(run)
		}
		buf = buf[len(run):]
		lba += uint64(len(run)) / bs
	}
	return nil
}

// WriteBlocks implements Device.
func (m *Memory) WriteBlocks(buf []byte, lba uint64) error {
	if err := checkRange(m, buf, lba); err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	for len(buf) > 0 {
		off := (lba % extentBlocks) * bs
		run := buf[:min(uint64(len(buf)), extentBlocks*bs-off)]
		e := m.extent(lba/extentBlocks, true)
		e.mu.Lock()
		copy(e.data[off:], run)
		e.mu.Unlock()
		buf = buf[len(run):]
		lba += uint64(len(run)) / bs
	}
	return nil
}

// Flush implements Device (no-op for memory).
func (m *Memory) Flush() error { return nil }

// NonBlocking implements NonBlocking: every operation is a bounded copy
// under a lock held only for such copies.
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
	mu        sync.Mutex // serialize WriteAt/ReadAt pairs for sparse files
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
