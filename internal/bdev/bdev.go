// Package bdev provides the block-device abstraction the NVMe-oPF target
// exposes over fabrics, with an in-memory sparse implementation (the
// default backing store for simulations and tests) and a file-backed
// implementation (for the real-TCP target daemon).
package bdev

import (
	"fmt"
	"os"
	"sync"
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
func checkRange(d Device, buf []byte, lba uint64) (blocks uint64, err error) {
	bs := uint64(d.BlockSize())
	if uint64(len(buf))%bs != 0 || len(buf) == 0 {
		return 0, fmt.Errorf("bdev: buffer %d bytes is not a positive multiple of block size %d", len(buf), bs)
	}
	blocks = uint64(len(buf)) / bs
	if lba >= d.NumBlocks() || blocks > d.NumBlocks()-lba {
		return 0, fmt.Errorf("bdev: access [%d, %d) beyond capacity %d", lba, lba+blocks, d.NumBlocks())
	}
	return blocks, nil
}

// Memory is a sparse in-memory Device. Blocks are materialized in
// fixed-size extents on first write, so multi-terabyte namespaces cost
// memory proportional to the touched footprint only.
type Memory struct {
	blockSize uint32
	numBlocks uint64

	mu      sync.RWMutex
	extents map[uint64][]byte // extent index -> extentBlocks*blockSize bytes
}

// extentBlocks is the number of blocks per sparse extent.
const extentBlocks = 256

// NewMemory creates a sparse in-memory device.
func NewMemory(blockSize uint32, numBlocks uint64) (*Memory, error) {
	if blockSize == 0 || blockSize&(blockSize-1) != 0 {
		return nil, fmt.Errorf("bdev: block size %d is not a power of two", blockSize)
	}
	if numBlocks == 0 {
		return nil, fmt.Errorf("bdev: zero capacity")
	}
	return &Memory{
		blockSize: blockSize,
		numBlocks: numBlocks,
		extents:   make(map[uint64][]byte),
	}, nil
}

// BlockSize implements Device.
func (m *Memory) BlockSize() uint32 { return m.blockSize }

// NumBlocks implements Device.
func (m *Memory) NumBlocks() uint64 { return m.numBlocks }

// ReadBlocks implements Device.
func (m *Memory) ReadBlocks(buf []byte, lba uint64) error {
	blocks, err := checkRange(m, buf, lba)
	if err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := uint64(0); i < blocks; i++ {
		blk := lba + i
		ext, off := blk/extentBlocks, (blk%extentBlocks)*bs
		dst := buf[i*bs : (i+1)*bs]
		if e, ok := m.extents[ext]; ok {
			copy(dst, e[off:off+bs])
		} else {
			for j := range dst {
				dst[j] = 0
			}
		}
	}
	return nil
}

// WriteBlocks implements Device.
func (m *Memory) WriteBlocks(buf []byte, lba uint64) error {
	blocks, err := checkRange(m, buf, lba)
	if err != nil {
		return err
	}
	bs := uint64(m.blockSize)
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := uint64(0); i < blocks; i++ {
		blk := lba + i
		ext, off := blk/extentBlocks, (blk%extentBlocks)*bs
		e, ok := m.extents[ext]
		if !ok {
			e = make([]byte, extentBlocks*bs)
			m.extents[ext] = e
		}
		copy(e[off:off+bs], buf[i*bs:(i+1)*bs])
	}
	return nil
}

// Flush implements Device (no-op for memory).
func (m *Memory) Flush() error { return nil }

// NonBlocking implements NonBlocking: every operation is a bounded copy
// under a mutex held only for such copies.
func (m *Memory) NonBlocking() bool { return true }

// ExtentCount returns the number of materialized extents (test hook for
// the sparseness property).
func (m *Memory) ExtentCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.extents)
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
	if _, err := checkRange(d, buf, lba); err != nil {
		return err
	}
	_, err := d.f.ReadAt(buf, int64(lba)*int64(d.blockSize))
	return err
}

// WriteBlocks implements Device.
func (d *File) WriteBlocks(buf []byte, lba uint64) error {
	if _, err := checkRange(d, buf, lba); err != nil {
		return err
	}
	_, err := d.f.WriteAt(buf, int64(lba)*int64(d.blockSize))
	return err
}

// Flush implements Device.
func (d *File) Flush() error { return d.f.Sync() }

// Close closes the underlying file.
func (d *File) Close() error { return d.f.Close() }
