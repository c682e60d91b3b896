package bdev

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// memModel runs a Memory beside a flat byte array that holds what every
// block must read back, and checks the two agree.
type memModel struct {
	tb   testing.TB
	m    *Memory
	flat []byte
	// spare holds buffers of exactly one chunk with no spare capacity — the
	// only kind AdoptBlocks keeps — for whole-chunk writes to draw from;
	// whatever adoption hands back is put here.
	spare [][]byte
	junk  []byte // what a returned buffer is overwritten with
	back  []byte // read-back scratch
	// Adoption outcomes: kept a buffer into a chunk never written (fresh),
	// kept one in place of an old chunk (replaced), or copied.
	fresh, replaced, copied int
}

// newMemModel makes a device of nb blocks of bs bytes whose chunks are
// chunkBlocks blocks instead of 128 KiB: the model then runs the geometry
// of a device of 4 KiB blocks — eight 32-block chunks per extent — at a
// fraction of the bytes.
func newMemModel(tb testing.TB, bs uint32, nb, chunkBlocks uint64) *memModel {
	tb.Helper()
	m, err := NewMemory(bs, nb)
	if err != nil {
		tb.Fatal(err)
	}
	m.chunkBlocks = chunkBlocks // before the first write creates an extent
	return &memModel{tb: tb, m: m, flat: make([]byte, uint64(bs)*nb),
		junk: bytes.Repeat([]byte{0xA5}, 3*extentBlocks*int(bs)),
		back: make([]byte, 3*extentBlocks*int(bs))}
}

func (x *memModel) chunkLen() int { return int(x.m.chunkBlocks) * int(x.m.blockSize) }

// chunk returns a buffer of exactly one chunk with no spare capacity.
func (x *memModel) chunk() []byte {
	if n := len(x.spare); n > 0 {
		b := x.spare[n-1]
		x.spare = x.spare[:n-1]
		return b
	}
	return make([]byte, x.chunkLen())
}

// write stores b at lba through WriteBlocks, or through AdoptBlocks when
// adopt is set. An adoption must keep b exactly when b is one aligned
// chunk with no spare capacity; the buffer it returns is then overwritten,
// and the device must not see that.
func (x *memModel) write(b []byte, lba uint64, adopt bool) {
	x.tb.Helper()
	bs := uint64(x.m.blockSize)
	copy(x.flat[lba*bs:], b)
	if !adopt {
		if err := x.m.WriteBlocks(b, lba); err != nil {
			x.tb.Fatalf("WriteBlocks(%d blocks at %d): %v", uint64(len(b))/bs, lba, err)
		}
		return
	}
	whole := len(b) == x.chunkLen() && cap(b) == len(b) && lba%x.m.chunkBlocks == 0
	owned, err := x.m.AdoptBlocks(b, lba)
	if err != nil {
		x.tb.Fatalf("AdoptBlocks(%d blocks at %d): %v", uint64(len(b))/bs, lba, err)
	}
	kept := len(owned) == 0 || &owned[0] != &b[0]
	if kept != whole {
		x.tb.Fatalf("AdoptBlocks of %d bytes (cap %d) at lba %d: kept %v, want %v", len(b), cap(b), lba, kept, whole)
	}
	switch {
	case !kept:
		x.copied++
	case owned == nil:
		x.fresh++
	default:
		x.replaced++
	}
	if owned == nil {
		return
	}
	copy(owned, x.junk)
	x.read(x.back[:len(b)], lba)
	if len(owned) == x.chunkLen() && cap(owned) == len(owned) {
		x.spare = append(x.spare, owned)
	}
}

// read reads len(b) bytes at lba and checks them against the model.
func (x *memModel) read(b []byte, lba uint64) {
	x.tb.Helper()
	bs := uint64(x.m.blockSize)
	if err := x.m.ReadBlocks(b, lba); err != nil {
		x.tb.Fatalf("ReadBlocks(%d blocks at %d): %v", uint64(len(b))/bs, lba, err)
	}
	if !bytes.Equal(b, x.flat[lba*bs:lba*bs+uint64(len(b))]) {
		x.tb.Fatalf("read [%d,+%d) differs from the model", lba, uint64(len(b))/bs)
	}
}

// verify reads the whole device back against the model.
func (x *memModel) verify() {
	x.tb.Helper()
	x.read(make([]byte, len(x.flat)), 0)
}

// FuzzMemoryOps runs generated programs of reads, copied writes and
// adoptions against the flat model on a small device of four extents of
// eight chunks. Each op (up to 64 of them) is five bytes: kind, LBA (16 bits, modulo the
// capacity), length (16 bits, modulo three extents, plus one). Kind 0 reads,
// 1 writes, 2 adopts from a buffer with spare capacity (always copied), 3
// adopts from a buffer of exactly one chunk at that LBA, and 4 does so at
// the LBA rounded down to its chunk (kept, fresh or in place of an old
// chunk). After every adoption the returned buffer is overwritten and the
// range read back; at the end the whole device is.
func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 31, 0})                      // fresh, then in place, then read
	f.Add([]byte{1, 10, 0, 100, 0, 4, 32, 0, 0, 0, 3, 33, 0, 0, 0, 0, 0, 0, 255, 0}) // written, adopted, misaligned
	f.Add([]byte{2, 250, 0, 20, 0, 4, 0, 1, 0, 0, 1, 200, 3, 255, 2, 0, 240, 0, 50, 0})
	f.Fuzz(func(t *testing.T, prog []byte) { runMemOps(t, prog) })
}

// runMemOps runs one FuzzMemoryOps program.
func runMemOps(tb testing.TB, prog []byte) {
	const (
		bs = 64
		cb = 32
		nb = 4*extentBlocks - 5
	)
	if len(prog) > 5*64 {
		prog = prog[:5*64] // longer programs add time, not paths
	}
	x := newMemModel(tb, bs, nb, cb)
	buf := make([]byte, 3*extentBlocks*bs, 4*extentBlocks*bs)
	for i := 0; i+5 <= len(prog); i += 5 {
		op := prog[i:]
		lba := uint64(binary.LittleEndian.Uint16(op[1:])) % nb
		blocks := min(1+uint64(binary.LittleEndian.Uint16(op[3:]))%(3*extentBlocks), nb-lba)
		b := buf[:blocks*bs]
		switch op[0] % 5 {
		case 0:
			x.read(b, lba)
			continue
		case 3, 4:
			if op[0]%5 == 4 {
				lba -= lba % cb
			}
			if lba+cb > nb {
				continue
			}
			b = x.chunk()
		}
		for j := 0; j < len(b); j += bs { // every block of every write differs
			binary.LittleEndian.PutUint64(b[j:], uint64(i)<<32|uint64(j))
		}
		x.write(b, lba, op[0]%5 >= 2)
	}
	x.verify()
}
