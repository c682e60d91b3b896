package bdev

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func TestMemoryGeometryValidation(t *testing.T) {
	if _, err := NewMemory(0, 10); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := NewMemory(1000, 10); err == nil {
		t.Error("non-power-of-two block size accepted")
	}
	if _, err := NewMemory(512, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	m, err := NewMemory(512, 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockSize() != 512 || m.NumBlocks() != 100 {
		t.Fatalf("geometry %d/%d", m.BlockSize(), m.NumBlocks())
	}
}

func TestMemoryReadUnwrittenIsZero(t *testing.T) {
	m, _ := NewMemory(512, 100)
	buf := bytes.Repeat([]byte{0xFF}, 1024)
	if err := m.ReadBlocks(buf, 10); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestMemoryReadAfterWrite(t *testing.T) {
	m, _ := NewMemory(512, 1000)
	w := make([]byte, 1536)
	for i := range w {
		w[i] = byte(i * 7)
	}
	if err := m.WriteBlocks(w, 42); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 1536)
	if err := m.ReadBlocks(r, 42); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, w) {
		t.Fatal("read-after-write mismatch")
	}
	// Partial overlap read.
	r2 := make([]byte, 512)
	if err := m.ReadBlocks(r2, 43); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r2, w[512:1024]) {
		t.Fatal("offset read mismatch")
	}
}

func TestMemoryRangeChecks(t *testing.T) {
	m, _ := NewMemory(512, 10)
	if err := m.ReadBlocks(make([]byte, 512), 10); err == nil {
		t.Error("read past end accepted")
	}
	if err := m.WriteBlocks(make([]byte, 1024), 9); err == nil {
		t.Error("write straddling end accepted")
	}
	if err := m.ReadBlocks(make([]byte, 100), 0); err == nil {
		t.Error("non-block-multiple buffer accepted")
	}
	if err := m.WriteBlocks(nil, 0); err == nil {
		t.Error("empty buffer accepted")
	}
}

// TestMemoryNewIsSparse: a namespace costs its table root until it is
// written, an extent per touched extent after, and racing first writers of
// one extent end up sharing a single one.
func TestMemoryNewIsSparse(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := NewMemory(4096, 1<<30) // 4 TiB namespace
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("creating a 4 TiB namespace allocated %d bytes, want < 64 KiB", got)
	}
	if got := m.ExtentCount(); got != 0 {
		t.Fatalf("extent count = %d before any write", got)
	}
	if err := m.WriteBlocks(make([]byte, 4096), 1<<29); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBlocks(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if got := m.ExtentCount(); got != 2 {
		t.Fatalf("extent count = %d, want 2 (sparse)", got)
	}

	// Every racer's block must be readable afterwards: a loser of the
	// materialisation race has to write into the winner's extent.
	const racers = 8
	for round := uint64(0); round < 20; round++ {
		base := (1<<20 + round) * extentBlocks // a fresh extent every round
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				if err := m.WriteBlocks(bytes.Repeat([]byte{byte(g + 1)}, 4096), base+uint64(g)); err != nil {
					t.Error(err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if got, want := m.ExtentCount(), 3+int(round); got != want {
			t.Fatalf("round %d: extent count = %d, want %d (one extent per raced materialisation)", round, got, want)
		}
		got := make([]byte, racers*4096)
		if err := m.ReadBlocks(got, base); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < racers; g++ {
			if !bytes.Equal(got[g*4096:(g+1)*4096], bytes.Repeat([]byte{byte(g + 1)}, 4096)) {
				t.Fatalf("round %d: racer %d's block lost", round, g)
			}
		}
	}
}

func TestMemoryCrossExtentWrite(t *testing.T) {
	m, _ := NewMemory(512, 10_000)
	// Four blocks, two on each side of the first extent boundary.
	w := make([]byte, 512*4)
	for i := range w {
		w[i] = byte(i)
	}
	if err := m.WriteBlocks(w, extentBlocks-2); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 512*4)
	if err := m.ReadBlocks(r, extentBlocks-2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, w) {
		t.Fatal("cross-extent round trip mismatch")
	}
}

// TestMemoryAdoptBlocks walks the adoption rule on a device of 4 KiB
// blocks: only a buffer of exactly one aligned 128 KiB chunk with no spare
// capacity is kept, the first time in exchange for nothing, after that for
// the chunk it replaces.
func TestMemoryAdoptBlocks(t *testing.T) {
	for _, g := range []struct {
		bs     uint32
		blocks uint64
	}{{4096, 32}, {512, 256}, {64, 256}, {1 << 20, 1}} {
		m, _ := NewMemory(g.bs, 1024)
		if m.chunkBlocks != g.blocks {
			t.Errorf("%d-byte blocks: %d blocks per chunk, want %d", g.bs, m.chunkBlocks, g.blocks)
		}
	}
	if _, ok := Device(&File{}).(Adopter); ok {
		t.Error("File implements Adopter")
	}

	m, _ := NewMemory(4096, 4*extentBlocks)
	var dev Device = m
	ad, ok := dev.(Adopter)
	if !ok {
		t.Fatal("Memory does not implement Adopter")
	}
	const chunk = chunkBytes
	a, b := bytes.Repeat([]byte{1}, chunk), bytes.Repeat([]byte{2}, chunk)
	lba := uint64(extentBlocks + 3*32) // the fourth chunk of the second extent
	if owned, err := ad.AdoptBlocks(a, lba); err != nil || owned != nil {
		t.Fatalf("adopting into a chunk never written returned %d bytes, %v; want nil", len(owned), err)
	}
	owned, err := ad.AdoptBlocks(b, lba)
	if err != nil || len(owned) != chunk || &owned[0] != &a[0] {
		t.Fatalf("second adoption returned %d bytes, %v; want the first buffer back", len(owned), err)
	}
	clear(owned) // the caller's now: the device must not see this
	got := make([]byte, chunk+2*4096)
	if err := m.ReadBlocks(got, lba-1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[4096:4096+chunk], b) || !bytes.Equal(got[:4096], make([]byte, 4096)) || !bytes.Equal(got[4096+chunk:], make([]byte, 4096)) {
		t.Fatal("read around the adopted chunk: want zeros, the second buffer, zeros")
	}

	// Everything else is copied and handed straight back.
	for _, c := range []struct {
		name string
		buf  []byte
		lba  uint64
	}{
		{"misaligned", make([]byte, chunk), lba + 1},
		{"spare capacity", make([]byte, chunk, chunk+4096), lba},
		{"partial", make([]byte, chunk-4096), lba},
		{"two chunks", make([]byte, 2*chunk), lba - 32},
	} {
		for i := range c.buf {
			c.buf[i] = 3
		}
		owned, err := ad.AdoptBlocks(c.buf, c.lba)
		if err != nil || len(owned) != len(c.buf) || &owned[0] != &c.buf[0] {
			t.Fatalf("%s: AdoptBlocks returned %d bytes, %v; want the buffer back", c.name, len(owned), err)
		}
		clear(owned)
		got := make([]byte, len(c.buf))
		if err := m.ReadBlocks(got, c.lba); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{3}, len(got))) {
			t.Fatalf("%s: copied write did not read back (%v)", c.name, err)
		}
	}
	if owned, err := ad.AdoptBlocks(make([]byte, chunk), 4*extentBlocks); err == nil || len(owned) != chunk {
		t.Fatalf("adoption past the end: %d bytes back, err %v; want the buffer and an error", len(owned), err)
	}
}

func TestMemoryConcurrent(t *testing.T) {
	m, _ := NewMemory(512, 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 512)
			for i := range buf {
				buf[i] = byte(g)
			}
			base := uint64(g * 512)
			for iter := 0; iter < 200; iter++ {
				lba := base + uint64(iter%512)
				if err := m.WriteBlocks(buf, lba); err != nil {
					t.Error(err)
					return
				}
				r := make([]byte, 512)
				if err := m.ReadBlocks(r, lba); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(r, buf) {
					t.Errorf("goroutine %d: corruption at lba %d", g, lba)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoryModelProperty: long seeded runs of writes, adoptions and reads
// behave like a flat byte array. The geometry is 48 extents of eight
// chunks each, two extents never written, and the op mix forces unaligned
// starts and runs that cross one and two extent boundaries, so every split
// in ReadBlocks and the write loop — first partial run, whole middle
// extent, last partial run, chunk boundary inside an extent, a hole
// between written extents — is taken thousands of times. A third of the
// writes go through AdoptBlocks: aligned whole chunks (kept, into a fresh
// chunk or in place of an old one), chunk-sized buffers at a misaligned
// LBA or with spare capacity, partial chunks, and the general mix (all
// copied); whatever comes back is overwritten before the range is read
// back.
func TestMemoryModelProperty(t *testing.T) {
	const (
		bs      = 64
		cb      = 32 // blocks per chunk, as on a device of 4 KiB blocks
		extents = 48
		nb      = extents*extentBlocks - 37 // the last extent is a partial one
		ops     = 20_000
	)
	holes := map[uint64]bool{3: true, 9: true}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := newMemModel(t, bs, nb, cb)
		// Write contents are windows of a random pattern at byte offsets,
		// so no two writes look alike and filling one costs a copy.
		pattern := make([]byte, 4*extentBlocks*bs)
		rng.Read(pattern)
		touched, written := map[uint64]bool{}, map[uint64]bool{} // extents, chunks
		var crossed [3]int                                       // ops by extent boundaries crossed: 0, 1, 2+
		var misaligned, spareCap, partial int
		buf := make([]byte, 3*extentBlocks*bs)
		for i := 0; i < ops; i++ {
			var blocks uint64
			switch r := rng.Intn(100); {
			case r < 70:
				blocks = 1 + uint64(rng.Intn(8))
			case r < 95:
				blocks = 1 + uint64(rng.Intn(extentBlocks))
			default:
				blocks = extentBlocks + 1 + uint64(rng.Intn(2*extentBlocks-1))
			}
			lba := uint64(rng.Int63n(nb))
			var b []byte      // the payload when the shape picks its own buffer
			op := rng.Intn(9) // 0-2 read, 3-6 WriteBlocks, 7-8 AdoptBlocks
			if op >= 7 {
				switch rng.Intn(5) {
				case 0: // aligned whole chunk: kept
					lba, blocks, b = uint64(rng.Int63n(nb/cb))*cb, cb, x.chunk()
					if rng.Intn(2) == 0 { // into the next chunk never written, if one is left
						for k := lba / cb; k < nb/cb; k++ {
							if !written[k] && !holes[k*cb/extentBlocks] {
								lba = k * cb
								break
							}
						}
					}
				case 1: // a whole chunk's buffer across a chunk boundary
					lba, blocks, b = uint64(rng.Int63n(nb/cb-1))*cb+1+uint64(rng.Int63n(cb-1)), cb, x.chunk()
					misaligned++
				case 2: // aligned chunk, but the buffer has room to spare
					lba, blocks = uint64(rng.Int63n(nb/cb))*cb, cb
					spareCap++
				case 3: // part of a chunk
					blocks = 1 + uint64(rng.Int63n(cb-1))
					partial++
				}
			}
			blocks = min(blocks, nb-lba)
			first, last := lba/extentBlocks, (lba+blocks-1)/extentBlocks
			for e := first; e <= last && op >= 3; e++ {
				if holes[e] {
					op = 0
				}
			}
			if b == nil {
				b = buf[:blocks*bs]
			}
			if op < 3 {
				x.read(b, lba)
				if &b[0] != &buf[0] { // a chunk buffer, turned into a read by a hole
					x.spare = append(x.spare, b)
				}
			} else {
				copy(b, pattern[rng.Intn(len(pattern)-len(b)+1):])
				x.write(b, lba, op >= 7)
				for e := first; e <= last; e++ {
					touched[e] = true
				}
				for k := lba / cb; k <= (lba+blocks-1)/cb; k++ {
					written[k] = true
				}
			}
			crossed[min(last-first, 2)]++
		}
		x.verify()
		if len(touched) != extents-len(holes) || x.m.ExtentCount() != len(touched) {
			t.Fatalf("seed %d: %d extents materialised, %d written, want %d", seed, x.m.ExtentCount(), len(touched), extents-len(holes))
		}
		if crossed[1] < 1000 || crossed[2] < 300 {
			t.Fatalf("seed %d: only %d one-boundary and %d two-boundary ops; the mix no longer tests the splits", seed, crossed[1], crossed[2])
		}
		if x.fresh < 15 || x.replaced < 200 || x.copied < 1000 || misaligned < 100 || spareCap < 100 || partial < 100 {
			t.Fatalf("seed %d: adoptions kept %d into fresh chunks and %d in place of old ones, copied %d (%d misaligned, %d with spare capacity, %d partial); the mix no longer tests adoption",
				seed, x.fresh, x.replaced, x.copied, misaligned, spareCap, partial)
		}
	}
}

// TestMemoryConcurrentWritersNeverTear is the atomicity contract under the
// race detector: a block is never torn, a command inside one extent is
// atomic against every other command, and a command that spans extents is
// atomic per extent run. Every written block carries its command's stamp
// at head and tail; readers check each block head against tail, and each
// extent run of a command-sized range for one stamp throughout.
func TestMemoryConcurrentWritersNeverTear(t *testing.T) {
	const (
		bs     = 4096 // 32-block chunks, eight to an extent
		cmd    = 16   // blocks per command
		rounds = 400
	)
	m, _ := NewMemory(bs, 8*extentBlocks)
	// Each target is one command-sized range. Two writers share the first
	// (inside extent 0, across its first chunk boundary), the next two sit
	// alone on extents 2 and 3, and the last straddles the 4|5 boundary with
	// two writers on it.
	targets := []uint64{24, 2*extentBlocks + 7, 3 * extentBlocks, 5*extentBlocks - 5}
	writers := []int{0, 0, 1, 2, 3, 3}

	stamp := func(buf []byte, v uint64) {
		for b := 0; b < len(buf); b += bs {
			binary.LittleEndian.PutUint64(buf[b:], v)
			binary.LittleEndian.PutUint64(buf[b+bs-8:], v)
		}
	}
	// check walks a command-sized read and returns an error for a torn
	// block or for two stamps inside one extent run.
	check := func(buf []byte, lba uint64) error {
		var run uint64
		for b := 0; b < cmd; b++ {
			blk := buf[b*bs : (b+1)*bs]
			head, tail := binary.LittleEndian.Uint64(blk), binary.LittleEndian.Uint64(blk[bs-8:])
			if head != tail {
				return fmt.Errorf("block %d torn: head %#x tail %#x", lba+uint64(b), head, tail)
			}
			if b == 0 || (lba+uint64(b))%extentBlocks == 0 {
				run = head
			} else if head != run {
				return fmt.Errorf("block %d carries %#x inside an extent run stamped %#x", lba+uint64(b), head, run)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w, tgt := range writers {
		wg.Add(1)
		go func(w int, lba uint64) {
			defer wg.Done()
			buf := make([]byte, cmd*bs)
			for i := 1; i <= rounds; i++ {
				stamp(buf, uint64(w+1)<<32|uint64(i))
				if err := m.WriteBlocks(buf, lba); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, targets[tgt])
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, cmd*bs)
			for {
				for _, lba := range targets {
					if err := m.ReadBlocks(buf, lba); err != nil {
						t.Error(err)
						return
					}
					if err := check(buf, lba); err != nil {
						t.Error(err)
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	// Quiescent: each target holds some writer's last command, whole per
	// extent run.
	buf := make([]byte, cmd*bs)
	for _, lba := range targets {
		if err := m.ReadBlocks(buf, lba); err != nil {
			t.Fatal(err)
		}
		if err := check(buf, lba); err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(buf) & 0xFFFF_FFFF; got != rounds {
			t.Fatalf("target %d ends on round %d, want %d", lba, got, rounds)
		}
	}
}

// TestMemoryAdoptNeverTears is the whole-chunk contract under the race
// detector: adopters swapping their buffers into one 128 KiB chunk, a
// copying writer of the same chunk, and readers of it never let a reader
// see a torn block or two commands' blocks in one read — a whole-chunk
// write is atomic whichever entry point took it. Each adopter stamps the
// buffers adoption hands back and adopts them again, so a chunk the device
// still held while its former owner scribbled on it would show up both as
// a race report and as a stamp that changes under a reader.
func TestMemoryAdoptNeverTears(t *testing.T) {
	const (
		bs     = 4096
		cmd    = chunkBytes / bs
		rounds = 300
		lba    = extentBlocks + 2*cmd // one chunk, inside one extent
	)
	m, _ := NewMemory(bs, 4*extentBlocks)
	stamp := func(buf []byte, v uint64) {
		for b := 0; b < len(buf); b += bs {
			binary.LittleEndian.PutUint64(buf[b:], v)
			binary.LittleEndian.PutUint64(buf[b+bs-8:], v)
		}
	}
	check := func(buf []byte) error {
		first := binary.LittleEndian.Uint64(buf)
		for b := 0; b < len(buf); b += bs {
			head, tail := binary.LittleEndian.Uint64(buf[b:]), binary.LittleEndian.Uint64(buf[b+bs-8:])
			if head != tail {
				return fmt.Errorf("block %d torn: head %#x tail %#x", lba+b/bs, head, tail)
			}
			if head != first {
				return fmt.Errorf("block %d carries %#x inside a chunk stamped %#x", lba+b/bs, head, first)
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ { // writers 0 and 1 adopt, writer 2 copies
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, chunkBytes)
			for i := 1; i <= rounds; i++ {
				stamp(buf, uint64(w+1)<<32|uint64(i))
				if w == 2 {
					if err := m.WriteBlocks(buf, lba); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				owned, err := m.AdoptBlocks(buf, lba)
				if err != nil || (owned != nil && &owned[0] == &buf[0]) {
					t.Errorf("writer %d round %d: aligned whole chunk not kept (%v)", w, i, err)
					return
				}
				if buf = owned; buf == nil {
					buf = make([]byte, chunkBytes)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			buf := make([]byte, chunkBytes)
			for {
				if err := m.ReadBlocks(buf, lba); err != nil {
					t.Error(err)
					return
				}
				if err := check(buf); err != nil { // all zeros until the first write lands
					t.Error(err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	buf := make([]byte, chunkBytes)
	if err := m.ReadBlocks(buf, lba); err != nil {
		t.Fatal(err)
	}
	if err := check(buf); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(buf) & 0xFFFF_FFFF; got != rounds {
		t.Fatalf("chunk ends on round %d, want %d", got, rounds)
	}
}

// BenchmarkMemoryWriteParallel is the device leg of tc-write-128k on its
// own: 128 KiB sequential writes, each goroutine inside its own 64 MiB
// region, so no two ever share an extent. MB/s at 2 goroutines against 1
// is what a device-wide lock caps at 1x and per-extent locks do not. The
// copy variant goes through WriteBlocks; the adopt variant through
// AdoptBlocks, each goroutine writing with the chunk the previous write
// handed back — what the TCP target does with its pooled receive buffers.
func BenchmarkMemoryWriteParallel(b *testing.B) {
	const (
		bs           = 4096
		ioBlocks     = chunkBytes / bs
		regionBlocks = 64 << 20 / bs
	)
	for _, adopt := range []bool{false, true} {
		for _, g := range []int{1, 2} {
			mode := "copy"
			if adopt {
				mode = "adopt"
			}
			b.Run(fmt.Sprintf("%s/goroutines=%d", mode, g), func(b *testing.B) {
				m, _ := NewMemory(bs, uint64(g)*regionBlocks)
				buf := make([]byte, ioBlocks*bs)
				for lba := uint64(0); lba < m.NumBlocks(); lba += ioBlocks { // materialise every chunk, so the timed part is copies or swaps
					if err := m.WriteBlocks(buf[:bs], lba); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(ioBlocks * bs)
				b.ResetTimer()
				var wg sync.WaitGroup
				for w := 0; w < g; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						buf := make([]byte, ioBlocks*bs)
						base := uint64(w) * regionBlocks
						for i := w; i < b.N; i += g {
							lba := base + uint64(i/g)*ioBlocks%regionBlocks
							var err error
							if adopt {
								buf, err = m.AdoptBlocks(buf, lba)
							} else {
								err = m.WriteBlocks(buf, lba)
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

func TestFileDevice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := OpenFile(path, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.BlockSize() != 512 || d.NumBlocks() != 1024 {
		t.Fatal("geometry mismatch")
	}
	w := bytes.Repeat([]byte{0x5A}, 1024)
	if err := d.WriteBlocks(w, 100); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 1024)
	if err := d.ReadBlocks(r, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, w) {
		t.Fatal("file round trip mismatch")
	}
	if err := d.ReadBlocks(make([]byte, 512), 1024); err == nil {
		t.Error("read past end accepted")
	}
}

func TestOpenFileValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "x"), 100, 10); err == nil {
		t.Error("bad block size accepted")
	}
	if _, err := OpenFile(filepath.Join(dir, "y"), 512, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := OpenFile(filepath.Join(dir, "nodir", "z"), 512, 10); err == nil {
		t.Error("unopenable path accepted")
	}
}
