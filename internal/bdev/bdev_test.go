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
	// Write spanning an extent boundary (extentBlocks = 256).
	w := make([]byte, 512*4)
	for i := range w {
		w[i] = byte(i)
	}
	if err := m.WriteBlocks(w, 254); err != nil {
		t.Fatal(err)
	}
	r := make([]byte, 512*4)
	if err := m.ReadBlocks(r, 254); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, w) {
		t.Fatal("cross-extent round trip mismatch")
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

// TestMemoryModelProperty: long seeded runs of writes and reads behave
// like a flat byte array. The geometry is twelve extents of which two are
// never written, and the op mix forces unaligned starts and runs that
// cross one and two extent boundaries, so every split in ReadBlocks and
// WriteBlocks — first partial run, whole middle extent, last partial run,
// a hole between written extents — is taken thousands of times.
func TestMemoryModelProperty(t *testing.T) {
	const (
		bs      = 64
		extents = 12
		nb      = extents*extentBlocks - 37 // the last extent is a partial one
		ops     = 20_000
	)
	holes := map[uint64]bool{3: true, 9: true}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewMemory(bs, nb)
		if err != nil {
			t.Fatal(err)
		}
		model := make([]byte, bs*nb)
		touched := map[uint64]bool{}
		var crossed [3]int // ops by extent boundaries crossed: 0, 1, 2+
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
			blocks = min(blocks, nb-lba)
			first, last := lba/extentBlocks, (lba+blocks-1)/extentBlocks
			write := rng.Intn(3) > 0
			for e := first; e <= last && write; e++ {
				write = !holes[e]
			}
			b := buf[:blocks*bs]
			if write {
				rng.Read(b)
				if err := m.WriteBlocks(b, lba); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
				copy(model[lba*bs:], b)
				for e := first; e <= last; e++ {
					touched[e] = true
				}
			} else {
				if err := m.ReadBlocks(b, lba); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
				if !bytes.Equal(b, model[lba*bs:(lba+blocks)*bs]) {
					t.Fatalf("seed %d op %d: read [%d,+%d) differs from the model", seed, i, lba, blocks)
				}
			}
			crossed[min(last-first, 2)]++
		}
		got := make([]byte, bs*nb)
		if err := m.ReadBlocks(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("seed %d: device differs from the model after %d ops", seed, ops)
		}
		if len(touched) != extents-len(holes) || m.ExtentCount() != len(touched) {
			t.Fatalf("seed %d: %d extents materialised, %d written, want %d", seed, m.ExtentCount(), len(touched), extents-len(holes))
		}
		if crossed[1] < 1000 || crossed[2] < 300 {
			t.Fatalf("seed %d: only %d one-boundary and %d two-boundary ops; the mix no longer tests the splits", seed, crossed[1], crossed[2])
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
		bs     = 512
		cmd    = 16 // blocks per command
		rounds = 400
	)
	m, _ := NewMemory(bs, 8*extentBlocks)
	// Each target is one command-sized range. Two writers share the first
	// (inside extent 0), the next two sit alone on extents 2 and 3, and the
	// last straddles the 4|5 boundary with two writers on it.
	targets := []uint64{40, 2*extentBlocks + 7, 3 * extentBlocks, 5*extentBlocks - 5}
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

// BenchmarkMemoryWriteParallel is the device leg of tc-write-128k on its
// own: 128 KiB sequential writes, each goroutine inside its own 64 MiB
// region, so no two ever share an extent. MB/s at 2 goroutines against 1
// is what a device-wide lock caps at 1x and per-extent locks do not.
func BenchmarkMemoryWriteParallel(b *testing.B) {
	const (
		bs           = 4096
		ioBlocks     = 32
		regionBlocks = 64 << 20 / bs
	)
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			m, _ := NewMemory(bs, uint64(g)*regionBlocks)
			buf := make([]byte, ioBlocks*bs)
			for w := 0; w < g; w++ { // materialise, so the timed part is copies
				for lba := uint64(0); lba < regionBlocks; lba += extentBlocks {
					if err := m.WriteBlocks(buf[:bs], uint64(w)*regionBlocks+lba); err != nil {
						b.Fatal(err)
					}
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
						if err := m.WriteBlocks(buf, lba); err != nil {
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
