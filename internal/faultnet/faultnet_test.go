package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"nvmeopf/internal/simnet"
)

// pipePair returns two ends of a TCP loopback connection, the left one
// wrapped under a fresh injector.
func pipePair(t *testing.T, inj *Injector) (*Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	cl, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { cl.Close(); r.c.Close() })
	return Wrap(cl, inj), r.c
}

func TestTransparentByDefault(t *testing.T) {
	inj := NewInjector(1)
	a, b := pipePair(t, inj)
	msg := []byte("hello fabric")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("payload altered with zero faults: %q", got)
	}
}

func TestLatencyInjection(t *testing.T) {
	inj := NewInjector(1)
	inj.Set(DirSend, Faults{Latency: 50 * time.Millisecond})
	a, b := pipePair(t, inj)
	start := time.Now()
	go func() { a.Write([]byte("x")) }()
	buf := make([]byte, 1)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 45*time.Millisecond {
		t.Fatalf("write arrived after %v; want >= ~50ms injected latency", d)
	}
}

func TestBandwidthCapPacesWrites(t *testing.T) {
	inj := NewInjector(1)
	// 64 KiB at 256 KiB/s should take ~250ms.
	inj.Set(DirSend, Faults{BandwidthBPS: 256 << 10})
	a, b := pipePair(t, inj)
	go io.Copy(io.Discard, b)
	start := time.Now()
	if _, err := a.Write(make([]byte, 64<<10)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 200*time.Millisecond {
		t.Fatalf("64KiB at 256KiB/s took %v; want >= ~250ms", d)
	}
}

func TestPartialWritesChunked(t *testing.T) {
	inj := NewInjector(1)
	inj.Set(DirSend, Faults{MaxChunk: 3})
	a, b := pipePair(t, inj)
	msg := bytes.Repeat([]byte{0xAB}, 32)
	go func() {
		if n, err := a.Write(msg); err != nil || n != len(msg) {
			t.Errorf("chunked write: n=%d err=%v", n, err)
		}
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("chunked write corrupted payload")
	}
}

func TestCorruptionFlipsExactlyOneByte(t *testing.T) {
	inj := NewInjector(7)
	inj.Set(DirSend, Faults{CorruptProb: 1.0})
	a, b := pipePair(t, inj)
	msg := bytes.Repeat([]byte{0x00}, 64)
	go a.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(b, got); err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		if got[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d bytes; want exactly 1", diff)
	}
	// The writer's own buffer must be untouched (corruption copies).
	for _, v := range msg {
		if v != 0 {
			t.Fatal("corruption mutated the caller's buffer")
		}
	}
}

func TestDroppedWriteReportsSuccess(t *testing.T) {
	inj := NewInjector(3)
	inj.Set(DirSend, Faults{DropProb: 1.0})
	a, b := pipePair(t, inj)
	if n, err := a.Write([]byte("vanishes")); err != nil || n != 8 {
		t.Fatalf("dropped write: n=%d err=%v; want full fake success", n, err)
	}
	b.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 8)
	if n, _ := b.Read(buf); n != 0 {
		t.Fatalf("dropped bytes reached the peer: %d", n)
	}
}

func TestResetAfterBytes(t *testing.T) {
	inj := NewInjector(1)
	inj.Set(DirSend, Faults{ResetAfterBytes: 10})
	a, b := pipePair(t, inj)
	go io.Copy(io.Discard, b)
	if _, err := a.Write(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	_, err := a.Write(make([]byte, 8))
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want ErrInjectedReset after byte budget, got %v", err)
	}
	// Both directions are dead now.
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("read after reset: %v", err)
	}
}

func TestResetAllUnblocksReader(t *testing.T) {
	inj := NewInjector(1)
	a, _ := pipePair(t, inj)
	var wg sync.WaitGroup
	wg.Add(1)
	errCh := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := a.Read(make([]byte, 1))
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	inj.ResetAll()
	wg.Wait()
	if err := <-errCh; !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("blocked read after ResetAll: %v", err)
	}
}

func TestLinkProfileOnSimnet(t *testing.T) {
	eng := simnet.NewEngine()
	link := simnet.NewLink(eng, "test", simnet.LinkConfig{
		BitsPerSec: 100e9, MTU: 9000, PacketOverhead: 78,
	})
	p := NewLinkProfile(42)
	p.Set(simnet.DirAtoB, Faults{Latency: time.Millisecond})
	link.SetFaults(p)

	var deliveredAt simnet.Time
	link.Send(simnet.DirAtoB, 4096, func() { deliveredAt = eng.Now() })
	eng.Run()
	if deliveredAt < simnet.Time(time.Millisecond) {
		t.Fatalf("fault latency not applied: delivered at %d", deliveredAt)
	}

	// Drops: message never delivers, stat counts it.
	p.Set(simnet.DirAtoB, Faults{DropProb: 1.0})
	delivered := false
	link.Send(simnet.DirAtoB, 4096, func() { delivered = true })
	eng.Run()
	if delivered {
		t.Fatal("dropped message was delivered")
	}
	if got := link.Stats(simnet.DirAtoB).Dropped; got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
}

// TestLinkProfileDeterminism: same seed, same decisions.
func TestLinkProfileDeterminism(t *testing.T) {
	run := func() []bool {
		p := NewLinkProfile(99)
		p.Set(simnet.DirAtoB, Faults{DropProb: 0.5})
		out := make([]bool, 32)
		for i := range out {
			_, out[i] = p.Apply(simnet.DirAtoB, 1024)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop decision %d diverged across identically seeded runs", i)
		}
	}
}
