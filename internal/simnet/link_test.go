package simnet

import (
	"reflect"
	"testing"
	"testing/quick"
)

func testLinkCfg() LinkConfig {
	return LinkConfig{
		BitsPerSec:       10e9,
		MTU:              1500,
		PacketOverhead:   78,
		PropagationDelay: 20_000,
	}
}

func TestLinkConfigValidate(t *testing.T) {
	good := testLinkCfg()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LinkConfig{
		{BitsPerSec: 0, MTU: 1500},
		{BitsPerSec: 1e9, MTU: 0},
		{BitsPerSec: 1e9, MTU: 1500, PacketOverhead: -1},
		{BitsPerSec: 1e9, MTU: 1500, PropagationDelay: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestPacketsFor(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "t", testLinkCfg())
	cases := map[int]int{0: 1, 1: 1, 1500: 1, 1501: 2, 4096: 3, 4500: 3, 4501: 4}
	for size, want := range cases {
		if got := l.PacketsFor(size); got != want {
			t.Errorf("PacketsFor(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestLinkSingleSendTiming(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "t", testLinkCfg())
	// 1000-byte message: 1 packet, wire = 1078 bytes = 8624 bits at
	// 10Gbps -> 862.4ns tx, +20us propagation.
	var deliveredAt Time = -1
	l.Send(DirAtoB, 1000, func() { deliveredAt = e.Now() })
	e.Run()
	want := Time(862) + 20_000 // float truncation of 862.4
	if deliveredAt != want {
		t.Fatalf("delivered at %d, want %d", deliveredAt, want)
	}
}

func TestLinkSerialization(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "t", testLinkCfg())
	var times []Time
	// Two same-size messages sent back-to-back must arrive one tx-time
	// apart: the second queues behind the first.
	for i := 0; i < 2; i++ {
		l.Send(DirAtoB, 1000, func() { times = append(times, e.Now()) })
	}
	e.Run()
	if len(times) != 2 {
		t.Fatal("missing deliveries")
	}
	gap := times[1] - times[0]
	if gap != 862 {
		t.Fatalf("gap = %d, want 862 (serialization)", gap)
	}
}

func TestLinkDirectionsIndependent(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "t", testLinkCfg())
	var aTob, bToa Time
	l.Send(DirAtoB, 1000, func() { aTob = e.Now() })
	l.Send(DirBtoA, 1000, func() { bToa = e.Now() })
	e.Run()
	if aTob != bToa {
		t.Fatalf("full duplex broken: %d vs %d", aTob, bToa)
	}
}

func TestLinkStats(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "t", testLinkCfg())
	l.Send(DirAtoB, 4096, nil)
	l.Send(DirAtoB, 0, nil)
	st := l.Stats(DirAtoB)
	if st.Messages != 2 {
		t.Errorf("messages = %d", st.Messages)
	}
	if st.Packets != 4 { // 3 for 4096B + 1 for the empty PDU
		t.Errorf("packets = %d", st.Packets)
	}
	wantBytes := int64(4096+3*78) + int64(0+78)
	if st.Bytes != wantBytes {
		t.Errorf("bytes = %d, want %d", st.Bytes, wantBytes)
	}
	if l.Stats(DirBtoA).Messages != 0 {
		t.Error("wrong-direction stats")
	}
}

func TestLinkBadDirectionPanics(t *testing.T) {
	e := NewEngine()
	l := NewLink(e, "t", testLinkCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	l.Send(2, 100, nil)
}

// TestLinkSendAtMatchesSend drives a CPU that feeds a link that feeds a
// second link, the shape of a simulated PDU's route, twice: once with an
// event per hop calling Send, once handing each message on when it is
// scheduled (Exec without a callback, then SendAt at the instant the
// upstream releases it). Every message must arrive at the same instant and
// in the same order.
func TestLinkSendAtMatchesSend(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		perHop, early := sendChain(seed, false), sendChain(seed, true)
		if len(perHop) != 300 {
			t.Fatalf("seed %d: %d of 300 messages arrived", seed, len(perHop))
		}
		if !reflect.DeepEqual(perHop, early) {
			t.Fatalf("seed %d: arrivals differ\nper hop: %v\nearly:   %v", seed, perHop, early)
		}
	}
}

type arrival struct {
	msg int
	at  Time
}

func sendChain(seed uint64, early bool) []arrival {
	e := NewEngine()
	rng := NewRand(seed)
	cpu := NewCPU(e, "cpu", testCPUCfg())
	a := NewLink(e, "a", testLinkCfg())
	b := NewLink(e, "b", testLinkCfg())
	var got []arrival
	for i := 0; i < 300; i++ {
		size, cost := int(rng.Int63n(9000)), rng.Int63n(3000)
		deliver := func() { got = append(got, arrival{i, e.Now()}) }
		// Submissions land in bursts, so the CPU and both links queue.
		e.At(rng.Int63n(50)*10_000, func() {
			if early {
				at := cpu.Exec(cost, nil)
				at = a.SendAt(DirAtoB, size, at, nil)
				b.SendAt(DirAtoB, size, at, deliver)
				return
			}
			cpu.Exec(cost, func() {
				a.Send(DirAtoB, size, func() { b.Send(DirAtoB, size, deliver) })
			})
		})
	}
	e.Run()
	return got
}

// TestLinkSendAtRejectsOutOfOrderHandOff: a hand-off before the previous
// one on its direction, or before the clock, panics; the other direction
// is independent.
func TestLinkSendAtRejectsOutOfOrderHandOff(t *testing.T) {
	cases := map[string]func(e *Engine, l *Link){
		"earlier hand-off": func(e *Engine, l *Link) {
			l.SendAt(DirAtoB, 100, 500, nil)
			l.SendAt(DirAtoB, 100, 499, nil)
		},
		"send behind a hand-off": func(e *Engine, l *Link) {
			l.SendAt(DirBtoA, 100, 500, nil)
			l.Send(DirBtoA, 100, nil)
		},
		"before the clock": func(e *Engine, l *Link) {
			e.At(1000, func() { l.SendAt(DirAtoB, 100, 999, nil) })
			e.Run()
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			l := NewLink(e, "t", testLinkCfg())
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			fn(e, l)
		})
	}
	e := NewEngine()
	l := NewLink(e, "t", testLinkCfg())
	l.SendAt(DirAtoB, 100, 500, nil)
	l.SendAt(DirAtoB, 100, 500, nil) // the same instant is in order
	l.Send(DirBtoA, 100, nil)
}

// Property: N back-to-back sends of the same size arrive exactly N*txTime
// after the first tx begins (conservation: the link never creates or
// destroys bandwidth).
func TestLinkConservationProperty(t *testing.T) {
	f := func(nRaw uint8, sizeRaw uint16) bool {
		n := int(nRaw%20) + 1
		size := int(sizeRaw%8192) + 1
		e := NewEngine()
		l := NewLink(e, "t", testLinkCfg())
		var last Time
		for i := 0; i < n; i++ {
			l.Send(DirAtoB, size, func() { last = e.Now() })
		}
		e.Run()
		packets := int64(l.PacketsFor(size))
		tx := l.txTime(int64(size) + packets*int64(l.cfg.PacketOverhead))
		want := Time(n)*tx + l.cfg.PropagationDelay
		// Integer truncation of per-message tx can accumulate at most
		// n nanoseconds of slack.
		diff := last - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= Time(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
