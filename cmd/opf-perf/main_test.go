package main

import (
	"testing"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/tcptrans"
)

// TestRegionsTileTheNamespace: the capacity a connection learns in its
// handshake is split into equal regions that sit side by side from block
// 0 and never run past the namespace, however many connections share it.
func TestRegionsTileTheNamespace(t *testing.T) {
	dev, err := bdev.NewMemory(4096, 1000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tcptrans.Listen("127.0.0.1:0", tcptrans.ServerConfig{Device: dev, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := tcptrans.Dial(srv.Addr(), hostqp.Config{Class: proto.PrioLatencySensitive, Window: 1, QueueDepth: 1, NSID: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	capacity := conn.Capacity()
	if capacity != 1000 {
		t.Fatalf("Capacity() = %d, want the device's 1000 blocks", capacity)
	}
	for _, n := range []int{1, 3, 4, 5, 7} {
		var next uint64
		for i := 0; i < n; i++ {
			start, blocks := region(i, n, capacity)
			if start != next || blocks != capacity/uint64(n) {
				t.Fatalf("%d connections: region %d = [%d, %d), want [%d, %d)",
					n, i, start, start+blocks, next, next+capacity/uint64(n))
			}
			next = start + blocks
		}
		if next > capacity || capacity-next >= uint64(n) {
			t.Fatalf("%d connections end at block %d of %d: past the end, or a region's worth unused", n, next, capacity)
		}
	}
}
