package main

import (
	"strings"
	"testing"

	"nvmeopf/internal/bdev"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/tcptrans"
)

// TestRegionsMustFitTheNamespace: the capacity a connection learns in its
// handshake bounds the regions opf-perf hands out. On a 1024-block device
// four 256-block regions fit and a fifth is refused, naming the connection
// and the capacity.
func TestRegionsMustFitTheNamespace(t *testing.T) {
	dev, err := bdev.NewMemory(4096, 1024)
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
	if capacity != 1024 {
		t.Fatalf("Capacity() = %d, want the device's 1024 blocks", capacity)
	}
	for i := 0; i < 4; i++ {
		if err := checkRegion(i, 256, capacity); err != nil {
			t.Fatalf("connection %d refused: %v", i, err)
		}
	}
	err = checkRegion(4, 256, capacity)
	if err == nil {
		t.Fatal("a fifth 256-block region on a 1024-block namespace was accepted")
	}
	for _, want := range []string{"connection 4", "[1024, 1280)", "1024-block"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
