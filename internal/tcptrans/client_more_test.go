package tcptrans

import (
	"bytes"
	"testing"

	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
	"nvmeopf/internal/targetqp"
)

// TestWriteGeometry: Write sizes its command from the handshake's block
// size, and refuses a payload that is not a whole number of blocks.
func TestWriteGeometry(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioLatencySensitive, 1, 4)
	data := bytes.Repeat([]byte{0x3C}, 8192)
	if err := c.Write(10, data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(10, 2, 0)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Write round trip: %v", err)
	}
	if err := c.Write(0, data[:100], 0); err == nil {
		t.Error("Write with partial block accepted")
	}
	if err := c.Write(0, nil, 0); err == nil {
		t.Error("empty Write accepted")
	}
}

func TestDrainNextForcesEarlyCompletion(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioThroughputCritical, 64, 128)
	done := make(chan struct{}, 4)
	for i := 0; i < 3; i++ {
		if err := c.Submit(IOWrite(uint64(i), func() { done <- struct{}{} })); err != nil {
			t.Fatal(err)
		}
	}
	// Partial window (3 < 64): force the next submission to drain rather
	// than waiting for the 2ms idle timer.
	c.DrainNext()
	if err := c.Submit(IOWrite(3, func() { done <- struct{}{} })); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	st := c.Stats()
	if st.Completed < 4 {
		t.Fatalf("completed = %d", st.Completed)
	}
}

// IOWrite builds a 4K write IO with a completion hook (test helper).
func IOWrite(lba uint64, fn func()) hostqp.IO {
	return hostqp.IO{
		Op:     nvme.OpWrite,
		LBA:    lba,
		Blocks: 1,
		Data:   make([]byte, 4096),
		Done:   func(hostqp.Result) { fn() },
	}
}

func TestStatsAfterClose(t *testing.T) {
	srv := startServer(t, targetqp.ModeOPF)
	c := dial(t, srv, proto.PrioLatencySensitive, 1, 1)
	if err := c.Write(0, make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Post-close queries return zero values, not hangs.
	_ = c.Stats()
	_ = c.Tenant()
	if c.BlockSize() != 0 {
		t.Error("block size after close should be 0")
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestServerDoubleClose(t *testing.T) {
	srv, err := NewMemoryServer("127.0.0.1:0", targetqp.ModeOPF, 4096, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if st := srv.Stats(); st.Connections != 0 {
		t.Errorf("stats after close: %+v", st)
	}
}
