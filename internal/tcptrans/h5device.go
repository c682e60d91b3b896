package tcptrans

import (
	"fmt"

	"nvmeopf/internal/hdf5"
	"nvmeopf/internal/hostqp"
	"nvmeopf/internal/nvme"
	"nvmeopf/internal/proto"
)

// connDevice exposes a partition of a TCP target's namespace as an
// hdf5.Device: dataset I/O inherits the connection class, metadata is
// tagged latency-sensitive. Conn performs its own queue-depth flow
// control and idle-draining, so no quiesce hook is needed here.
type connDevice struct {
	c      *Conn
	base   uint64
	blocks uint64
	bs     uint32
}

// H5Device exposes the partition [base, base+blocks) of the connection's
// namespace as a device for the mini-HDF5 library. blocks == 0 means
// "through the end of the namespace".
func (c *Conn) H5Device(base, blocks uint64) (hdf5.Device, error) {
	bs := c.BlockSize()
	cap := c.Capacity()
	if bs == 0 || cap == 0 {
		return nil, fmt.Errorf("tcptrans: namespace geometry unknown (not connected?)")
	}
	if base >= cap {
		return nil, fmt.Errorf("tcptrans: partition base %d beyond capacity %d", base, cap)
	}
	if blocks == 0 {
		blocks = cap - base
	}
	if base+blocks > cap {
		return nil, fmt.Errorf("tcptrans: partition [%d,+%d) beyond capacity %d", base, blocks, cap)
	}
	return &connDevice{c: c, base: base, blocks: blocks, bs: bs}, nil
}

// BlockSize implements hdf5.Device.
func (d *connDevice) BlockSize() uint32 { return d.bs }

// NumBlocks implements hdf5.Device.
func (d *connDevice) NumBlocks() uint64 { return d.blocks }

func (d *connDevice) prioFor(meta bool) proto.Priority {
	if meta {
		return proto.PrioLatencySensitive
	}
	return 0 // inherit connection class
}

// ReadAsync implements hdf5.Device.
func (d *connDevice) ReadAsync(lba uint64, blocks uint32, meta bool, done func([]byte, error)) {
	if blocks == 0 || lba+uint64(blocks) > d.blocks {
		done(nil, fmt.Errorf("tcptrans: partition read [%d,+%d) out of range", lba, blocks))
		return
	}
	// done keeps the bytes (the HDF5 layer parses and caches them), so the
	// destination is its own allocation, not a buffer the connection reuses.
	err := d.c.Submit(hostqp.IO{
		Op: nvme.OpRead, LBA: d.base + lba, Blocks: blocks, Prio: d.prioFor(meta),
		Data: make([]byte, int(blocks)*int(d.bs)),
		Done: func(r hostqp.Result) {
			if !r.Status.OK() {
				done(nil, fmt.Errorf("tcptrans: read failed: %v", r.Status))
				return
			}
			done(r.Data, nil)
		},
	})
	if err != nil {
		done(nil, err)
	}
}

// WriteAsync implements hdf5.Device.
func (d *connDevice) WriteAsync(lba uint64, data []byte, meta bool, done func(error)) {
	blocks := uint32(uint64(len(data)) / uint64(d.bs))
	if len(data) == 0 || uint64(len(data))%uint64(d.bs) != 0 || lba+uint64(blocks) > d.blocks {
		done(fmt.Errorf("tcptrans: partition write (%dB at %d) invalid", len(data), lba))
		return
	}
	err := d.c.Submit(hostqp.IO{
		Op: nvme.OpWrite, LBA: d.base + lba, Blocks: blocks, Data: data, Prio: d.prioFor(meta),
		Done: func(r hostqp.Result) {
			if !r.Status.OK() {
				done(fmt.Errorf("tcptrans: write failed: %v", r.Status))
				return
			}
			done(nil)
		},
	})
	if err != nil {
		done(err)
	}
}
