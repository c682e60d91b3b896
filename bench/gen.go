package main

import "encoding/binary"

// The generator is a pure function of (seed, stream, request index): the
// program under test only ever sees the I/Os it yields, and the in-process
// pipeline replays the same first requests the live run issued.

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// lbaAt returns the start LBA of stream's i-th request. Stream k owns
// blocks [k*regionBlocks, (k+1)*regionBlocks), so readers never see a
// block a writer restamped.
func lbaAt(seed uint64, stream int, s *streamSpec, i uint64) uint64 {
	slots := uint64(regionBlocks / s.blocks)
	h := mix64(seed ^ uint64(stream+1)<<56)
	var slot uint64
	if s.sequential {
		slot = (h + i) % slots
	} else {
		slot = mix64(h+i) % slots
	}
	return uint64(stream)*regionBlocks + slot*uint64(s.blocks)
}

// Every block carries (LBA, tag) at its head and its tail, so a block
// landing at the wrong LBA, from another run's seed, or torn short of its
// end fails verification. Prefill tags with the seed, writes with its
// complement, so read-back can tell a write from the prefill.
const stampLen = 16

func prefillTag(seed uint64) uint64 { return seed }
func writeTag(seed uint64) uint64   { return ^seed }

func stampBlocks(buf []byte, lba, tag uint64) {
	for off := 0; off < len(buf); off += blockSize {
		putStamp(buf[off:], lba, tag)
		putStamp(buf[off+blockSize-stampLen:], lba, tag)
		lba++
	}
}

func verifyBlocks(buf []byte, lba, tag uint64) bool {
	if len(buf) == 0 || len(buf)%blockSize != 0 {
		return false
	}
	for off := 0; off < len(buf); off += blockSize {
		if !isStamp(buf[off:], lba, tag) || !isStamp(buf[off+blockSize-stampLen:], lba, tag) {
			return false
		}
		lba++
	}
	return true
}

func putStamp(p []byte, lba, tag uint64) {
	binary.LittleEndian.PutUint64(p, lba)
	binary.LittleEndian.PutUint64(p[8:], tag)
}

func isStamp(p []byte, lba, tag uint64) bool {
	return binary.LittleEndian.Uint64(p) == lba && binary.LittleEndian.Uint64(p[8:]) == tag
}
