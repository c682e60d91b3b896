package telemetry

import "nvmeopf/internal/proto"

// Class buckets the latency instruments by tenant class: the paper's
// LS/TC split plus this dialect's scavenger (best-effort) class.
// Legacy/normal traffic accounts under ClassTC: it shares the
// FIFO/batched execution path, so its latency belongs with the
// throughput-critical population, not the bypass one.
type Class uint8

// Classes.
const (
	ClassLS Class = iota
	ClassTC
	ClassScav
	numClasses
)

// String implements fmt.Stringer (the Prometheus label value).
func (c Class) String() string {
	switch c {
	case ClassLS:
		return "ls"
	case ClassScav:
		return "scavenger"
	default:
		return "tc"
	}
}

// ClassOf maps a wire priority to its latency class.
func ClassOf(p proto.Priority) Class {
	switch {
	case p.LatencySensitive():
		return ClassLS
	case p.Scavenger():
		return ClassScav
	default:
		return ClassTC
	}
}
