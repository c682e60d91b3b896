package nvme

// MaxCIDs is the size of the 16-bit command-identifier space.
const MaxCIDs = 1 << 16

// Slots is a queue pair's request table: one slot per command identifier,
// indexed by the CID itself, as a controller indexes its preallocated
// request array. A nil slot is vacant.
//
// The table is sized by the queue depth the two ends negotiated, and a CID
// at or past that depth is out of range: Get and Delete report it vacant,
// Set refuses it. Nothing a peer puts in a CID field can therefore index
// outside the table — callers that must tell "vacant" from "never valid"
// ask InRange first. A table created with depth 0 (the peer advertised
// none) grows on demand instead, bounded by the CID space: at most 65536
// pointers however hostile the peer.
type Slots[T any] struct {
	slots []*T
	n     int
	depth int // negotiated bound; 0 means the whole CID space
}

// NewSlots returns a table for CIDs in [0, depth). depth <= 0 or past the
// CID space means "not negotiated": any CID is in range and the table
// grows as CIDs are used.
func NewSlots[T any](depth int) Slots[T] {
	if depth <= 0 || depth > MaxCIDs {
		return Slots[T]{}
	}
	return Slots[T]{slots: make([]*T, depth), depth: depth}
}

// InRange reports whether cid is one the negotiated depth allows.
func (s *Slots[T]) InRange(cid CID) bool { return s.depth == 0 || int(cid) < s.depth }

// Get returns the occupant of cid's slot, nil when vacant or out of range.
func (s *Slots[T]) Get(cid CID) *T {
	if int(cid) >= len(s.slots) {
		return nil
	}
	return s.slots[cid]
}

// Set stores v, which must not be nil, in cid's slot, replacing any
// occupant, and reports false — having stored nothing — when cid is out of
// range.
func (s *Slots[T]) Set(cid CID, v *T) bool {
	if int(cid) >= len(s.slots) {
		if s.depth != 0 {
			return false
		}
		// Grow to the next power of two that holds cid, so a peer walking
		// the CID space costs a logarithmic number of copies.
		n := max(16, len(s.slots))
		for n <= int(cid) {
			n *= 2
		}
		grown := make([]*T, n)
		copy(grown, s.slots)
		s.slots = grown
	}
	if s.slots[cid] == nil {
		s.n++
	}
	s.slots[cid] = v
	return true
}

// Delete vacates cid's slot and returns what it held (nil when it was
// vacant or out of range, so a double delete is harmless).
func (s *Slots[T]) Delete(cid CID) *T {
	v := s.Get(cid)
	if v != nil {
		s.slots[cid] = nil
		s.n--
	}
	return v
}

// Len returns the number of occupied slots.
func (s *Slots[T]) Len() int { return s.n }

// Cap returns one past the highest CID the table currently has a slot
// for; iterating [0, Cap) with Get visits every occupant in CID order.
func (s *Slots[T]) Cap() int { return len(s.slots) }
