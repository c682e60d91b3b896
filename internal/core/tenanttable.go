package core

import "nvmeopf/internal/proto"

// TenantTable maps every possible TenantID to at most one *T: 256 lazily
// allocated pages of 256 pointers, so a lookup is two indexes — no hashing
// — and no 16-bit tenant ID, however it reached the caller, can index out
// of range. An untouched page reads as nil without allocating. The owners
// (a TargetPM, a targetqp.Target) run single-threaded on their reactor, so
// plain loads and stores suffice.
type TenantTable[T any] struct {
	pages [256]*[256]*T
	n     int
}

// Get returns tenant t's entry, nil when it has none.
func (v *TenantTable[T]) Get(t proto.TenantID) *T {
	pg := v.pages[t>>8]
	if pg == nil {
		return nil
	}
	return pg[t&0xff]
}

// Set stores x as tenant t's entry; a nil x removes the entry.
func (v *TenantTable[T]) Set(t proto.TenantID, x *T) {
	pg := v.pages[t>>8]
	if pg == nil {
		if x == nil {
			return
		}
		pg = new([256]*T)
		v.pages[t>>8] = pg
	}
	switch old := pg[t&0xff]; {
	case old == nil && x != nil:
		v.n++
	case old != nil && x == nil:
		v.n--
	}
	pg[t&0xff] = x
}

// Len returns the number of tenants holding an entry.
func (v *TenantTable[T]) Len() int { return v.n }
