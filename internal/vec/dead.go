package vec

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Dead is the set of a partition's rows that no longer answer searches:
// rows whose ID was deleted or upserted again since. Rows only ever join
// it; a fold replaces the whole partition, and with it the set, rather
// than clearing a bit, so a search still holding the old partition keeps
// hiding what it hid. The zero value is empty.
//
// The set is copied on write: Kill publishes a new DeadBits and never
// touches one a reader holds, so a search that takes its views of every
// partition before it starts sees one moment of the engine — an upsert's
// new row together with its old row's death, or neither.
type Dead struct {
	mu   sync.Mutex // serializes Kill
	bits atomic.Pointer[DeadBits]
}

// DeadBits is an immutable view of a Dead set, one bit per row. A nil
// view (no row dead) tests false everywhere at the cost of a length check.
type DeadBits []uint64

// Has reports whether row is dead.
func (b DeadBits) Has(row int) bool {
	w := row >> 6
	return w < len(b) && b[w]&(1<<(row&63)) != 0
}

// Bits returns the current view; nil while no row is dead.
func (d *Dead) Bits() DeadBits {
	if p := d.bits.Load(); p != nil {
		return *p
	}
	return nil
}

// Has reports whether row is dead now.
func (d *Dead) Has(row int) bool { return d.Bits().Has(row) }

// Count returns the number of dead rows.
func (d *Dead) Count() int {
	n := 0
	for _, w := range d.Bits() {
		n += bits.OnesCount64(w)
	}
	return n
}

// Kill marks row dead and reports whether it was live.
func (d *Dead) Kill(row int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.Bits()
	if old.Has(row) {
		return false
	}
	b := make(DeadBits, max(len(old), row>>6+1))
	copy(b, old)
	b[row>>6] |= 1 << (row & 63)
	d.bits.Store(&b)
	return true
}

// Rows returns the dead rows in ascending order.
func (d *Dead) Rows() []uint32 {
	var rows []uint32
	for w, x := range d.Bits() {
		for ; x != 0; x &= x - 1 {
			rows = append(rows, uint32(w<<6+bits.TrailingZeros64(x)))
		}
	}
	return rows
}
