package crack

import (
	"errors"
	"fmt"
	"sort"
)

// ErrInvariant is returned by CheckInvariants when the cracked column
// violates a partition invariant.
var ErrInvariant = errors.New("crack: invariant violation")

// Insert adds a value to the index, returning the new row id. The value
// lands in the pending buffer; when the buffer exceeds MaxPending it is
// ripple-merged into the cracked column, preserving all cuts — the
// "merge gradually" strategy of updating a cracked database [30]. A NaN
// takes a row id but, as in New, is never indexed.
func (ix *Index[T]) Insert(v T) int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	row := ix.nextRow
	ix.nextRow++
	if v != v {
		return row
	}
	ix.pending = append(ix.pending, pendingIns[T]{val: v, row: row})
	if len(ix.pending) >= ix.opt.MaxPending {
		ix.mergePending()
	}
	return row
}

// Delete tombstones the row id of an indexed (non-NaN) value. It reports
// whether the row was live.
func (ix *Index[T]) Delete(row int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if row < 0 || row >= ix.nextRow || ix.dead[row] {
		return false
	}
	ix.dead[row] = true
	return true
}

// Flush forces the pending buffer to merge into the cracked column.
func (ix *Index[T]) Flush() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.mergePending()
}

// mergePending ripple-inserts every pending value into its piece.
// Caller holds the write lock.
func (ix *Index[T]) mergePending() {
	if len(ix.pending) == 0 {
		return
	}
	ix.mergesDone++
	// Sort pending descending by value so each ripple touches a suffix of
	// cuts that later (smaller) inserts shift consistently.
	sort.Slice(ix.pending, func(a, b int) bool { return ix.pending[a].val > ix.pending[b].val })
	for _, p := range ix.pending {
		ix.rippleInsert(p.val, p.row)
	}
	ix.pending = ix.pending[:0]
}

// rippleInsert grows the cracked array by one and shifts exactly one
// element per crossed piece (the classic cracking-update shuffle), keeping
// every cut valid. Sorted-piece spans at or beyond the insertion point are
// invalidated, since the inserted value is placed at an arbitrary slot.
func (ix *Index[T]) rippleInsert(v T, row int) {
	_, phi := ix.pieceAt(v)
	var zero T
	ix.vals = append(ix.vals, zero)
	ix.rows = append(ix.rows, 0)
	hole := len(ix.vals) - 1
	// Walk cuts right-to-left; every cut whose value exceeds v moves one
	// slot right, relocating the first element of its piece into the hole.
	// (Shifting by value, not position, matters when several cuts share a
	// position because of empty pieces: cuts with val <= v must stay put.)
	for i := len(ix.cuts) - 1; i >= 0; i-- {
		c := &ix.cuts[i]
		if c.val <= v {
			break
		}
		if c.pos < hole {
			ix.vals[hole] = ix.vals[c.pos]
			ix.rows[hole] = ix.rows[c.pos]
			hole = c.pos
		}
		c.pos++
	}
	ix.vals[hole] = v
	ix.rows[hole] = row
	// Invalidate sorted spans the ripple may have scrambled.
	kept := ix.sorted[:0]
	for _, s := range ix.sorted {
		if s.hi <= phi && s.hi <= hole {
			kept = append(kept, s)
		}
	}
	ix.sorted = kept
}

// CheckInvariants verifies that every cut partitions the column correctly
// (all values left of the cut are smaller, all values at or right of it are
// >= the cut value), that cut positions are monotone, and that sorted spans
// are truly sorted. It exists for tests and costs O(cuts * n).
func (ix *Index[T]) CheckInvariants() error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	lastPos := 0
	var lastVal T
	for i, c := range ix.cuts {
		if c.pos < 0 || c.pos > len(ix.vals) {
			return fmt.Errorf("cut %d pos %d out of range: %w", i, c.pos, ErrInvariant)
		}
		if i > 0 && (c.val <= lastVal || c.pos < lastPos) {
			return fmt.Errorf("cut %d (%v@%d) not monotone after (%v@%d): %w",
				i, c.val, c.pos, lastVal, lastPos, ErrInvariant)
		}
		for p := 0; p < c.pos; p++ {
			if ix.vals[p] >= c.val {
				return fmt.Errorf("val %v at %d >= cut %v@%d: %w", ix.vals[p], p, c.val, c.pos, ErrInvariant)
			}
		}
		for p := c.pos; p < len(ix.vals); p++ {
			if ix.vals[p] < c.val {
				return fmt.Errorf("val %v at %d < cut %v@%d: %w", ix.vals[p], p, c.val, c.pos, ErrInvariant)
			}
		}
		lastPos, lastVal = c.pos, c.val
	}
	for _, s := range ix.sorted {
		for p := s.lo + 1; p < s.hi && p < len(ix.vals); p++ {
			if ix.vals[p-1] > ix.vals[p] {
				return fmt.Errorf("sorted span [%d,%d) unsorted at %d: %w", s.lo, s.hi, p, ErrInvariant)
			}
		}
	}
	return nil
}
