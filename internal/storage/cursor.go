// RLECursor: positional access over a run-length-coded column tuned for
// mostly-ascending access patterns. Value(i) binary-searches per call,
// which is exactly wrong for the selection-vector consumers (predicate
// refinement, typed aggregation): their positions ascend within a morsel
// and jump only at morsel boundaries, so the cursor stays O(1) inside a
// run, walks forward a few runs on short jumps, and re-seeks by binary
// search only on long or backward jumps (workers claim morsels out of
// order, and a caller's selection need not ascend — correct at any
// position order, just not O(1)).
package storage

import "sort"

// cursorWalkLimit bounds the linear forward walk before the cursor gives
// up and binary-searches; short jumps (the ascending common case) stay
// cheap without making adversarial jump patterns O(runs) per access.
const cursorWalkLimit = 8

// RLECursor is a stateful positional reader over an RLEIntColumn. The zero
// value is not usable; obtain one from RLEIntColumn.Cursor. Cursors are
// cheap to copy and independent, so each worker of a parallel operator
// keeps its own. Positions passed to At must be in [0, Len()).
type RLECursor struct {
	vals []int64
	ends []int
	r    int   // current run index (-1 before first access)
	lo   int   // first row of the current run
	hi   int   // exclusive end of the current run
	v    int64 // value of the current run
}

// Cursor returns a cursor positioned before the first row.
func (c *RLEIntColumn) Cursor() RLECursor {
	return RLECursor{vals: c.vals, ends: c.ends, r: -1}
}

// At returns the value at row i: O(1) while i stays in the current run,
// O(runs crossed) for short forward jumps, O(log runs) otherwise.
func (cur *RLECursor) At(i int) int64 {
	if i < cur.lo || i >= cur.hi {
		cur.seek(i)
	}
	return cur.v
}

// Run returns the index of the run the last At resolved (-1 before the
// first access). Callers that evaluate something once per run — predicate
// verdicts, group keys — compare it across At calls to detect run changes.
func (cur *RLECursor) Run() int { return cur.r }

func (cur *RLECursor) seek(i int) {
	if i >= cur.hi && cur.r >= 0 {
		for step := 0; step < cursorWalkLimit && cur.r+1 < len(cur.ends); step++ {
			cur.r++
			cur.lo, cur.hi = cur.hi, cur.ends[cur.r]
			if i < cur.hi {
				cur.v = cur.vals[cur.r]
				return
			}
		}
	}
	cur.r = sort.SearchInts(cur.ends, i+1)
	cur.lo = startOf(cur.ends, cur.r)
	cur.hi = cur.ends[cur.r]
	cur.v = cur.vals[cur.r]
}
