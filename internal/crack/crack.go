// Package crack implements adaptive indexing by database cracking, the
// engine-layer technique the tutorial surveys in depth [26,29]: the first
// queries on a column physically reorganize ("crack") a copy of it around
// the requested value ranges, so the index is built incrementally as a side
// effect of query processing, with no upfront tuning.
//
// Three variants are provided:
//
//   - Standard cracking [29]: crack exactly at the query bounds.
//   - Stochastic cracking [23] (DDR-style): additionally crack large pieces
//     at random pivots so skewed/sequential workloads cannot starve
//     convergence.
//   - Hybrid crack-sort [33]: pieces that shrink below a threshold are
//     sorted in place, after which cracks inside them are free binary
//     searches.
//
// Updates are absorbed adaptively [30] with a pending-insert buffer that is
// ripple-merged into the cracked array, and tombstone deletes.
//
// Concurrency control is per index, the granularity the engine needs for
// multi-session exploration: every probe runs inside a single critical
// section of the index RWMutex. A probe whose bounds already coincide with
// existing cuts — the common case once the index has converged on the
// workload's ranges — holds only the read lock, so any number of such
// probes proceed in parallel. Only a probe that must physically reorganize
// the column escalates to the write lock [22]. Holding one lock for the
// whole probe (position lookup AND row collection) matters: with separate
// acquisitions a pending-buffer merge between them can shift cut positions
// and make the collection read rows that no longer satisfy the range.
package crack

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"dex/internal/fault"
)

// fpEscalate injects faults at the crack write-lock escalation: the moment
// a probe gives up on the converged read path and queues for exclusive
// access. Latency policies here simulate reorganization stalls (and drive
// the degradation contract); error policies make the probe fail before it
// touches the column, which must never corrupt the index.
var fpEscalate = fault.Register("crack/escalate")

// Variant selects the cracking algorithm.
type Variant uint8

// Cracking variants.
const (
	Standard Variant = iota
	Stochastic
	HybridSort
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Standard:
		return "standard"
	case Stochastic:
		return "stochastic"
	case HybridSort:
		return "hybrid-sort"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// Options configures an Index.
type Options struct {
	Variant Variant
	// StochasticMin is the piece size above which the Stochastic variant
	// introduces random pivot cracks before cracking at the query bound.
	StochasticMin int
	// SortMin is the piece size at or below which the HybridSort variant
	// sorts a piece on first touch.
	SortMin int
	// MaxPending is the pending-update buffer size that triggers a merge.
	MaxPending int
	// Seed seeds the random pivot generator (Stochastic variant).
	Seed int64
}

func (o *Options) fill() {
	if o.StochasticMin <= 0 {
		o.StochasticMin = 1 << 10
	}
	if o.SortMin <= 0 {
		o.SortMin = 1 << 10
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 1 << 12
	}
}

// cut is a crack boundary: rows at positions < pos have value < val,
// rows at positions >= pos have value >= val.
type cut[T cmp.Ordered] struct {
	val T
	pos int
}

// Index is a cracker index over a column of any ordered type (integers in
// the classic experiments, but floats and strings crack identically). It
// owns a reordered copy of the values plus the aligned original row
// identifiers. IntIndex aliases the common instantiation.
type Index[T cmp.Ordered] struct {
	mu      sync.RWMutex
	vals    []T
	rows    []int
	cuts    []cut[T] // sorted by val (and pos)
	sorted  []span
	opt     Options
	rng     *rand.Rand
	nextRow int
	pending []pendingIns[T]
	dead    map[int]bool // tombstoned row ids
	// stats
	cracksDone int
	mergesDone int
}

// IntIndex is the classic integer-column cracker.
type IntIndex = Index[int64]

type pendingIns[T cmp.Ordered] struct {
	val T
	row int
}

// span marks a [lo,hi) position range that is known to be sorted.
type span struct{ lo, hi int }

// New builds a cracker index over col. The slice is copied; original row
// ids are the positions in col. A NaN — the engine's NULL — satisfies no
// range, so its row is left out of the index: every probe is a range, and
// a NaN pivot would compare neither below nor at-or-above and stall the
// partition loop.
func New[T cmp.Ordered](col []T, opt Options) *Index[T] {
	opt.fill()
	vals := make([]T, len(col))
	rows := make([]int, len(col))
	n := 0
	for i, v := range col {
		if v == v {
			vals[n], rows[n] = v, i
			n++
		}
	}
	return &Index[T]{
		vals:    vals[:n],
		rows:    rows[:n],
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		nextRow: len(col),
		dead:    make(map[int]bool),
	}
}

// Len returns the number of live indexed values (cracked array plus
// pending, minus tombstones); NaN rows are not indexed.
func (ix *Index[T]) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.vals) + len(ix.pending) - len(ix.dead)
}

// NumPieces returns the number of pieces the column is currently cracked
// into (cuts + 1).
func (ix *Index[T]) NumPieces() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.cuts) + 1
}

// Cracks returns how many physical partition steps have been performed.
func (ix *Index[T]) Cracks() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.cracksDone
}

// Merges returns how many pending-buffer merges have been performed.
func (ix *Index[T]) Merges() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.mergesDone
}

// LockMode classifies how a probe was served: under the shared read lock
// (bounds coincided with existing cuts, no physical work) or under the
// exclusive write lock (the probe reorganized the column).
type LockMode uint8

// Probe lock modes.
const (
	LockRead LockMode = iota
	LockWrite
)

// String names the lock mode ("read"/"write").
func (m LockMode) String() string {
	if m == LockRead {
		return "read"
	}
	return "write"
}

// ProbeStats describes one probe: the lock mode it ran under and a
// snapshot of the index shape (pieces, cumulative cracks) taken inside
// the probe's own critical section — so the numbers belong to this probe,
// not to whichever concurrent probe finished last.
type ProbeStats struct {
	Lock   LockMode
	Pieces int
	Cracks int
}

// Probe returns the row ids whose value v satisfies lo <= v < hi, plus
// per-probe stats, cracking the underlying column at lo and hi when
// needed. The whole probe is one critical section: read-locked when both
// bounds are already cuts (the converged path — unlimited concurrent
// probes), write-locked when it must reorganize. The error is non-nil only
// when the crack/escalate failpoint is armed and fires.
func (ix *Index[T]) Probe(lo, hi T) ([]int, ProbeStats, error) {
	return ix.ProbeAppend(nil, lo, hi)
}

// ProbeAppend is Probe writing the row ids into dst's backing array, from
// its start, when it is large enough: a caller that probes query after
// query hands the previous result back and no probe allocates a
// table-sized vector. The returned slice never aliases index state.
func (ix *Index[T]) ProbeAppend(dst []int, lo, hi T) ([]int, ProbeStats, error) {
	if lo >= hi {
		ix.mu.RLock()
		st := ix.statsLocked(LockRead)
		ix.mu.RUnlock()
		return dst[:0], st, nil
	}
	return ix.probe(dst, bounds[T]{lo: lo, hi: hi})
}

// ProbeFrom is ProbeAppend with no upper bound: the row ids whose value v
// satisfies lo <= v, pending inserts included. It cracks at lo only, so it
// reaches the largest value of the type (MaxInt64, +Inf), which no
// half-open bound can include.
func (ix *Index[T]) ProbeFrom(dst []int, lo T) ([]int, ProbeStats, error) {
	return ix.probe(dst, bounds[T]{lo: lo, top: true})
}

func (ix *Index[T]) probe(dst []int, b bounds[T]) ([]int, ProbeStats, error) {
	if rows, st, ok := ix.tryReadProbe(dst, b); ok {
		return rows, st, nil
	}
	if err := fpEscalate.Hit(); err != nil {
		return dst[:0], ProbeStats{Lock: LockWrite}, err
	}
	rows, st := ix.writeProbe(dst, b)
	return rows, st, nil
}

// Query returns the row ids whose value v satisfies lo <= v < hi.
// As a side effect it cracks the underlying column at lo and hi. It is
// Probe without the stats and without the escalation failpoint (bench
// loops and baselines that must not be perturbed by armed faults).
func (ix *Index[T]) Query(lo, hi T) []int {
	if lo >= hi {
		return nil
	}
	b := bounds[T]{lo: lo, hi: hi}
	if rows, _, ok := ix.tryReadProbe(nil, b); ok {
		return rows
	}
	rows, _ := ix.writeProbe(nil, b)
	return rows
}

// bounds is a probe's value range: lo <= v < hi, or lo <= v when top.
type bounds[T cmp.Ordered] struct {
	lo, hi T
	top    bool
}

func (b bounds[T]) has(v T) bool { return v >= b.lo && (b.top || v < b.hi) }

// tryReadProbe serves the probe entirely under the read lock when its
// bounds are existing cuts; ok reports whether it could.
func (ix *Index[T]) tryReadProbe(dst []int, b bounds[T]) ([]int, ProbeStats, bool) {
	ix.mu.RLock()
	pa, oka := ix.lookupCut(b.lo)
	pb, okb := len(ix.vals), true
	if !b.top {
		pb, okb = ix.lookupCut(b.hi)
	}
	if !oka || !okb {
		ix.mu.RUnlock()
		return nil, ProbeStats{}, false
	}
	rows := ix.collectLocked(dst, pa, pb, b)
	st := ix.statsLocked(LockRead)
	ix.mu.RUnlock()
	return rows, st, true
}

// writeProbe cracks at the bounds and collects rows under the write lock.
func (ix *Index[T]) writeProbe(dst []int, b bounds[T]) ([]int, ProbeStats) {
	ix.mu.Lock()
	pa := ix.crackAt(b.lo)
	pb := len(ix.vals)
	if !b.top {
		pb = ix.crackAt(b.hi)
	}
	rows := ix.collectLocked(dst, pa, pb, b)
	st := ix.statsLocked(LockWrite)
	ix.mu.Unlock()
	return rows, st
}

// collectLocked gathers the live row ids at positions [pa, pb) plus the
// pending inserts inside b into dst[:0], replacing it when it is too
// short. Caller holds at least the read lock.
func (ix *Index[T]) collectLocked(dst []int, pa, pb int, b bounds[T]) []int {
	out := dst[:0]
	if need := pb - pa + len(ix.pending)/4; cap(out) < need {
		out = make([]int, 0, need)
	}
	for i := pa; i < pb; i++ {
		if !ix.dead[ix.rows[i]] {
			out = append(out, ix.rows[i])
		}
	}
	for _, p := range ix.pending {
		if b.has(p.val) && !ix.dead[p.row] {
			out = append(out, p.row)
		}
	}
	return out
}

// statsLocked snapshots the index shape. Caller holds at least the read lock.
func (ix *Index[T]) statsLocked(mode LockMode) ProbeStats {
	return ProbeStats{Lock: mode, Pieces: len(ix.cuts) + 1, Cracks: ix.cracksDone}
}

// Count returns how many values satisfy lo <= v < hi, cracking as a side
// effect but without materializing row ids. Like Probe it is one critical
// section, read-locked on the converged path.
func (ix *Index[T]) Count(lo, hi T) int {
	if lo >= hi {
		return 0
	}
	ix.mu.RLock()
	pa, oka := ix.lookupCut(lo)
	pb, okb := ix.lookupCut(hi)
	if oka && okb {
		n := ix.countLocked(pa, pb, lo, hi)
		ix.mu.RUnlock()
		return n
	}
	ix.mu.RUnlock()
	ix.mu.Lock()
	pa = ix.crackAt(lo)
	pb = ix.crackAt(hi)
	n := ix.countLocked(pa, pb, lo, hi)
	ix.mu.Unlock()
	return n
}

// countLocked counts live rows at positions [pa, pb) plus pending inserts
// in [lo, hi). Caller holds at least the read lock.
func (ix *Index[T]) countLocked(pa, pb int, lo, hi T) int {
	n := 0
	if len(ix.dead) == 0 {
		n = pb - pa
	} else {
		for i := pa; i < pb; i++ {
			if !ix.dead[ix.rows[i]] {
				n++
			}
		}
	}
	for _, p := range ix.pending {
		if p.val >= lo && p.val < hi && !ix.dead[p.row] {
			n++
		}
	}
	return n
}

// lookupCut returns the position of an existing cut at v, or where a fully
// sorted piece makes the position derivable without physical work.
func (ix *Index[T]) lookupCut(v T) (int, bool) {
	i := sort.Search(len(ix.cuts), func(i int) bool { return ix.cuts[i].val >= v })
	if i < len(ix.cuts) && ix.cuts[i].val == v {
		return ix.cuts[i].pos, true
	}
	return 0, false
}

// pieceAt returns the piece [plo,phi) that value v falls into, given cuts.
func (ix *Index[T]) pieceAt(v T) (plo, phi int) {
	plo, phi = 0, len(ix.vals)
	i := sort.Search(len(ix.cuts), func(i int) bool { return ix.cuts[i].val > v })
	// cuts[i-1].val <= v < cuts[i].val
	if i > 0 {
		plo = ix.cuts[i-1].pos
	}
	if i < len(ix.cuts) {
		phi = ix.cuts[i].pos
	}
	return plo, phi
}

// insertCut records a new crack boundary.
func (ix *Index[T]) insertCut(v T, pos int) {
	i := sort.Search(len(ix.cuts), func(i int) bool { return ix.cuts[i].val >= v })
	if i < len(ix.cuts) && ix.cuts[i].val == v {
		return
	}
	ix.cuts = append(ix.cuts, cut[T]{})
	copy(ix.cuts[i+1:], ix.cuts[i:])
	ix.cuts[i] = cut[T]{val: v, pos: pos}
}

// crackAt ensures a cut exists at value v and returns its position.
// Caller holds the write lock.
func (ix *Index[T]) crackAt(v T) int {
	if p, ok := ix.lookupCut(v); ok {
		return p
	}
	plo, phi := ix.pieceAt(v)

	if ix.isSorted(plo, phi) {
		// Free crack: binary search inside the sorted piece.
		pos := plo + sort.Search(phi-plo, func(i int) bool { return ix.vals[plo+i] >= v })
		ix.insertCut(v, pos)
		return pos
	}

	if ix.opt.Variant == Stochastic {
		// DDR-style: split oversized pieces at random pivots first, then
		// crack at the query bound inside the shrunken piece.
		for phi-plo > ix.opt.StochasticMin {
			pivot := ix.vals[plo+ix.rng.Intn(phi-plo)]
			mid := ix.partition(plo, phi, pivot)
			if mid == plo || mid == phi {
				break // degenerate pivot (all equal); stop splitting
			}
			ix.insertCut(pivot, mid)
			if v < pivot {
				phi = mid
			} else {
				plo = mid
			}
		}
	}

	if ix.opt.Variant == HybridSort && phi-plo <= ix.opt.SortMin && phi > plo {
		ix.sortPiece(plo, phi)
		pos := plo + sort.Search(phi-plo, func(i int) bool { return ix.vals[plo+i] >= v })
		ix.insertCut(v, pos)
		return pos
	}

	pos := ix.partition(plo, phi, v)
	ix.insertCut(v, pos)
	return pos
}

// partition reorders positions [lo,hi) so values < pivot precede values
// >= pivot, returning the split position.
func (ix *Index[T]) partition(lo, hi int, pivot T) int {
	ix.cracksDone++
	vals, rows := ix.vals, ix.rows
	i, j := lo, hi-1
	for i <= j {
		for i <= j && vals[i] < pivot {
			i++
		}
		for i <= j && vals[j] >= pivot {
			j--
		}
		if i < j {
			vals[i], vals[j] = vals[j], vals[i]
			rows[i], rows[j] = rows[j], rows[i]
			i++
			j--
		}
	}
	return i
}

// sortPiece sorts positions [lo,hi) and records the span as sorted.
func (ix *Index[T]) sortPiece(lo, hi int) {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ix.vals[idx[a]] < ix.vals[idx[b]] })
	vtmp := make([]T, hi-lo)
	rtmp := make([]int, hi-lo)
	for i, p := range idx {
		vtmp[i] = ix.vals[p]
		rtmp[i] = ix.rows[p]
	}
	copy(ix.vals[lo:hi], vtmp)
	copy(ix.rows[lo:hi], rtmp)
	ix.sorted = append(ix.sorted, span{lo, hi})
}

// isSorted reports whether [lo,hi) lies inside a span previously sorted.
func (ix *Index[T]) isSorted(lo, hi int) bool {
	for _, s := range ix.sorted {
		if s.lo <= lo && hi <= s.hi {
			return true
		}
	}
	return false
}
