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
// Every probe returns its row ids in ascending order, the order a scan of
// the column meets them: the probe marks its piece into a row-id bitmap and
// reads the bitmap forward. A caller that feeds the ids to a pipeline gets
// the answer a scan with the range as its WHERE clause gives, row for row,
// however far the index has cracked.
//
// The engine's cracked mode does not crack a whole column. It cracks
// inside a range partition it already has, the coarse-granular index of
// Schuhknecht, Jindal and Dittrich ("The Uncracked Pieces in Database
// Cracking", PVLDB 2013): the value index's equi-depth buckets are the top
// level, and an Index over the values of one of a bucket's sub-buckets
// alone is the bottom level, made once enough queries' bounds have fallen
// inside that sub-bucket. An Index
// knows nothing of that: its row ids are positions in the slice it was
// made from, which the engine maps back to table rows.
//
// Concurrency control is per index, the granularity the engine needs for
// multi-session exploration: every probe — rows or counts — runs inside a
// single critical section of the index RWMutex (within). A probe whose
// bounds already coincide with existing cuts — the common case once the
// index has converged on the workload's ranges — holds only the read lock,
// so any number of such probes proceed in parallel. Only a probe that must
// physically reorganize the column escalates to the write lock [22].
// Holding one lock for the whole probe (position lookup AND row
// collection) matters: with separate acquisitions a pending-buffer merge
// between them can shift cut positions and make the collection read rows
// that no longer satisfy the range.
package crack

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
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
	// live has bit r set while row r is indexed and not deleted. A NaN row
	// is never set; Delete clears the bit and leaves the value in vals or
	// pending as a tombstone, which tombs counts.
	live  []uint64
	tombs int
	// marks is a free list of all-zero row-id bitmaps for collectLocked,
	// under its own mutex because read-locked probes share it. Not a
	// sync.Pool: its per-P caches and GC sweeps would make what a probe
	// allocates differ from run to run.
	marksMu sync.Mutex
	marks   [][]uint64
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
	return newIndex(len(col), func(i int) T { return col[i] }, opt)
}

// NewAt is New over the values col[rows[0]], col[rows[1]], …: its row ids
// are positions in rows, which it does not keep.
func NewAt[T cmp.Ordered](col []T, rows []int, opt Options) *Index[T] {
	return newIndex(len(rows), func(i int) T { return col[rows[i]] }, opt)
}

// newIndex builds an index over the n values at(0), …, at(n-1).
func newIndex[T cmp.Ordered](n int, at func(int) T, opt Options) *Index[T] {
	opt.fill()
	vals := make([]T, n)
	rows := make([]int, n)
	live := make([]uint64, (n+63)/64)
	k := 0
	for i := range n {
		if v := at(i); v == v {
			vals[k], rows[k] = v, i
			live[i>>6] |= 1 << uint(i&63)
			k++
		}
	}
	return &Index[T]{
		vals:    vals[:k],
		rows:    rows[:k],
		opt:     opt,
		rng:     rand.New(rand.NewSource(opt.Seed)),
		nextRow: n,
		live:    live,
	}
}

// Len returns the number of live indexed values (cracked array plus
// pending, minus tombstones); NaN rows are not indexed.
func (ix *Index[T]) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.vals) + len(ix.pending) - ix.tombs
}

// isLive reports whether row r is indexed and not deleted. Caller holds
// at least the read lock.
func (ix *Index[T]) isLive(r int) bool { return ix.live[r>>6]>>uint(r&63)&1 != 0 }

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

// Probe returns the row ids whose value v satisfies lo <= v < hi, in
// ascending order, plus per-probe stats, cracking the underlying column at
// lo and hi when needed. The error is non-nil only when the crack/escalate
// failpoint is armed and fires.
func (ix *Index[T]) Probe(lo, hi T) ([]int, ProbeStats, error) {
	return ix.ProbeInto(nil, lo, hi)
}

// ProbeInto is Probe writing the row ids into dst[:0], which it replaces
// when it is too short; the result never aliases index state.
func (ix *Index[T]) ProbeInto(dst []int, lo, hi T) ([]int, ProbeStats, error) {
	return ix.probe(dst, bounds[T]{lo: lo, hi: hi}, true)
}

// ProbeFrom is ProbeInto with no upper bound: the rows with lo <= v,
// pending inserts included. It cracks at lo only, so it reaches the
// largest value of the type (MaxInt64, +Inf), which no half-open bound can
// include.
func (ix *Index[T]) ProbeFrom(dst []int, lo T) ([]int, ProbeStats, error) {
	return ix.probe(dst, bounds[T]{lo: lo, top: true}, true)
}

// Query returns the row ids whose value v satisfies lo <= v < hi, in
// ascending order. As a side effect it cracks the underlying column at lo and hi. It is
// Probe without the stats and without the escalation failpoint (bench
// loops and baselines that must not be perturbed by armed faults).
func (ix *Index[T]) Query(lo, hi T) []int {
	rows, _, _ := ix.probe(nil, bounds[T]{lo: lo, hi: hi}, false)
	return rows
}

// probe collects the live rows inside b into dst[:0] in one critical
// section (within).
func (ix *Index[T]) probe(dst []int, b bounds[T], escalate bool) ([]int, ProbeStats, error) {
	out := dst[:0]
	st, err := ix.within(b, escalate, func(ia, ib int) { out = ix.collectLocked(out, ix.posOf(ia), ix.posOf(ib), b) })
	return out, st, err
}

// bounds is a probe's value range: lo <= v < hi, or lo <= v when top.
type bounds[T cmp.Ordered] struct {
	lo, hi T
	top    bool
}

func (b bounds[T]) has(v T) bool { return v >= b.lo && (b.top || v < b.hi) }

// within runs fn inside one critical section, handing it the indexes in
// cuts of the cuts at b's bounds, len(cuts) standing for a top bound. It
// holds the read lock when both cuts exist already. Otherwise it hits the
// escalation failpoint when escalate is set, takes the write lock and
// cracks at the bounds first. An empty range calls no fn. The stats are
// taken in the same critical section.
func (ix *Index[T]) within(b bounds[T], escalate bool, fn func(ia, ib int)) (ProbeStats, error) {
	ix.mu.RLock()
	empty := !b.top && b.lo >= b.hi
	if ia, ib, ok := ix.cutsAt(b); ok || empty {
		defer ix.mu.RUnlock()
		if !empty {
			fn(ia, ib)
		}
		return ix.statsLocked(LockRead), nil
	}
	ix.mu.RUnlock()
	if escalate {
		if err := fpEscalate.Hit(); err != nil {
			return ProbeStats{Lock: LockWrite}, err
		}
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.crackAt(b.lo)
	if !b.top {
		ix.crackAt(b.hi)
	}
	// Cracking at hi may insert cuts below lo's (stochastic pivots), so
	// both indexes are read once both cuts exist.
	ia, ib, _ := ix.cutsAt(b)
	fn(ia, ib)
	return ix.statsLocked(LockWrite), nil
}

// cutsAt returns the indexes in cuts of the cuts at b's bounds, len(cuts)
// for a top bound; ok reports whether both exist.
func (ix *Index[T]) cutsAt(b bounds[T]) (ia, ib int, ok bool) {
	ia, ok = ix.cutIndex(b.lo)
	ib = len(ix.cuts)
	if ok && !b.top {
		ib, ok = ix.cutIndex(b.hi)
	}
	return ia, ib, ok
}

// posOf returns the position of the cut at index i in cuts, len(vals) for
// len(cuts). Caller holds at least the read lock.
func (ix *Index[T]) posOf(i int) int {
	if i == len(ix.cuts) {
		return len(ix.vals)
	}
	return ix.cuts[i].pos
}

// collectLocked writes the live row ids at positions [pa, pb), plus the
// pending inserts inside b, into dst[:0] in ascending order, replacing dst
// when it is too short. It marks the ids into a pooled bitmap, then reads
// the words between the lowest and highest marked one, ANDing in the
// liveness bitmap and zeroing each word as it goes, so the bitmap returns
// to the free list all zero. Caller holds at least the read lock.
func (ix *Index[T]) collectLocked(dst []int, pa, pb int, b bounds[T]) []int {
	out := dst[:0]
	m := ix.takeMarks(len(ix.live))
	lo, hi, n := ix.nextRow, -1, pb-pa
	for _, p := range ix.pending {
		if b.has(p.val) {
			m[p.row>>6] |= 1 << uint(p.row&63)
			lo, hi, n = min(lo, p.row), max(hi, p.row), n+1
		}
	}
	for _, r := range ix.rows[pa:pb] {
		m[r>>6] |= 1 << uint(r&63)
		lo, hi = min(lo, r), max(hi, r)
	}
	if cap(out) < n {
		out = make([]int, 0, n)
	}
	out = out[:n]
	n = 0
	for w := lo >> 6; w <= hi>>6; w++ {
		x := m[w] & ix.live[w]
		m[w] = 0
		for ; x != 0; x &= x - 1 {
			out[n] = w<<6 | bits.TrailingZeros64(x)
			n++
		}
	}
	ix.giveMarks(m)
	return out[:n]
}

// takeMarks returns an all-zero bitmap of the given number of words: the
// last one recycled when it is large enough, else a new one.
func (ix *Index[T]) takeMarks(words int) []uint64 {
	ix.marksMu.Lock()
	defer ix.marksMu.Unlock()
	if k := len(ix.marks); k > 0 {
		m := ix.marks[k-1]
		ix.marks = ix.marks[:k-1]
		if cap(m) >= words {
			return m[:words]
		}
	}
	return make([]uint64, words)
}

// giveMarks recycles an all-zero bitmap; one per core is kept, since no
// more probes than that collect at once.
func (ix *Index[T]) giveMarks(m []uint64) {
	ix.marksMu.Lock()
	if len(ix.marks) < runtime.GOMAXPROCS(0) {
		ix.marks = append(ix.marks, m)
	}
	ix.marksMu.Unlock()
}

// statsLocked snapshots the index shape. Caller holds at least the read lock.
func (ix *Index[T]) statsLocked(mode LockMode) ProbeStats {
	return ProbeStats{Lock: mode, Pieces: len(ix.cuts) + 1, Cracks: ix.cracksDone}
}

// Count returns how many values satisfy lo <= v < hi, cracking as a side
// effect but without materializing row ids. Like Probe it is one critical
// section, read-locked on the converged path, and like Query it skips the
// escalation failpoint.
func (ix *Index[T]) Count(lo, hi T) int {
	b := bounds[T]{lo: lo, hi: hi}
	n := 0
	ix.within(b, false, func(ia, ib int) { n = ix.countLocked(ix.posOf(ia), ix.posOf(ib), b) })
	return n
}

// countLocked counts live rows at positions [pa, pb) plus pending inserts
// in b. Caller holds at least the read lock.
func (ix *Index[T]) countLocked(pa, pb int, b bounds[T]) int {
	n := pb - pa
	if ix.tombs > 0 {
		n = 0
		for _, r := range ix.rows[pa:pb] {
			if ix.isLive(r) {
				n++
			}
		}
	}
	for _, p := range ix.pending {
		if b.has(p.val) && ix.isLive(p.row) {
			n++
		}
	}
	return n
}

// cutIndex returns the index in cuts of the cut at v, if there is one.
func (ix *Index[T]) cutIndex(v T) (int, bool) {
	i := sort.Search(len(ix.cuts), func(i int) bool { return ix.cuts[i].val >= v })
	return i, i < len(ix.cuts) && ix.cuts[i].val == v
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

// crackAt ensures a cut exists at value v. Caller holds the write lock.
func (ix *Index[T]) crackAt(v T) {
	if _, ok := ix.cutIndex(v); ok {
		return
	}
	plo, phi := ix.pieceAt(v)

	if ix.isSorted(plo, phi) {
		// Free crack: binary search inside the sorted piece.
		ix.insertCut(v, plo+sort.Search(phi-plo, func(i int) bool { return ix.vals[plo+i] >= v }))
		return
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
		ix.insertCut(v, plo+sort.Search(phi-plo, func(i int) bool { return ix.vals[plo+i] >= v }))
		return
	}

	ix.insertCut(v, ix.partition(plo, phi, v))
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
