package storage

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"dex/internal/fault"
)

// The value index is the engine's one data-skipping structure: it skips a
// morsel whose bucket counts say no row can match, and prunes rows inside
// the rest. A plain INT or FLOAT column's values are cut into valueBuckets
// equi-depth buckets whose bounds come from a deterministic sample; per
// morsel, the index keeps the row offsets grouped by bucket, ascending
// within each bucket, plus where each bucket starts. A range [lo, hi] maps
// to the bucket run [bucket(lo), bucket(hi)], and the rows of that run are
// a superset of the rows inside the range: bucket(v) is non-decreasing in
// v, so lo <= v <= hi puts bucket(v) inside the run. A NULL (NaN) row lies
// in no bucket, as it lies in no range. An index is built lazily on first
// use (Table.ValueIndex), once, in one O(n) counting pass parallel per
// morsel, and is immutable afterwards. Beside each row offset it keeps the
// row's sub-bucket: each bucket is cut again into subBuckets equi-depth
// sub-buckets, whose sub-splits come from the same sample, so a range's
// edge bucket can be split at the sub-bucket holding its bound (bucket
// cells' second level, bucketcells.go). It costs three bytes per row plus
// one bucket-start table per morsel. A range's edge is read from one more
// level, built lazily too: per (bucket, sub-bucket), the sub-bucket's row
// ids over the whole column, ascending (SubRows), made the first time a
// query reads that sub-bucket's rows and kept as long as the index, at four
// bytes per listed row. Run-length columns get none: their kernel already
// rejects a whole run at a time.

// fpIndexBuild injects faults into the index cache's builds: it is hit
// once per value index, bucket cell set, bucket's second level or
// sub-bucket row list build, the moment a query first asks for one. An
// error fails the requesting query and leaves the entry unbuilt, so the
// next query builds it.
var fpIndexBuild = fault.Register("storage/index-build")

// valueBuckets is the number of buckets per column: a power of two, so the
// bucket search is a fixed eight steps, and 256, so a byte indexes the
// split points.
const valueBuckets = 256

// NumBuckets is valueBuckets for other packages: every bucket run lies in
// [0, NumBuckets-1], and BucketCells.Interior(-1, NumBuckets) is every cell.
const NumBuckets = valueBuckets

// subBuckets is the number of sub-buckets each bucket is cut into: a power
// of two, so the sub-bucket search is a fixed three steps and a sub-bucket
// fits a byte beside a bucket number in the counting pass's scratch. Eight
// cut an edge bucket's rows eightfold while a sub-level costs at most
// eight cells per key (DESIGN.md, "Bucket cells").
const subBuckets = 8

// NumSubBuckets is subBuckets for other packages: every sub-bucket of a
// bucket lies in [0, NumSubBuckets-1].
const NumSubBuckets = subBuckets

// valueSample is about how many rows the bucket bounds are drawn from.
const valueSample = 64 * valueBuckets

// MaxIndexMorsel is the largest morsel size a value index serves: row
// offsets within a morsel are 16 bits.
const MaxIndexMorsel = 1 << 16

// ValueBuckets are one column's bucket bounds plus the per-bucket counts of
// the sample they were drawn from. Bucket b holds the values v with exactly
// b split points at or below v; equal split points leave empty buckets
// between them, which costs nothing. Only the I or the F splits are used,
// after the column's type. Likewise, sub-bucket s of bucket b holds b's
// values with exactly s of b's sub-splits at or below them.
type ValueBuckets struct {
	n      int                 // column length at build time (staleness check)
	isplit [valueBuckets]int64 // the last entry is never read
	fsplit [valueBuckets]float64
	isub   *subSplits[int64] // nil for a FLOAT column
	fsub   *subSplits[float64]
	freq   [valueBuckets]int32 // sampled non-NULL rows per bucket
	sample int                 // rows sampled, NULLs included
}

// subSplits are every bucket's sub-splits; each row's last entry is never
// read.
type subSplits[T int64 | float64] [valueBuckets][subBuckets]T

// bucketOf returns the number of the first valueBuckets-1 splits at or
// below v: a binary search over a sorted array in eight fixed steps, each
// advancing by its comparison's 0/1 result rather than behind a branch the
// values would make unpredictable, and indexed by a byte so that no step
// is bounds-checked.
func bucketOf[T int64 | float64](s *[valueBuckets]T, v T) int {
	i := 0
	for w := valueBuckets / 2; w > 0; w >>= 1 {
		i += w & -b2i(s[uint8(i+w-1)] <= v)
	}
	return i
}

// bucketOf4 is bucketOf of four values. Each search is a chain of
// dependent loads; running four side by side lets the processor overlap
// the chains.
func bucketOf4[T int64 | float64](s *[valueBuckets]T, v0, v1, v2, v3 T) (k0, k1, k2, k3 int) {
	for w := valueBuckets / 2; w > 0; w >>= 1 {
		k0 += w & -b2i(s[uint8(k0+w-1)] <= v0)
		k1 += w & -b2i(s[uint8(k1+w-1)] <= v1)
		k2 += w & -b2i(s[uint8(k2+w-1)] <= v2)
		k3 += w & -b2i(s[uint8(k3+w-1)] <= v3)
	}
	return k0, k1, k2, k3
}

// subOf returns the number of the first subBuckets-1 sub-splits at or
// below v: bucketOf within one bucket, in three fixed steps.
func subOf[T int64 | float64](s *[subBuckets]T, v T) int {
	i := 0
	for w := subBuckets / 2; w > 0; w >>= 1 {
		i += w & -b2i(s[(i+w-1)&(subBuckets-1)] <= v)
	}
	return i
}

// subOf4 is subOf of four values, each in its own bucket's sub-splits.
func subOf4[T int64 | float64](s0, s1, s2, s3 *[subBuckets]T, v0, v1, v2, v3 T) (j0, j1, j2, j3 int) {
	for w := subBuckets / 2; w > 0; w >>= 1 {
		j0 += w & -b2i(s0[(j0+w-1)&(subBuckets-1)] <= v0)
		j1 += w & -b2i(s1[(j1+w-1)&(subBuckets-1)] <= v1)
		j2 += w & -b2i(s2[(j2+w-1)&(subBuckets-1)] <= v2)
		j3 += w & -b2i(s3[(j3+w-1)&(subBuckets-1)] <= v3)
	}
	return j0, j1, j2, j3
}

// The counting pass's scratch id of a row: its bucket number in the low
// idBits bits, valueBuckets for a NULL (NaN, which bucketOf puts in bucket
// 0), and its sub-bucket above them.
const (
	idBits = 9
	idMask = 1<<idBits - 1
)

// bucketize writes each value's scratch id to ids, four values at a time.
func bucketize[T int64 | float64](s *[valueBuckets]T, sub *subSplits[T], vals []T, ids []uint16) {
	null := func(v T) int { return valueBuckets & -b2i(v != v) }
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		v0, v1, v2, v3 := vals[i], vals[i+1], vals[i+2], vals[i+3]
		k0, k1, k2, k3 := bucketOf4(s, v0, v1, v2, v3)
		j0, j1, j2, j3 := subOf4(&sub[uint8(k0)], &sub[uint8(k1)], &sub[uint8(k2)], &sub[uint8(k3)], v0, v1, v2, v3)
		ids[i] = uint16(k0 | null(v0) | j0<<idBits)
		ids[i+1] = uint16(k1 | null(v1) | j1<<idBits)
		ids[i+2] = uint16(k2 | null(v2) | j2<<idBits)
		ids[i+3] = uint16(k3 | null(v3) | j3<<idBits)
	}
	for ; i < len(vals); i++ {
		v := vals[i]
		k := bucketOf(s, v)
		ids[i] = uint16(k | null(v) | subOf(&sub[uint8(k)], v)<<idBits)
	}
}

// b2i converts a bool to 0/1 without a branch, reading the byte the
// compiler materializes the comparison into (expr's kernels do the same).
func b2i(b bool) int {
	return int(*(*uint8)(unsafe.Pointer(&b)))
}

// IntRange returns the bucket run [bl, bh] holding every value of the
// inclusive integer range [lo, hi]; an empty range (lo > hi) gives an empty
// run, bh = bl-1. Only valid on an INT column's buckets.
func (b *ValueBuckets) IntRange(lo, hi int64) (bl, bh int) {
	return run(&b.isplit, lo, hi)
}

// FloatRange is IntRange for a FLOAT column's buckets; neither bound may
// be NaN.
func (b *ValueBuckets) FloatRange(lo, hi float64) (bl, bh int) {
	return run(&b.fsplit, lo, hi)
}

func run[T int64 | float64](s *[valueBuckets]T, lo, hi T) (bl, bh int) {
	bl = bucketOf(s, lo)
	if lo > hi {
		return bl, bl - 1
	}
	return bl, bucketOf(s, hi)
}

// IntSub returns the sub-bucket of bucket k that would hold v, a value
// of k: the count of k's sub-splits at or below it. Only valid on an INT
// column's buckets.
func (b *ValueBuckets) IntSub(k int, v int64) int { return subOf(&b.isub[uint8(k)], v) }

// FloatSub is IntSub for a FLOAT column's buckets.
func (b *ValueBuckets) FloatSub(k int, v float64) int { return subOf(&b.fsub[uint8(k)], v) }

// Fraction estimates the share of the column's rows in the bucket run
// [bl, bh] from the sample the bounds were drawn from; an empty run has 0.
func (b *ValueBuckets) Fraction(bl, bh int) float64 {
	if b.sample == 0 {
		return 0
	}
	in := 0
	for _, f := range b.freq[bl : bh+1] {
		in += int(f)
	}
	return float64(in) / float64(b.sample)
}

// newValueBuckets draws the bounds of a plain INT or FLOAT column.
func newValueBuckets(c Column) *ValueBuckets {
	b := &ValueBuckets{n: c.Len()}
	switch cc := c.(type) {
	case *IntColumn:
		b.isub = new(subSplits[int64])
		b.sample = sampleSplits(cc.V, &b.isplit, b.isub, &b.freq)
	case *FloatColumn:
		b.fsub = new(subSplits[float64])
		b.sample = sampleSplits(cc.V, &b.fsplit, b.fsub, &b.freq)
	}
	return b
}

// sampleSplits samples every stride-th value, stride chosen for about
// valueSample of them, sets split k to the sample's (k+1)/valueBuckets
// quantile, counts the sample per bucket and sets bucket k's sub-split j
// to the (j+1)/subBuckets quantile of the sample's values in it. A bucket
// no sampled value fell in takes its lower split as every sub-split —
// bucket 0, which has none, split 0 — so each of its values lies in one
// sub-bucket: the last above a lower split, the first below split 0. It
// returns how many values it sampled, NULLs included. With no non-NULL
// value sampled every split and sub-split stays zero: any sorted splits
// give a correct index.
func sampleSplits[T int64 | float64](vals []T, split *[valueBuckets]T, sub *subSplits[T], freq *[valueBuckets]int32) (sampled int) {
	var s []T
	stride := max(1, (len(vals)+valueSample-1)/valueSample)
	for r := 0; r < len(vals); r += stride {
		if v := vals[r]; v == v {
			s = append(s, v)
		}
		sampled++
	}
	slices.Sort(s)
	for k := 0; k < valueBuckets-1 && len(s) > 0; k++ {
		split[k] = s[(k+1)*len(s)/valueBuckets]
	}
	for _, v := range s {
		freq[bucketOf(split, v)]++
	}
	// bucketOf is non-decreasing, so each bucket's values are a run of s.
	at := 0
	for k, f := range freq {
		for j := 0; j < subBuckets-1; j++ {
			switch {
			case f > 0:
				sub[k][j] = s[at+(j+1)*int(f)/subBuckets]
			case k > 0:
				sub[k][j] = split[k-1]
			default:
				sub[k][j] = split[0]
			}
		}
		at += int(f)
	}
	return sampled
}

// ValueIndex is one column's value index at one morsel size. Morsel m
// covers rows [m*morsel, min((m+1)*morsel, n)) — the morsels a scan runs
// with — and its bucket b's rows are m*morsel plus the offsets
// rows[m*morsel+starts[b] : m*morsel+starts[b+1]], where starts is the
// morsel's row of valueBuckets+1 entries; sub at the same positions holds
// each of those rows' sub-bucket. lists holds the row lists of the
// sub-buckets read so far (SubRows).
type ValueIndex struct {
	*ValueBuckets
	morsel int
	starts []uint32
	rows   []uint16   // per morsel: offsets by bucket, then the NULL rows'
	sub    []uint8    // the sub-bucket of the row at the same position of rows
	listMu sync.Mutex // guards lists' entries, not their builds
	lists  [valueBuckets]*[subBuckets]lazy[[]int32]
}

// Part is the sub-buckets Lo through Hi of a bucket: the part of an edge
// bucket a query refines.
type Part struct{ Lo, Hi uint8 }

// Whole is the Part holding every sub-bucket of a bucket.
var Whole = Part{0, subBuckets - 1}

// Morsels returns how many morsels the index covers.
func (x *ValueIndex) Morsels() int { return NumChunks(x.n, x.morsel) }

// Count returns how many rows of morsel m lie in the bucket run [bl, bh].
func (x *ValueIndex) Count(m, bl, bh int) int {
	st := x.starts[m*(valueBuckets+1):]
	return int(st[bh+1] - st[bl])
}

// marksPool recycles Candidates' morsel-local bitmaps.
var marksPool = sync.Pool{New: func() any { return new([]uint64) }}

// Candidates appends to dst the rows of morsel m in the bucket run [bl, bh]
// in ascending order and returns the extended slice. One bucket's offsets
// are already ascending; several are marked into a morsel-local bitmap and
// read back out in order.
func (x *ValueIndex) Candidates(m, bl, bh int, dst []int) []int {
	st := x.starts[m*(valueBuckets+1):]
	base := m * x.morsel
	offs := x.rows[base+int(st[bl]) : base+int(st[bh+1])]
	if bl == bh {
		for _, o := range offs {
			dst = append(dst, base+int(o))
		}
		return dst
	}
	words := (min(x.morsel, x.n-base) + 63) / 64
	mp := marksPool.Get().(*[]uint64)
	if cap(*mp) < words {
		*mp = make([]uint64, words)
	}
	marks := (*mp)[:words]
	for _, o := range offs {
		marks[o>>6] |= 1 << (o & 63)
	}
	for w, word := range marks {
		for word != 0 {
			dst = append(dst, base+w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
		marks[w] = 0 // the pool only ever holds a cleared bitmap
	}
	marksPool.Put(mp)
	return dst
}

// SubRows returns the rows of sub-bucket j of bucket b, ascending: its
// row list, shared and immutable. The list is built on the first call for
// (b, j) that gets past the storage/index-build failpoint, once for
// concurrent first callers, as a bucket's second level of cells is
// (BucketCells.Sub); built reports whether this call did, and a failed
// build leaves the list for the next caller to build.
func (x *ValueIndex) SubRows(b, j int) (rows []int32, built bool, err error) {
	x.listMu.Lock()
	l := x.lists[b]
	if l == nil {
		l = new([subBuckets]lazy[[]int32])
		x.lists[b] = l
	}
	x.listMu.Unlock()
	return l[j].get(func() []int32 { return x.listSub(b, j) })
}

// PartLists appends to lists the row lists of bucket b's sub-buckets lo
// through hi (none when lo > hi), building each on first use (SubRows),
// and returns the extended slice; MergeLists reads them out as one
// ascending run of rows.
func (x *ValueIndex) PartLists(lists [][]int32, b, lo, hi int) ([][]int32, error) {
	for j := lo; j <= hi; j++ {
		rows, _, err := x.SubRows(b, j)
		if err != nil {
			return lists, err
		}
		lists = append(lists, rows)
	}
	return lists, nil
}

// listSub lists the rows of sub-bucket j of bucket b, morsel by morsel —
// each morsel's offsets in b are ascending — in a slice of exactly their
// count.
func (x *ValueIndex) listSub(b, j int) []int32 {
	n := 0
	for m := range x.Morsels() {
		st := x.starts[m*(valueBuckets+1):]
		base := m * x.morsel
		for _, s := range x.sub[base+int(st[b]) : base+int(st[b+1])] {
			n += b2i(int(s) == j)
		}
	}
	rows := make([]int32, 0, n)
	for m := range x.Morsels() {
		st := x.starts[m*(valueBuckets+1):]
		base := m * x.morsel
		lo, hi := base+int(st[b]), base+int(st[b+1])
		for i, s := range x.sub[lo:hi] {
			if int(s) == j {
				rows = append(rows, int32(base+int(x.rows[lo+i])))
			}
		}
	}
	return rows
}

// MergeLists appends to dst the rows of lists — ascending row lists, no
// two sharing a row — merged into one ascending run, and returns the
// extended slice; dst grows once, by exactly their count. Two lists merge
// head to head; three or more, a part several sub-buckets wide, are
// marked into a bitmap (markLists), where a head-to-head merge would pay
// a comparison per list for every row. The entries of lists are resliced
// as they are read.
func MergeLists(dst []int, lists [][]int32) []int {
	n, live := 0, lists[:0]
	for _, l := range lists {
		if len(l) > 0 {
			live, n = append(live, l), n+len(l)
		}
	}
	dst = slices.Grow(dst, n)
	switch len(live) {
	case 0:
		return dst
	case 1:
		return appendRows(dst, live[0])
	case 2:
		a, b := live[0], live[1]
		for len(a) > 0 && len(b) > 0 {
			if a[0] < b[0] {
				dst, a = append(dst, int(a[0])), a[1:]
			} else {
				dst, b = append(dst, int(b[0])), b[1:]
			}
		}
		return appendRows(appendRows(dst, a), b)
	}
	return markLists(dst, live)
}

// appendRows appends the rows of l to dst.
func appendRows(dst []int, l []int32) []int {
	for _, r := range l {
		dst = append(dst, int(r))
	}
	return dst
}

// markWords is the size of markLists' bitmap: a window of 64 Ki rows,
// a morsel's worth of the index's largest morsels.
const markWords = 1024

// markLists merges the non-empty lists window by window: the window starts
// at the least head, every list gives up its rows inside it, which are
// marked into a bitmap and read back out ascending, clearing it.
func markLists(dst []int, live [][]int32) []int {
	var marks [markWords]uint64
	for len(live) > 0 {
		base := live[0][0]
		for _, l := range live[1:] {
			base = min(base, l[0])
		}
		end, top, k := int64(base)+markWords*64, 0, 0
		for _, l := range live {
			i := 0
			for ; i < len(l) && int64(l[i]) < end; i++ {
				o := l[i] - base
				marks[o>>6] |= 1 << (o & 63)
			}
			if i > 0 {
				top = max(top, int(l[i-1]-base)>>6)
			}
			if i < len(l) {
				live[k], k = l[i:], k+1
			}
		}
		live = live[:k]
		for w := range marks[:top+1] {
			for word := marks[w]; word != 0; word &= word - 1 {
				dst = append(dst, int(base)+w<<6+bits.TrailingZeros64(word))
			}
			marks[w] = 0
		}
	}
	return dst
}

// buildWorkers is how many goroutines a value index build runs at most.
// Each holds a morsel of scratch, so the count is the column's alone, not
// the host's: a build allocates the same bytes on any core count.
const buildWorkers = 4

// buildValueIndex runs the counting pass over c, morsels claimed by up to
// buildWorkers goroutines.
func buildValueIndex(c Column, b *ValueBuckets, morsel int) *ValueIndex {
	n := c.Len()
	nm := NumChunks(n, morsel)
	x := &ValueIndex{ValueBuckets: b, morsel: morsel,
		starts: make([]uint32, nm*(valueBuckets+1)), rows: make([]uint16, n), sub: make([]uint8, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(buildWorkers, nm); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]uint16, min(morsel, n))
			for m := int(next.Add(1) - 1); m < nm; m = int(next.Add(1) - 1) {
				lo := m * morsel
				x.fill(c, m, lo, ids[:min(lo+morsel, n)-lo])
			}
		}()
	}
	wg.Wait()
	return x
}

// fill indexes the morsel m starting at row lo: one pass numbers each
// row's bucket (valueBuckets for NULL) and sub-bucket, the starts are the
// bucket counts' prefix sums, and a last pass places each offset and its
// sub-bucket at its bucket's cursor, so offsets stay ascending within a
// bucket.
func (x *ValueIndex) fill(c Column, m, lo int, ids []uint16) {
	switch cc := c.(type) {
	case *IntColumn:
		bucketize(&x.isplit, x.isub, cc.V[lo:lo+len(ids)], ids)
	case *FloatColumn:
		bucketize(&x.fsplit, x.fsub, cc.V[lo:lo+len(ids)], ids)
	}
	var count [valueBuckets + 1]uint32
	for _, id := range ids {
		count[id&idMask]++
	}
	// The last start, bucket valueBuckets-1's end, is where the NULL rows go.
	st := x.starts[m*(valueBuckets+1):][:valueBuckets+1]
	var at [valueBuckets + 1]uint32
	sum := uint32(0)
	for k, cnt := range count {
		st[k], at[k] = sum, sum
		sum += cnt
	}
	rows, sub := x.rows[lo:lo+len(ids)], x.sub[lo:lo+len(ids)]
	for i, id := range ids {
		k := id & idMask
		rows[at[k]], sub[at[k]] = uint16(i), uint8(id>>idBits)
		at[k]++
	}
}

// indexCache is the lazily populated per-table cache of bucket bounds,
// value indexes and bucket cells (bucketcells.go). It lives in its own
// struct so Table literals elsewhere in the package need not name it, and
// the zero value is ready to use. mu guards the maps; value indexes and
// cells are built outside it (lazy).
type indexCache struct {
	mu      sync.Mutex
	buckets map[string]*ValueBuckets
	indexes map[indexKey]*lazy[*ValueIndex]
	cells   map[cellKey]*lazy[*BucketCells]
}

// indexKey names one cached value index.
type indexKey struct {
	col    string
	morsel int
}

// ValueBuckets returns the (lazily drawn, cached) bucket bounds of the named
// column, or (nil, nil) when the column has no value index: it is not a
// plain INT or FLOAT column, or it is empty. Bounds drawn for a different
// column length are drawn again.
func (t *Table) ValueBuckets(col string) (*ValueBuckets, error) {
	c, err := t.ColumnByName(col)
	if err != nil || !indexable(c) {
		return nil, err
	}
	t.cache.mu.Lock()
	defer t.cache.mu.Unlock()
	return t.bucketsLocked(col, c), nil
}

// indexable reports whether c can have a value index: a plain INT or
// FLOAT column, not empty, whose row ids fit the int32 of a sub-bucket's
// row list.
func indexable(c Column) bool {
	switch c.(type) {
	case *IntColumn, *FloatColumn:
		return c.Len() > 0 && c.Len() <= math.MaxInt32
	}
	return false
}

func (t *Table) bucketsLocked(col string, c Column) *ValueBuckets {
	if b, ok := t.cache.buckets[col]; ok && b.n == c.Len() {
		return b
	}
	b := newValueBuckets(c)
	if t.cache.buckets == nil {
		t.cache.buckets = map[string]*ValueBuckets{}
	}
	t.cache.buckets[col] = b
	return b
}

// ValueIndex returns the (lazily built, cached) value index of the named
// column at the given morsel size, or (nil, false, nil) when there is none:
// the column is not a plain non-empty INT or FLOAT column, or the morsel
// size is not in (0, MaxIndexMorsel]. built reports whether this call did
// the build. An index built for a different column length — the table grew
// via AppendRow — is rebuilt, so a stale index never skips a morsel that
// now holds a match. The build runs outside the cache mutex: concurrent
// first callers of one key share it, and no other lookup waits on it. A
// failed build (the storage/index-build failpoint) returns its error and
// leaves the entry for the next caller to build.
func (t *Table) ValueIndex(col string, morsel int) (x *ValueIndex, built bool, err error) {
	c, err := t.ColumnByName(col)
	if err != nil || !indexable(c) || morsel <= 0 || morsel > MaxIndexMorsel {
		return nil, false, err
	}
	t.cache.mu.Lock()
	b := t.bucketsLocked(col, c)
	e := lazyEntry(&t.cache.indexes, indexKey{col, morsel}, b)
	t.cache.mu.Unlock()
	return e.get(func() *ValueIndex { return buildValueIndex(c, b, morsel) })
}

// lazy is one value index or cell set of the table's cache, made under the
// cache mutex for one set of bucket bounds and built outside it, once: a
// build reads a whole column, and holding the mutex across it would stall
// every bounds and index lookup on the table behind it. A bucket's second
// level (BucketCells.Sub) is one too, made under its cell set's mutex, and
// so is a sub-bucket's row list (ValueIndex.SubRows), made under its
// index's. Concurrent first callers of one key wait on its mutex and share
// the build; a build that fails leaves done unset, so the next caller,
// waiting or later, tries again.
type lazy[V any] struct {
	b    *ValueBuckets // the bounds it is built under
	done atomic.Bool
	mu   sync.Mutex
	v    V
}

// get returns the entry's value, building it on the first call that gets
// past the storage/index-build failpoint; built reports whether this call
// did.
func (e *lazy[V]) get(build func() V) (v V, built bool, err error) {
	if e.done.Load() {
		return e.v, false, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return e.v, false, nil
	}
	if err := fpIndexBuild.Hit(); err != nil {
		return v, false, err
	}
	e.v = build()
	e.done.Store(true)
	return e.v, true, nil
}

// lazyEntry returns m's entry for key when it was made under the bounds b,
// else puts a new one there and returns it; one made under other bounds is
// stale. Called under the cache mutex.
func lazyEntry[K comparable, V any](m *map[K]*lazy[V], key K, b *ValueBuckets) *lazy[V] {
	if e, ok := (*m)[key]; ok && e.b == b {
		return e
	}
	if *m == nil {
		*m = map[K]*lazy[V]{}
	}
	e := &lazy[V]{b: b}
	(*m)[key] = e
	return e
}
