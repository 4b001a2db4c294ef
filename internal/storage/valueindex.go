package storage

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// The value index prunes rows where a zone map can only prune morsels. A
// plain INT or FLOAT column's values are cut into valueBuckets equi-depth
// buckets whose bounds come from a deterministic sample; per morsel, the
// index keeps the row offsets grouped by bucket, ascending within each
// bucket, plus where each bucket starts. A range [lo, hi] maps to the
// bucket run [bucket(lo), bucket(hi)], and the rows of that run are a
// superset of the rows inside the range: bucket(v) is non-decreasing in v,
// so lo <= v <= hi puts bucket(v) inside the run. A NULL (NaN) row lies in
// no bucket, as it lies in no range. Like zone maps, an index is built
// lazily on first use (Table.ValueIndex), once, in one O(n) counting pass
// parallel per morsel, and is immutable afterwards. It costs two bytes per
// row plus one bucket-start table per morsel.

// valueBuckets is the number of buckets per column: a power of two, so the
// bucket search is a fixed eight steps, and 256, so a byte indexes the
// split points.
const valueBuckets = 256

// NumBuckets is valueBuckets for other packages: every bucket run lies in
// [0, NumBuckets-1], and BucketCells.Interior(-1, NumBuckets) is every cell.
const NumBuckets = valueBuckets

// valueSample is about how many rows the bucket bounds are drawn from.
const valueSample = 64 * valueBuckets

// MaxIndexMorsel is the largest morsel size a value index serves: row
// offsets within a morsel are 16 bits.
const MaxIndexMorsel = 1 << 16

// ValueBuckets are one column's bucket bounds plus the per-bucket counts of
// the sample they were drawn from. Bucket b holds the values v with exactly
// b split points at or below v; equal split points leave empty buckets
// between them, which costs nothing. Only the I or the F splits are used,
// after the column's type.
type ValueBuckets struct {
	n      int                 // column length at build time (staleness check)
	isplit [valueBuckets]int64 // the last entry is never read
	fsplit [valueBuckets]float64
	freq   [valueBuckets]int32 // sampled non-NULL rows per bucket
	sample int                 // rows sampled, NULLs included
}

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

// bucketize writes each value's bucket number to ids, valueBuckets for a
// NULL (NaN, which bucketOf puts in bucket 0), four values at a time.
func bucketize[T int64 | float64](s *[valueBuckets]T, vals []T, ids []uint16) {
	null := func(v T) int { return valueBuckets & -b2i(v != v) }
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		v0, v1, v2, v3 := vals[i], vals[i+1], vals[i+2], vals[i+3]
		k0, k1, k2, k3 := bucketOf4(s, v0, v1, v2, v3)
		ids[i] = uint16(k0 | null(v0))
		ids[i+1] = uint16(k1 | null(v1))
		ids[i+2] = uint16(k2 | null(v2))
		ids[i+3] = uint16(k3 | null(v3))
	}
	for ; i < len(vals); i++ {
		ids[i] = uint16(bucketOf(s, vals[i]) | null(vals[i]))
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
		b.sample = sampleSplits(cc.V, &b.isplit, &b.freq)
	case *FloatColumn:
		b.sample = sampleSplits(cc.V, &b.fsplit, &b.freq)
	}
	return b
}

// sampleSplits samples every stride-th value, stride chosen for about
// valueSample of them, sets split k to the sample's (k+1)/valueBuckets
// quantile and counts the sample per bucket. It returns how many values it
// sampled, NULLs included. With no non-NULL value sampled the splits stay
// zero: any splits give a correct index.
func sampleSplits[T int64 | float64](vals []T, split *[valueBuckets]T, freq *[valueBuckets]int32) (sampled int) {
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
	return sampled
}

// ValueIndex is one column's value index at one morsel size. Morsel m
// covers rows [m*morsel, min((m+1)*morsel, n)) — the morsels a scan runs
// with — and its bucket b's rows are m*morsel plus the offsets
// rows[m*morsel+starts[b] : m*morsel+starts[b+1]], where starts is the
// morsel's row of valueBuckets+1 entries.
type ValueIndex struct {
	*ValueBuckets
	morsel int
	starts []uint32
	rows   []uint16 // per morsel: offsets by bucket, then the NULL rows'
}

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

// Edges appends to dst the rows of morsel m in bucket bl or bucket bh
// (bl < bh) in ascending order and returns the extended slice: the two
// buckets' ascending offsets, merged.
func (x *ValueIndex) Edges(m, bl, bh int, dst []int) []int {
	st := x.starts[m*(valueBuckets+1):]
	base := m * x.morsel
	a := x.rows[base+int(st[bl]) : base+int(st[bl+1])]
	b := x.rows[base+int(st[bh]) : base+int(st[bh+1])]
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, base+int(a[0])), a[1:]
		} else {
			dst, b = append(dst, base+int(b[0])), b[1:]
		}
	}
	for _, o := range a {
		dst = append(dst, base+int(o))
	}
	for _, o := range b {
		dst = append(dst, base+int(o))
	}
	return dst
}

// buildValueIndex runs the counting pass over c, morsels claimed by up to
// GOMAXPROCS goroutines.
func buildValueIndex(c Column, b *ValueBuckets, morsel int) *ValueIndex {
	n := c.Len()
	nm := NumChunks(n, morsel)
	x := &ValueIndex{ValueBuckets: b, morsel: morsel,
		starts: make([]uint32, nm*(valueBuckets+1)), rows: make([]uint16, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), nm); w > 0; w-- {
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
// row's bucket (valueBuckets for NULL), the starts are the bucket counts'
// prefix sums, and a last pass places each offset at its bucket's cursor,
// so offsets stay ascending within a bucket.
func (x *ValueIndex) fill(c Column, m, lo int, ids []uint16) {
	switch cc := c.(type) {
	case *IntColumn:
		bucketize(&x.isplit, cc.V[lo:lo+len(ids)], ids)
	case *FloatColumn:
		bucketize(&x.fsplit, cc.V[lo:lo+len(ids)], ids)
	}
	var count [valueBuckets + 1]uint32
	for _, k := range ids {
		count[k]++
	}
	// The last start, bucket valueBuckets-1's end, is where the NULL rows go.
	st := x.starts[m*(valueBuckets+1):][:valueBuckets+1]
	var at [valueBuckets + 1]uint32
	sum := uint32(0)
	for k, cnt := range count {
		st[k], at[k] = sum, sum
		sum += cnt
	}
	rows := x.rows[lo : lo+len(ids)]
	for i, k := range ids {
		rows[at[k]] = uint16(i)
		at[k]++
	}
}

// indexKey names one cached zone map or value index.
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
	t.zones.mu.Lock()
	defer t.zones.mu.Unlock()
	return t.bucketsLocked(col, c), nil
}

func indexable(c Column) bool {
	switch c.(type) {
	case *IntColumn, *FloatColumn:
		return c.Len() > 0
	}
	return false
}

func (t *Table) bucketsLocked(col string, c Column) *ValueBuckets {
	if b, ok := t.zones.buckets[col]; ok && b.n == c.Len() {
		return b
	}
	b := newValueBuckets(c)
	if t.zones.buckets == nil {
		t.zones.buckets = map[string]*ValueBuckets{}
	}
	t.zones.buckets[col] = b
	return b
}

// ValueIndex returns the (lazily built, cached) value index of the named
// column at the given morsel size, or (nil, false, nil) when there is none:
// the column is not a plain non-empty INT or FLOAT column, or the morsel
// size is not in (0, MaxIndexMorsel]. built reports whether this call did
// the build. Like ZoneMap, it rebuilds an index built for a different
// column length. The build runs outside the cache mutex: concurrent first
// callers of one key share it, and no other lookup waits on it.
func (t *Table) ValueIndex(col string, morsel int) (x *ValueIndex, built bool, err error) {
	c, err := t.ColumnByName(col)
	if err != nil || !indexable(c) || morsel <= 0 || morsel > MaxIndexMorsel {
		return nil, false, err
	}
	t.zones.mu.Lock()
	b := t.bucketsLocked(col, c)
	e := lazyEntry(&t.zones.indexes, indexKey{col, morsel}, b)
	t.zones.mu.Unlock()
	x, built = e.get(func() *ValueIndex { return buildValueIndex(c, b, morsel) })
	return x, built, nil
}

// lazy is one value index or cell set of the table's cache, made under the
// cache mutex for one set of bucket bounds and built outside it, once: a
// build reads a whole column, and holding the mutex across it would stall
// every zone-map, bounds and index lookup on the table behind it.
// Concurrent first callers of one key wait on its once and share the
// build.
type lazy[V any] struct {
	b    *ValueBuckets // the bounds it is built under
	once sync.Once
	v    V
}

// get returns the entry's value, building it on the first call; built
// reports whether this call did.
func (e *lazy[V]) get(build func() V) (v V, built bool) {
	e.once.Do(func() { e.v, built = build(), true })
	return e.v, built
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
