package storage

import (
	"math"
	"sync"

	"dex/internal/rsum"
)

// Bucket cells pre-aggregate a range column's value buckets. A range whose
// bucket run [bl, bh] spans more than two buckets contains every row of
// the buckets strictly between bl and bh — bucketOf is non-decreasing, so
// a value in such a bucket lies strictly between the range's bounds — and
// only the two edge buckets need their rows tested. Bucket cells keep, for
// one range column, one key column (or none) and one numeric input column
// (or none), one partial aggregate per (bucket, key), so a query answers
// the interior from a few hundred cells instead of its rows. The key is a
// dictionary column's group code, or a second plain INT or FLOAT column's
// value bucket: a conjunction of two ranges then folds the interior cells
// whose key bucket lies wholly inside its second range. Like the value
// index they come from, cells are built lazily on first use
// (Table.BucketCells), once, and are immutable afterwards.
//
// Each bucket has a second level: its rows cut at the index's sub-buckets,
// one cell per (sub-bucket, key). A range's edge bucket bl holds its lower
// bound lo in sub-bucket s, and the sub-buckets above s hold only values
// above lo (and below the range's upper bound, which lies in a later
// bucket), so their cells stand in for their rows as the interior's do,
// and only sub-bucket s's rows need their values tested; likewise below
// the sub-bucket of bh holding the upper bound. A bucket's second level is
// built (BucketCells.Sub) the first time a query asks for it, once.

// Cell is one partial aggregate of a (bucket, key) pair. First is the
// least of its rows, and a tie between equal extremes (int64s that meet in
// float64, -0 and +0) keeps the lower row. Sum is the one order-free sum
// every SUM/AVG keeps (rsum), so merging a cell into a scan's partial gives
// the bits a scan of its rows would. The extremes are kept as rows; their
// values are the input column's at those rows.
type Cell struct {
	Group  int32    // the key: a group code, a numeric key column's bucket; 0 without a key
	Rows   int      // rows in the cell
	First  int      // the least of them
	N      int      // rows whose input is not NULL
	Sum    rsum.Sum // their input values
	MinRow int      // the least row holding the least input value; valid when N > 0
	MaxRow int      // the least row holding the greatest
}

// BucketCells are the cells of one (range, key, input) column triple.
// Bucket b's cells are cells[start[b]:start[b+1]]: one per key, in key
// order, when b is a bucket that can hold a value, else none. A cell no
// row fell into has Rows 0. A NULL range value lies in no bucket and no
// cell, and so does a NULL numeric key.
type BucketCells struct {
	start [valueBuckets + 1]int32
	cells []Cell
	keys  []int32       // the keys of every bucket's cells, in order
	key   *ValueBuckets // a numeric key column's bounds; nil for any other key
	ispan []keySpan[int64]
	fspan []keySpan[float64] // per bucket of an INT or FLOAT key column
	rows  int                // rows in cells
	// What a bucket's second level is folded from: the index, the key
	// column (nil for none) and the input column (nil for none).
	x      *ValueIndex
	kc, in Column
	subMu  sync.Mutex // guards subs' entries, not their builds
	subs   [valueBuckets]*lazy[*SubCells]
}

// SubCells are one bucket's second level: a cell per (sub-bucket, key),
// in that order, the index's sub-buckets merged in runs of 1<<shift when
// the cellsPerRow rule allows no more than subBuckets>>shift of them.
// A bucket the rule allows fewer than two has none: its one sub-bucket is
// the bucket itself, and cells is empty.
type SubCells struct {
	shift uint8
	cells []Cell
}

// Subs returns how many sub-buckets the level cuts its bucket into: 8, 4
// or 2, or 1 when the cellsPerRow rule refused it a level.
func (s *SubCells) Subs() int { return subBuckets >> s.shift }

// Part returns the part of the bucket its level's sub-bucket holding the
// index's sub-bucket j covers.
func (s *SubCells) Part(j int) Part {
	lo := j >> s.shift << s.shift
	return Part{uint8(lo), uint8(lo + 1<<s.shift - 1)}
}

// Above returns, for the part p of a range's lower edge holding its lower
// bound, the cells of the sub-buckets above p, every row of which lies
// inside the range.
func (s *SubCells) Above(p Part) []Cell {
	return s.cells[(int(p.Hi)+1)>>s.shift*s.keys():]
}

// Below is Above for the part p of a range's upper edge holding its upper
// bound: the cells of the sub-buckets below p.
func (s *SubCells) Below(p Part) []Cell {
	return s.cells[:int(p.Lo)>>s.shift*s.keys()]
}

// keys returns how many keys each sub-bucket has cells for, 0 without a
// level.
func (s *SubCells) keys() int { return len(s.cells) / s.Subs() }

// keySpan is the least and greatest value one bucket of a numeric key
// column holds among the rows in cells; both are unset when rows is 0.
type keySpan[T int64 | float64] struct {
	rows   int
	lo, hi T
}

// Interior returns the cells of the buckets strictly between bl and bh, in
// (bucket, key) order; bl may be -1 and bh valueBuckets, so that
// Interior(b-1, b+1) is bucket b's cells.
func (c *BucketCells) Interior(bl, bh int) []Cell {
	if bh-bl < 2 {
		return nil
	}
	return c.cells[c.start[bl+1]:c.start[bh]]
}

// Rows returns how many rows the cells hold: the table's rows less those
// whose range value, or numeric key, is NULL. A set holding every row
// answers an aggregate with no WHERE from all of its cells.
func (c *BucketCells) Rows() int { return c.rows }

// Keys returns the keys every bucket's cells carry, in cell order: the
// group codes 0, 1, …, the live buckets of a numeric key column, or 0
// alone without a key.
func (c *BucketCells) Keys() []int32 { return c.keys }

// IntKeys resolves the inclusive range [lo, hi] of an INT key column
// against its buckets: it returns the run [kl, kh] of key buckets whose
// every value lies inside the range, every bucket outside the run holding
// none, and ok false when a bucket holds values on both sides of a bound.
// A bucket between two splits is judged by them, the open-ended first and
// last buckets by the least and greatest value the cells met in them.
func (c *BucketCells) IntKeys(lo, hi int64) (kl, kh int, ok bool) {
	return keyRun(&c.key.isplit, c.ispan, lo, hi)
}

// FloatKeys is IntKeys for a FLOAT key column; neither bound may be NaN.
func (c *BucketCells) FloatKeys(lo, hi float64) (kl, kh int, ok bool) {
	return keyRun(&c.key.fsplit, c.fspan, lo, hi)
}

// IntKeys is BucketCells.IntKeys judged by the splits alone, before any
// cells are built: the open-ended first and last buckets pass, and are
// settled by the cells' own IntKeys once they are built.
func (b *ValueBuckets) IntKeys(lo, hi int64) (kl, kh int, ok bool) {
	return keyRun[int64](&b.isplit, nil, lo, hi)
}

// FloatKeys is IntKeys for a FLOAT column's buckets.
func (b *ValueBuckets) FloatKeys(lo, hi float64) (kl, kh int, ok bool) {
	return keyRun[float64](&b.fsplit, nil, lo, hi)
}

// keyRun narrows the bucket run of [lo, hi] to the buckets wholly inside
// it. Only its two end buckets can hold values outside the range; each is
// kept when all of its values lie inside, dropped when none does, and
// otherwise unresolved. Buckets 0 < k < valueBuckets-1 hold the values in
// [s[k-1], s[k]), and the run's ends are never empty ones; the first and
// last bucket are judged by span, and pass when span is nil.
func keyRun[T int64 | float64](s *[valueBuckets]T, span []keySpan[T], lo, hi T) (kl, kh int, ok bool) {
	kl, kh = run(s, lo, hi)
	if kl > kh {
		return kl, kh, true
	}
	inL, okL := keyIn(s, span, kl, lo, hi)
	inH, okH := keyIn(s, span, kh, lo, hi)
	if !inL {
		kl++
	}
	if !inH {
		kh--
	}
	return kl, kh, okL && okH
}

// keyIn reports whether bucket k's values all lie in [lo, hi] (in) or none
// does (!in); ok is false when neither holds.
func keyIn[T int64 | float64](s *[valueBuckets]T, span []keySpan[T], k int, lo, hi T) (in, ok bool) {
	var least, greatest T
	switch {
	case k > 0 && k < valueBuckets-1:
		least, greatest = s[k-1], below(s[k])
	case span == nil || span[k].rows == 0:
		return true, true
	default:
		least, greatest = span[k].lo, span[k].hi
	}
	switch {
	case lo <= least && greatest <= hi:
		return true, true
	case greatest < lo || least > hi:
		return false, true
	}
	return false, false
}

// below returns the greatest value of T under v.
func below[T int64 | float64](v T) T {
	if f, ok := any(v).(float64); ok {
		return T(math.Nextafter(f, math.Inf(-1)))
	}
	return v - 1
}

// cellsPerRow caps a cell set's size: cells are built only while the
// buckets that can hold a value times the keys — the cells — stay at or
// under the column's rows divided by it. A bucket's second level obeys it
// per bucket: its sub-buckets times the keys stay at or under the
// bucket's rows divided by it. A cell takes 80 bytes, so a set costs at
// most 5 bytes per row beside the value index's own three, and its
// second levels at most 5 more, and folding every cell of a full-range
// query costs at most a sixteenth of scanning its rows; a set nearly as large as its column
// would save neither memory nor time. A table's sets are not capped
// together: there is at most one per (range, key, input) column triple,
// each at most 20 KB per key, and a shared budget would make the path a
// query takes depend on the queries before it (DESIGN.md, "Bucket
// cells").
const cellsPerRow = 16

// liveBuckets maps each bucket that can hold a value to its number among
// them, -1 for the others, and counts them. Bucket b (0 < b < 255) holds
// the values v with split[b-1] <= v < split[b], which is none when the two
// splits are equal; the first and the last bucket are open-ended.
func (b *ValueBuckets) liveBuckets(float bool) (live [valueBuckets]int32, n int) {
	for k := range live {
		empty := k > 0 && k < valueBuckets-1 &&
			(float && b.fsplit[k-1] == b.fsplit[k] || !float && b.isplit[k-1] == b.isplit[k])
		live[k] = -1
		if !empty {
			live[k] = int32(n)
			n++
		}
	}
	return live, n
}

// cellKey names one cached cell set; an empty key or input is none.
type cellKey struct{ col, key, input string }

// BucketCells returns the (lazily built, cached) bucket cells of the range
// column col, keyed by key — a dictionary column's group codes or a plain
// INT or FLOAT column's value buckets — and aggregating the plain INT or
// FLOAT column input ("" stands for no key or no input), with col's value
// index at the given morsel size, which the edge buckets are read from. It
// returns nil cells when the columns do not qualify — col has no value
// index at that morsel size, key is neither kind of column, input is not a
// plain numeric column — or when the set would break the cellsPerRow rule,
// which it checks before building anything. built reports whether this
// call built the cells. They are cached beside the value index and, like
// it, built outside the cache mutex, once for concurrent first callers,
// and rebuilt with the column's bucket bounds, which are redrawn (a
// numeric key's with them) when the table's length changes; the cells and
// the index returned always share one set of bounds. A failed build (the
// storage/index-build failpoint) returns its error and leaves the entry
// for the next caller to build.
func (t *Table) BucketCells(col, key, input string, morsel int) (c *BucketCells, x *ValueIndex, built bool, err error) {
	rc, err := t.ColumnByName(col)
	if err != nil || !indexable(rc) || morsel <= 0 || morsel > MaxIndexMorsel {
		return nil, nil, false, err
	}
	var kc Column
	if key != "" {
		if kc, err = t.ColumnByName(key); err != nil {
			return nil, nil, false, err
		}
		if _, dict := kc.(*DictColumn); !dict && !indexable(kc) {
			return nil, nil, false, nil
		}
	}
	var in Column
	if input != "" {
		if in, err = t.ColumnByName(input); err != nil || !indexable(in) {
			return nil, nil, false, err
		}
	}
	_, float := rc.(*FloatColumn)
	t.cache.mu.Lock()
	b := t.bucketsLocked(col, rc)
	// The build lays the live buckets out again: an array kept for it
	// would escape to the heap on every lookup, cached or not.
	_, nlive := b.liveBuckets(float)
	var kb *ValueBuckets // a numeric key column's bounds
	keys := 1
	switch c := kc.(type) {
	case nil:
	case *DictColumn:
		keys = max(c.Card(), 1)
	default:
		kb = t.bucketsLocked(key, c)
		_, kfloat := c.(*FloatColumn)
		_, keys = kb.liveBuckets(kfloat)
	}
	if nlive*keys > rc.Len()/cellsPerRow {
		t.cache.mu.Unlock()
		return nil, nil, false, nil
	}
	xe := lazyEntry(&t.cache.indexes, indexKey{col, morsel}, b)
	ce := lazyEntry(&t.cache.cells, cellKey{col, key, input}, b)
	t.cache.mu.Unlock()
	if x, _, err = xe.get(func() *ValueIndex { return buildValueIndex(rc, b, morsel) }); err != nil {
		return nil, nil, false, err
	}
	if c, built, err = ce.get(func() *BucketCells { return buildBucketCells(x, float, kc, kb, in) }); err != nil {
		return nil, nil, false, err
	}
	return c, x, built, nil
}

// buildBucketCells lays out one cell per (live bucket of x, key of the key
// column kc, whose bounds are kb when it is numeric), then folds x's rows
// into them.
func buildBucketCells(x *ValueIndex, float bool, kc Column, kb *ValueBuckets, in Column) *BucketCells {
	live, nlive := x.liveBuckets(float)
	c := &BucketCells{key: kb, x: x, kc: kc, in: in}
	var slot [valueBuckets]int32 // a numeric key bucket's place among the keys
	switch k := kc.(type) {
	case nil:
		c.keys = []int32{0}
	case *DictColumn:
		c.keys = make([]int32, max(k.Card(), 1))
		for i := range c.keys {
			c.keys[i] = int32(i)
		}
	default:
		_, kfloat := k.(*FloatColumn)
		slot, _ = kb.liveBuckets(kfloat)
		for b, l := range slot {
			if l >= 0 {
				c.keys = append(c.keys, int32(b))
			}
		}
	}
	keys := len(c.keys)
	c.cells = make([]Cell, nlive*keys)
	exts := make([]ext, len(c.cells))
	before := 0 // live buckets below b
	for b, l := range live {
		c.start[b] = int32(before * keys)
		if l >= 0 {
			before++
		}
	}
	c.start[valueBuckets] = int32(nlive * keys)
	for i := range c.cells {
		c.cells[i].Group = c.keys[i%keys]
	}
	switch k := kc.(type) {
	case *IntColumn:
		key := &numKey[int64]{v: k.V, split: &kb.isplit, slot: &slot, span: make([]keySpan[int64], valueBuckets)}
		foldInput(x, &live, keys, c.cells, exts, key, nil, in)
		c.ispan = key.span
	case *FloatColumn:
		key := &numKey[float64]{v: k.V, split: &kb.fsplit, slot: &slot, span: make([]keySpan[float64], valueBuckets)}
		foldInput(x, &live, keys, c.cells, exts, key, nil, in)
		c.fspan = key.span
	case *DictColumn:
		foldInput[int64](x, &live, keys, c.cells, exts, nil, k.Codes(), in)
	default:
		foldInput[int64](x, &live, keys, c.cells, exts, nil, nil, in)
	}
	for i := range c.cells {
		c.rows += c.cells[i].Rows
	}
	return c
}

// Sub returns bucket b's second level, building it on the first call for
// b that gets past the storage/index-build failpoint; built reports
// whether this call did. Concurrent first callers share one build, and a
// failed one leaves the level for the next caller to build, as the cells'
// own lazy entry does.
func (c *BucketCells) Sub(b int) (s *SubCells, built bool, err error) {
	c.subMu.Lock()
	e := c.subs[b]
	if e == nil {
		e = new(lazy[*SubCells])
		c.subs[b] = e
	}
	c.subMu.Unlock()
	return e.get(func() *SubCells { return c.buildSub(b) })
}

// buildSub lays out bucket b's second level — as many sub-buckets as the
// cellsPerRow rule allows the bucket's rows, halving from subBuckets down
// to two — and folds the bucket's rows into it, morsel by morsel, so every
// cell meets its rows ascending.
func (c *BucketCells) buildSub(b int) *SubCells {
	keys := len(c.keys)
	rows := 0
	for _, cell := range c.cells[c.start[b]:c.start[b+1]] {
		rows += cell.Rows
	}
	s := &SubCells{}
	for s.Subs()*keys > rows/cellsPerRow {
		if s.shift++; s.Subs() < 2 {
			return s
		}
	}
	s.cells = make([]Cell, s.Subs()*keys)
	for i := range s.cells {
		s.cells[i].Group = c.keys[i%keys]
	}
	var scratch [64]ext // exts of a level of up to 64 cells stay off the heap
	exts := scratch[:]
	if len(s.cells) > len(scratch) {
		exts = make([]ext, len(s.cells))
	}
	var slot [valueBuckets]int32 // a numeric key bucket's place among the keys
	var k cellKeyer
	switch kc := c.kc.(type) {
	case *DictColumn:
		k.codes = kc.Codes()
	case *IntColumn:
		slot, _ = c.key.liveBuckets(false)
		k.ik, k.isplit, k.slot = kc.V, &c.key.isplit, &slot
	case *FloatColumn:
		slot, _ = c.key.liveBuckets(true)
		k.fk, k.fsplit, k.slot = kc.V, &c.key.fsplit, &slot
	}
	switch v := c.in.(type) {
	case *IntColumn:
		foldSub(c.x, b, s, exts, keys, &k, v.V)
	case *FloatColumn:
		foldSub(c.x, b, s, exts, keys, &k, v.V)
	default:
		foldSub[float64](c.x, b, s, exts, keys, &k, nil)
	}
	return s
}

// cellKeyer gives a row its cell key: its dictionary code, its numeric key
// column's bucket's place among the keys, or 0 without a key.
type cellKeyer struct {
	codes  []int32
	ik     []int64
	fk     []float64
	isplit *[valueBuckets]int64
	fsplit *[valueBuckets]float64
	slot   *[valueBuckets]int32
}

// key returns row r's cell key, -1 for a NULL numeric key, which lies in
// no cell.
func (k *cellKeyer) key(r int) int {
	switch {
	case k.codes != nil:
		return int(k.codes[r])
	case k.ik != nil:
		return int(k.slot[bucketOf(k.isplit, k.ik[r])])
	case k.fk != nil:
		if v := k.fk[r]; v == v {
			return int(k.slot[bucketOf(k.fsplit, v)])
		}
		return -1
	}
	return 0
}

// foldSub adds every row of bucket b to its cell of the level s; v is the
// input column, nil for none.
func foldSub[T int64 | float64](x *ValueIndex, b int, s *SubCells, exts []ext, keys int, k *cellKeyer, v []T) {
	for m := 0; m*x.morsel < x.n; m++ {
		base := m * x.morsel
		st := x.starts[m*(valueBuckets+1):]
		lo, hi := base+int(st[b]), base+int(st[b+1])
		for i, o := range x.rows[lo:hi] {
			r := base + int(o)
			key := k.key(r)
			if key < 0 {
				continue
			}
			at := int(x.sub[lo+i]>>s.shift)*keys + key
			addRow(&s.cells[at], r)
			if v != nil {
				addValue(&s.cells[at], &exts[at], r, v[r])
			}
		}
	}
}

// numKey is a numeric key column as the fold reads it: its values and
// bucket bounds, each live bucket's place among the keys, and each
// bucket's least and greatest value, which the fold fills in.
type numKey[K int64 | float64] struct {
	v     []K
	split *[valueBuckets]K
	slot  *[valueBuckets]int32
	span  []keySpan[K]
}

// foldInput runs foldCells over the input column in (nil for none).
func foldInput[K int64 | float64](x *ValueIndex, live *[valueBuckets]int32, keys int, cells []Cell, exts []ext, key *numKey[K], codes []int32, in Column) {
	switch v := in.(type) {
	case *IntColumn:
		foldCells(x, live, keys, cells, exts, key, codes, v.V)
	case *FloatColumn:
		foldCells(x, live, keys, cells, exts, key, codes, v.V)
	default:
		foldCells[float64](x, live, keys, cells, exts, key, codes, nil)
	}
}

// foldCells adds every indexed row to its cell; v is the input column, nil
// for none, and the key is the row's dictionary code in codes or its
// bucket of the numeric key column key (foldKeyed), neither for no key.
// The fold walks the index morsel by morsel and, within one, bucket by
// bucket, so every cell meets its rows in ascending order while the reads
// stay inside one morsel's window of the key and input columns.
func foldCells[T, K int64 | float64](x *ValueIndex, live *[valueBuckets]int32, keys int, cells []Cell, exts []ext, key *numKey[K], codes []int32, v []T) {
	for m := 0; m*x.morsel < x.n; m++ {
		base := m * x.morsel
		st := x.starts[m*(valueBuckets+1):][:valueBuckets+1]
		for b := 0; b < valueBuckets; b++ {
			offs := x.rows[base+int(st[b]) : base+int(st[b+1])]
			if len(offs) == 0 {
				continue
			}
			cs, es := cells[int(live[b])*keys:][:keys], exts[int(live[b])*keys:][:keys]
			switch {
			case key != nil:
				foldKeyed(key, cs, es, base, offs, v)
			case codes != nil:
				for _, o := range offs {
					r := base + int(o)
					addRow(&cs[codes[r]], r)
					if v != nil {
						addValue(&cs[codes[r]], &es[codes[r]], r, v[r])
					}
				}
			default:
				for _, o := range offs {
					r := base + int(o)
					addRow(&cs[0], r)
					if v != nil {
						addValue(&cs[0], &es[0], r, v[r])
					}
				}
			}
		}
	}
}

// foldKeyed adds the rows base+offs, ascending, to the cells cs of their
// key buckets. The bucket is searched inline, four rows abreast; a row
// whose key is NULL goes into no cell, and each other widens its bucket's
// span.
func foldKeyed[T, K int64 | float64](key *numKey[K], cs []Cell, es []ext, base int, offs []uint16, v []T) {
	add := func(kb, r int) {
		kv := key.v[r]
		if kv != kv {
			return
		}
		if sp := &key.span[kb]; sp.rows == 0 {
			sp.lo, sp.hi, sp.rows = kv, kv, 1
		} else {
			sp.lo, sp.hi, sp.rows = min(sp.lo, kv), max(sp.hi, kv), sp.rows+1
		}
		k := key.slot[kb]
		addRow(&cs[k], r)
		if v != nil {
			addValue(&cs[k], &es[k], r, v[r])
		}
	}
	i := 0
	for ; i+4 <= len(offs); i += 4 {
		r0, r1, r2, r3 := base+int(offs[i]), base+int(offs[i+1]), base+int(offs[i+2]), base+int(offs[i+3])
		k0, k1, k2, k3 := bucketOf4(key.split, key.v[r0], key.v[r1], key.v[r2], key.v[r3])
		add(k0, r0)
		add(k1, r1)
		add(k2, r2)
		add(k3, r3)
	}
	for ; i < len(offs); i++ {
		r := base + int(offs[i])
		add(bucketOf(key.split, key.v[r]), r)
	}
}

// ext is the least and greatest input value of a cell being built.
type ext struct{ lo, hi float64 }

// addRow adds row r to the cell c, and addValue its input value x to c,
// whose extremes' values are e: the one rule every cell is built by. A NaN
// x, a NULL input, adds nothing. A cell meets its rows ascending, so First
// is the first row, and only a strictly better extreme replaces the last:
// a MIN/MAX tie keeps the earlier row, as in a scan. Int extremes compare
// in float64, as Value.Compare does, so int64s that meet in float64 tie,
// and so do -0 and +0.
func addRow(c *Cell, r int) {
	if c.Rows == 0 {
		c.First = r
	}
	c.Rows++
}

func addValue[T int64 | float64](c *Cell, e *ext, r int, v T) {
	if v != v {
		return
	}
	x := float64(v)
	if c.N == 0 || x < e.lo {
		c.MinRow, e.lo = r, x
	}
	if c.N == 0 || x > e.hi {
		c.MaxRow, e.hi = r, x
	}
	c.N++
	rsum.Put(&c.Sum, v)
}
