package storage

// Bucket cells pre-aggregate a range column's value buckets. A range whose
// bucket run [bl, bh] spans more than two buckets contains every row of
// the buckets strictly between bl and bh — bucketOf is non-decreasing, so
// a value in such a bucket lies strictly between the range's bounds — and
// only the two edge buckets need their rows tested. Bucket cells keep, for
// one range column, one dictionary group column (or none) and one numeric
// input column (or none), one partial aggregate per (bucket, group code),
// so a query answers the interior from a few hundred cells instead of its
// rows. Like the value index they come from, cells are built lazily on
// first use (Table.BucketCells), once, and are immutable afterwards.

// Cell is one (bucket, group code) partial aggregate. Its rows are met in
// ascending row order, so First, Sum's association and the MIN/MAX ties
// are those of a scan: a tie between equal values (int64s that meet in
// float64, -0 and +0) keeps the first row. The extremes are kept as rows;
// their values are the input column's at those rows.
type Cell struct {
	Group  int32   // the group code; 0 without a group column
	Rows   int     // rows in the cell
	First  int     // the first of them
	N      int     // rows whose input is not NULL
	Sum    float64 // their input values, added in row order as float64
	MinRow int     // the first row holding the least input value; valid when N > 0
	MaxRow int     // the first row holding the greatest
}

// BucketCells are the cells of one (range, group, input) column triple.
// Bucket b's cells are cells[start[b]:start[b+1]]: one per group code, in
// code order, when b is a bucket that can hold a value, else none. A cell
// no row fell into has Rows 0. A NULL range value lies in no bucket and no
// cell.
type BucketCells struct {
	start [valueBuckets + 1]int32
	cells []Cell
}

// Interior returns the cells of the buckets strictly between bl and bh, in
// (bucket, group code) order; bl may be -1 and bh valueBuckets, so that
// Interior(b-1, b+1) is bucket b's cells.
func (c *BucketCells) Interior(bl, bh int) []Cell {
	if bh-bl < 2 {
		return nil
	}
	return c.cells[c.start[bl+1]:c.start[bh]]
}

// cellsPerRow caps a cell set's size: cells are built only while the
// buckets that can hold a value times the group codes — the cells — stay
// at or under the column's rows divided by it. A cell takes 56 bytes, so
// a set costs at most 3.5 bytes per row — under twice the value index's
// own two — and folding every cell of a full-range query costs at most a
// sixteenth of scanning its rows; a set nearly as large as its column
// would save neither memory nor time. A table's sets are not capped
// together: there is at most one per (range, group, input) column triple,
// each at most 14 KB per group code, and a shared budget would make the
// path a query takes — and so a float SUM's last bits — depend on the
// queries before it (DESIGN.md, "Bucket cells").
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

// cellKey names one cached cell set; an empty group or input is none.
type cellKey struct{ col, group, input string }

// BucketCells returns the (lazily built, cached) bucket cells of the range
// column col, grouped by the dictionary column group and aggregating the
// plain INT or FLOAT column input ("" stands for no group or no input),
// with col's value index at the given morsel size, which the edge buckets
// are read from. It returns nil cells when the columns do not qualify —
// col has no value index at that morsel size, group is not a dictionary
// column, input is not a plain numeric column — or when the set would break
// the cellsPerRow rule, which it checks before building anything. built
// reports whether this call built the cells. They are cached beside the
// value index and, like it, built outside the cache mutex, once for
// concurrent first callers, and rebuilt with the column's bucket bounds,
// which are redrawn when the column's length changes; the cells and the
// index returned always share one set of bounds.
func (t *Table) BucketCells(col, group, input string, morsel int) (c *BucketCells, x *ValueIndex, built bool, err error) {
	rc, err := t.ColumnByName(col)
	if err != nil || !indexable(rc) || morsel <= 0 || morsel > MaxIndexMorsel {
		return nil, nil, false, err
	}
	var codes []int32
	groups := 1
	if group != "" {
		gc, err := t.ColumnByName(group)
		d, ok := gc.(*DictColumn)
		if err != nil || !ok {
			return nil, nil, false, err
		}
		codes, groups = d.Codes(), max(d.Card(), 1)
	}
	var in Column
	if input != "" {
		if in, err = t.ColumnByName(input); err != nil || !indexable(in) {
			return nil, nil, false, err
		}
	}
	_, float := rc.(*FloatColumn)
	t.zones.mu.Lock()
	b := t.bucketsLocked(col, rc)
	live, nlive := b.liveBuckets(float)
	if nlive*groups > rc.Len()/cellsPerRow {
		t.zones.mu.Unlock()
		return nil, nil, false, nil
	}
	xe := lazyEntry(&t.zones.indexes, indexKey{col, morsel}, b)
	ce := lazyEntry(&t.zones.cells, cellKey{col, group, input}, b)
	t.zones.mu.Unlock()
	x, _ = xe.get(func() *ValueIndex { return buildValueIndex(rc, b, morsel) })
	c, built = ce.get(func() *BucketCells { return buildBucketCells(x, &live, nlive, codes, groups, in) })
	return c, x, built, nil
}

// buildBucketCells lays out one cell per (live bucket, group code), then
// folds x's rows into them.
func buildBucketCells(x *ValueIndex, live *[valueBuckets]int32, nlive int, codes []int32, groups int, in Column) *BucketCells {
	c := &BucketCells{cells: make([]Cell, nlive*groups)}
	before := 0 // live buckets below k
	for k, l := range live {
		c.start[k] = int32(before * groups)
		if l >= 0 {
			before++
		}
	}
	c.start[valueBuckets] = int32(nlive * groups)
	for i := range c.cells {
		c.cells[i].Group = int32(i % groups)
	}
	switch v := in.(type) {
	case *IntColumn:
		foldCells(x, live, codes, groups, c.cells, v.V)
	case *FloatColumn:
		foldCells(x, live, codes, groups, c.cells, v.V)
	default:
		foldCells[float64](x, live, codes, groups, c.cells, nil)
	}
	return c
}

// foldCells adds every indexed row to its cell; v is the input column, nil
// for none. The fold walks the index morsel by morsel and, within one,
// bucket by bucket, so every cell meets its rows in ascending order while
// the reads stay inside one morsel's window of the group and input
// columns. Int extremes compare in float64, as Value.Compare
// does, and only a strictly better value moves them, so a tie keeps the
// earlier row.
func foldCells[T int64 | float64](x *ValueIndex, live *[valueBuckets]int32, codes []int32, groups int, cells []Cell, v []T) {
	for m := 0; m*x.morsel < x.n; m++ {
		base := m * x.morsel
		st := x.starts[m*(valueBuckets+1):][:valueBuckets+1]
		for k := 0; k < valueBuckets; k++ {
			offs := x.rows[base+int(st[k]) : base+int(st[k+1])]
			if len(offs) == 0 {
				continue
			}
			cs := cells[int(live[k])*groups:][:groups]
			for _, o := range offs {
				r := base + int(o)
				c := &cs[0]
				if codes != nil {
					c = &cs[codes[r]]
				}
				if c.Rows == 0 {
					c.First = r
				}
				c.Rows++
				if v == nil {
					continue
				}
				xv := v[r]
				if xv != xv {
					continue
				}
				switch {
				case c.N == 0:
					c.MinRow, c.MaxRow = r, r
				case float64(xv) < float64(v[c.MinRow]):
					c.MinRow = r
				case float64(xv) > float64(v[c.MaxRow]):
					c.MaxRow = r
				}
				c.N++
				c.Sum += float64(xv)
			}
		}
	}
}
