package storage

// KeySpan returns, for cells keyed by a numeric column, how many rows in
// cells key bucket k holds and the least and greatest key value among
// them.
func (c *BucketCells) KeySpan(k int) (rows int, lo, hi Value) {
	if c.ispan != nil {
		s := c.ispan[k]
		return s.rows, Int(s.lo), Int(s.hi)
	}
	s := c.fspan[k]
	return s.rows, Float(s.lo), Float(s.hi)
}

// Cells returns every cell of the level, in (sub-bucket, key) order.
func (s *SubCells) Cells() []Cell { return s.cells }
