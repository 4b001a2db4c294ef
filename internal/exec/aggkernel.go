// Typed aggregation: the pipeline's typed sink (see pipeline.go).
//
//   - Scalar aggregates (SUM/COUNT/MIN/MAX/AVG) accumulate directly over
//     raw int64/float64 column slices driven by selection vectors — zero
//     Value boxing per row. NaN stays the engine's NULL (skipped), int
//     MIN/MAX compares in the float64 domain exactly like Value.Compare,
//     so results match the reference evaluator bit for bit.
//   - Group-by runs a column at a time, two passes per morsel. The slot
//     pass maps each qualifying row to its accumulator slot once, into a
//     pooled []int32: dict codes are the slots (distinct ≤ maxDictGroups,
//     no hashing; a dense range reads the code slice in place), raw int64
//     keys cost one map probe per row, run-coded keys one per run. The
//     item pass then runs one tight loop per select item over (slots,
//     rows). String key building survives only in the generic
//     multi-column/string sink.
//   - With no predicate the accumulators read the morsel's dense row range
//     directly: no selection vector exists at all.
//
// Compilation never fails a query: any unsupported shape — including
// invalid select lists — returns a nil kernel with a stable fallback
// reason, and the generic sink produces the canonical results and errors.
// The differential fuzzer and the parity matrix hold both equal to Execute.
package exec

import (
	"sort"

	"dex/internal/rsum"
	"dex/internal/storage"
)

// maxDictGroups caps the dense per-code accumulator arrays of a
// dict-grouped aggregation; wider dictionaries fall back to the generic
// hash path rather than commit card × items × workers slots.
const maxDictGroups = 4096

// aggInKind classifies one select item's input for the typed accumulator.
type aggInKind uint8

const (
	aiNone  aggInKind = iota // plain group column: no accumulation
	aiCount                  // row counting only: COUNT(*) or COUNT over a never-NULL column
	aiI64                    // raw int64 slice
	aiF64                    // raw float64 slice (NaN = NULL, skipped)
	aiRLE                    // run-coded int64, read through an RLECursor
)

// aggSpec binds one select item to its typed input.
type aggSpec struct {
	fn   AggFunc
	kind aggInKind
	i64  []int64
	f64  []float64
	rle  *storage.RLEIntColumn
}

// groupMode says how rows map to accumulator slots.
type groupMode uint8

const (
	gmScalar groupMode = iota // no GROUP BY: every row is slot 0
	gmDict                    // dict codes index a dense slot array
	gmI64                     // raw int64 keys hash to slots
	gmRLE                     // run-coded int64 keys hash to slots
)

// aggKernel is a compiled typed-aggregation plan: per-item input bindings
// plus the group-key binding (single grouping column only).
type aggKernel struct {
	specs  []aggSpec
	mode   groupMode
	gcodes []int32               // gmDict: per-row codes
	gdict  []string              // gmDict: code → value
	gcard  int                   // gmDict: slot count
	gi64   []int64               // gmI64: per-row keys
	grle   *storage.RLEIntColumn // gmRLE: run-coded keys
}

// compileAggKernel tries to bind the query's aggregation to typed kernels.
// A nil kernel means "use the generic sink"; the reason string is the
// stable fallback label the scan span records.
func compileAggKernel(t *storage.Table, q Query) (*aggKernel, string) {
	ak := &aggKernel{mode: gmScalar}
	var inputs []storage.Column
	var err error
	if len(q.GroupBy) > 0 {
		if len(q.GroupBy) > 1 {
			return nil, "multi-column group"
		}
		var groupCols []storage.Column
		groupCols, inputs, err = groupInputs(t, q)
		if err != nil {
			// The generic path re-derives and reports the canonical error.
			return nil, "invalid query"
		}
		switch gc := groupCols[0].(type) {
		case *storage.DictColumn:
			if gc.Card() > maxDictGroups {
				return nil, "dict cardinality"
			}
			ak.mode, ak.gcodes, ak.gdict, ak.gcard = gmDict, gc.Codes(), gc.Dict(), gc.Card()
		case *storage.IntColumn:
			ak.mode, ak.gi64 = gmI64, gc.V
		case *storage.RLEIntColumn:
			ak.mode, ak.grle = gmRLE, gc
		default:
			return nil, "group column type"
		}
	} else {
		inputs, err = scalarInputs(t, q)
		if err != nil {
			return nil, "invalid query"
		}
	}
	ak.specs = make([]aggSpec, len(q.Select))
	for i, item := range q.Select {
		spec := &ak.specs[i]
		spec.fn = item.Agg
		if item.Agg == AggNone {
			spec.kind = aiNone
			continue
		}
		if inputs[i] == nil { // COUNT(*)
			spec.kind = aiCount
			continue
		}
		switch c := inputs[i].(type) {
		case *storage.IntColumn:
			spec.kind, spec.i64 = aiI64, c.V
		case *storage.FloatColumn:
			spec.kind, spec.f64 = aiF64, c.V
		case *storage.RLEIntColumn:
			spec.kind, spec.rle = aiRLE, c
		default:
			// String inputs: only COUNT is typed (strings are never NULL,
			// so it is a plain row count); MIN/MAX need string compares.
			if item.Agg == AggCount {
				spec.kind = aiCount
				continue
			}
			return nil, "string agg input"
		}
		if item.Agg == AggCount && spec.kind != aiF64 {
			// Ints carry no NULL; COUNT over them never inspects values.
			*spec = aggSpec{fn: AggCount, kind: aiCount}
		}
	}
	return ak, ""
}

// aggItem holds one select item's accumulators as per-slot parallel arrays
// (one slot for scalar aggregation, one per group otherwise). Only the
// arrays the (kind, fn) pair actually reads are allocated; grow extends
// exactly those. Semantics mirror aggState.add: NaN skipped before any
// counting, SUM/AVG through the one order-free sum (rsum), int MIN/MAX
// compared as float64, and a MIN/MAX slot remembers the row id of its
// extreme so merges can break ties on it.
type aggItem struct {
	spec  aggSpec
	cur   storage.RLECursor // aiRLE input reader
	sg    float64           // MIN/MAX: +1 keeps the least value, -1 the greatest
	count []int64
	sum   []rsum.Sum
	iext  []int64   // MIN/MAX over int input: the extreme so far
	fext  []float64 // MIN/MAX over float input: the extreme so far
	at    []int     // MIN/MAX: row id of the extreme
	has   []bool
}

// aggAcc is one typed accumulator instance; every worker keeps its own.
type aggAcc struct {
	ak     *aggKernel
	items  []aggItem
	nslots int
	firsts []int             // per-slot first row id; gmDict: -1 = unseen
	unseen int               // gmDict: slots not yet seen
	keys   []int64           // per-slot raw key (int-keyed modes)
	slots  map[int64]int32   // key → slot (int-keyed modes)
	kcur   storage.RLECursor // group-key reader (gmRLE)
}

// newAcc allocates an accumulator: one slot for scalar mode, a dense
// card-sized array for dict groups, grow-on-demand for int keys.
func (ak *aggKernel) newAcc() *aggAcc {
	slots := 0
	switch ak.mode {
	case gmScalar:
		slots = 1
	case gmDict:
		slots = ak.gcard
	}
	a := &aggAcc{ak: ak, nslots: slots}
	switch ak.mode {
	case gmDict:
		a.firsts = make([]int, slots)
		for i := range a.firsts {
			a.firsts[i] = -1
		}
		a.unseen = slots
	case gmI64:
		a.slots = make(map[int64]int32)
	case gmRLE:
		a.slots = make(map[int64]int32)
		a.kcur = ak.grle.Cursor()
	}
	a.items = make([]aggItem, len(ak.specs))
	for i, spec := range ak.specs {
		it := &a.items[i]
		it.spec = spec
		if spec.kind == aiRLE {
			it.cur = spec.rle.Cursor()
		}
		switch {
		case spec.kind == aiNone:
		case spec.kind == aiCount || spec.fn == AggCount:
			it.count = make([]int64, slots)
		case spec.fn == AggMin || spec.fn == AggMax:
			it.sg = 1
			if spec.fn == AggMax {
				it.sg = -1
			}
			if spec.kind == aiF64 {
				it.fext = make([]float64, slots)
			} else {
				it.iext = make([]int64, slots)
			}
			it.at = make([]int, slots)
			it.has = make([]bool, slots)
		default: // SUM/AVG
			it.count = make([]int64, slots)
			it.sum = make([]rsum.Sum, slots)
		}
	}
	return a
}

// offer hands x, read from row r, to MIN/MAX slot s of an item whose
// extremes are ext (it.iext or it.fext). Ints compare in the float64
// domain — exactly Value.Compare's rule — and only a strictly better value
// replaces the extreme, so among values that tie yet differ (int64
// neighbours past 2^53, -0 and +0) the first offered wins. An accumulator
// meets its rows in ascending row id, so that is the earliest one, as in
// the sequential evaluator. Scaling by it.sg (±1) is exact, so MAX ties
// exactly where MIN does. The caller has already dropped NaN.
func offer[T int64 | float64](it *aggItem, ext []T, s int, x T, r int) {
	if !it.has[s] || it.sg*float64(x) < it.sg*float64(ext[s]) {
		ext[s], it.at[s], it.has[s] = x, r, true
	}
}

// at returns a morsel's j-th qualifying row: rows[j], or base+j when rows
// is nil, the dense range.
func at(rows []int, base, j int) int {
	if rows != nil {
		return rows[j]
	}
	return base + j
}

// addScalar accumulates one morsel into the scalar slot, 0. rows lists the
// qualifying rows of the morsel's input [lo, hi); nil means the whole
// dense range — the no-WHERE path, where no selection vector exists at
// all. These are the hot loops: one pass per item, nothing boxed, the
// fn/kind dispatch hoisted out of the loop. A dense range of RLE input
// folds whole runs, each as its length's deposits of its value at once.
func (a *aggAcc) addScalar(lo, hi int, rows []int) {
	const s = 0
	n := hi - lo
	if rows != nil {
		n = len(rows)
	}
	for i := range a.items {
		it := &a.items[i]
		switch it.spec.kind {
		case aiCount:
			it.count[s] += int64(n)
		case aiI64:
			scalarItem(it, it.iext, window(it.spec.i64, rows, lo, n), rows, lo)
		case aiF64:
			scalarItem(it, it.fext, window(it.spec.f64, rows, lo, n), rows, lo)
		case aiRLE:
			switch {
			case it.has != nil && rows == nil:
				it.spec.rle.ForEachRun(lo, hi, func(x int64, rlo, _ int) {
					offer(it, it.iext, s, x, rlo)
				})
			case it.has != nil:
				for _, r := range rows {
					offer(it, it.iext, s, it.cur.At(r), r)
				}
			case rows == nil:
				sum := &it.sum[s]
				it.spec.rle.ForEachRun(lo, hi, func(x int64, rlo, rhi int) {
					sum.AddIntN(x, rhi-rlo)
				})
				it.count[s] += int64(n)
			default:
				for _, r := range rows {
					it.sum[s].AddInt(it.cur.At(r))
				}
				it.count[s] += int64(n)
			}
		}
	}
}

// scalarItem folds one item over its raw column v (see window) into the
// scalar slot, with the running count held in a register and a SUM/AVG's
// folds in rsum's. ext is the item's MIN/MAX array of v's type; for int64
// the NULL test x == x folds away at compile time.
func scalarItem[T int64 | float64](it *aggItem, ext, v []T, rows []int, base int) {
	const s = 0
	switch it.spec.fn {
	case AggMin, AggMax:
		if rows == nil {
			for j, x := range v {
				if x == x {
					offer(it, ext, s, x, base+j)
				}
			}
		} else {
			for _, r := range rows {
				if x := v[r]; x == x {
					offer(it, ext, s, x, r)
				}
			}
		}
	case AggCount: // over a FLOAT: NULLs do not count
		c := it.count[s]
		if rows == nil {
			for _, x := range v {
				if x == x {
					c++
				}
			}
		} else {
			for _, r := range rows {
				if x := v[r]; x == x {
					c++
				}
			}
		}
		it.count[s] = c
	default: // SUM/AVG
		it.count[s] += int64(rsum.FoldAt(&it.sum[s], v, rows))
	}
}

// addGroups folds one morsel into a group accumulator in two passes: the
// slot pass maps every qualifying row to its slot once, then the item pass
// runs one loop per select item. rows lists the qualifying rows of the
// morsel's input [lo, hi); nil rows means the whole dense range.
func (a *aggAcc) addGroups(lo, hi int, rows []int) {
	if rows != nil && len(rows) == 0 {
		return
	}
	slots, buf := a.slotPass(lo, hi, rows)
	a.fold(slots, rows, lo)
	if buf != nil {
		slotFree.put(buf)
	}
}

// slotPass returns each qualifying row's slot, in row order; nil rows means
// the dense range [base, hi). It is the only place a group keyer lives:
// dict codes are the slots (a dense range hands back the code slice itself,
// no copy), int keys cost one map probe per row, run-coded keys one probe
// per run. New groups are registered with their first row, and every
// item's arrays grow to cover them before the item pass. buf, when non-nil,
// is the pooled vector backing slots, which the caller returns to slotFree.
func (a *aggAcc) slotPass(base, hi int, rows []int) (slots []int32, buf *[]int32) {
	ak := a.ak
	if ak.mode == gmDict && rows == nil {
		slots = ak.gcodes[base:hi]
	} else {
		n := hi - base
		if rows != nil {
			n = len(rows)
		}
		buf = getSlots(n)
		slots = *buf
	}
	switch ak.mode {
	case gmDict:
		if rows != nil {
			codes := ak.gcodes
			for i, r := range rows {
				slots[i] = codes[r]
			}
		}
		a.markFirsts(slots, rows, base)
		return slots, buf
	case gmI64:
		keys := ak.gi64
		if rows == nil {
			for i, k := range keys[base:hi] {
				slots[i] = a.slotOf(k, base+i)
			}
		} else {
			for i, r := range rows {
				slots[i] = a.slotOf(keys[r], r)
			}
		}
	case gmRLE:
		if rows == nil {
			ak.grle.ForEachRun(base, hi, func(k int64, rlo, rhi int) {
				s := a.slotOf(k, rlo)
				for i := rlo - base; i < rhi-base; i++ {
					slots[i] = s
				}
			})
		} else {
			run, s := -1, int32(0)
			for i, r := range rows {
				k := a.kcur.At(r)
				if a.kcur.Run() != run {
					run, s = a.kcur.Run(), a.slotOf(k, r)
				}
				slots[i] = s
			}
		}
	}
	a.grow()
	return slots, buf
}

// markFirsts records the first row of every dict slot the morsel meets for
// the first time; once every code has been seen it stops looking.
func (a *aggAcc) markFirsts(slots []int32, rows []int, base int) {
	firsts, unseen := a.firsts, a.unseen
	for i := 0; i < len(slots) && unseen > 0; i++ {
		if s := slots[i]; firsts[s] < 0 {
			firsts[s] = at(rows, base, i)
			unseen--
		}
	}
	a.unseen = unseen
}

// slotOf returns the int key's slot, registering it with first row r when
// it is new.
func (a *aggAcc) slotOf(k int64, r int) int32 {
	if s, ok := a.slots[k]; ok {
		return s
	}
	return a.newSlot(k, r)
}

// newSlot registers a new int-keyed group; the items' arrays catch up in
// grow, once per slot pass. It stays out of slotOf so that the per-row
// probe inlines into the slot pass's loops.
func (a *aggAcc) newSlot(k int64, r int) int32 {
	s := int32(a.nslots)
	a.nslots++
	a.slots[k] = s
	a.keys = append(a.keys, k)
	a.firsts = append(a.firsts, r)
	return s
}

// grow extends every allocated item array to nslots entries.
func (a *aggAcc) grow() {
	for i := range a.items {
		it := &a.items[i]
		it.count = growTo(it.count, a.nslots)
		it.sum = growTo(it.sum, a.nslots)
		it.iext = growTo(it.iext, a.nslots)
		it.fext = growTo(it.fext, a.nslots)
		it.at = growTo(it.at, a.nslots)
		it.has = growTo(it.has, a.nslots)
	}
}

// growTo zero-extends s to n entries; a nil s (an array the item does not
// keep) stays nil.
func growTo[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	var zero T
	for len(s) < n {
		s = append(s, zero)
	}
	return s
}

// fold is the item pass: one loop per select item over the morsel, with
// the (kind, fn) dispatch hoisted out of it. Row at(rows, base, j) lands in
// slots[j].
func (a *aggAcc) fold(slots []int32, rows []int, base int) {
	for i := range a.items {
		it := &a.items[i]
		switch it.spec.kind {
		case aiCount:
			for _, s := range slots {
				it.count[s]++
			}
		case aiI64:
			foldItem(it, it.iext, window(it.spec.i64, rows, base, len(slots)), slots, rows, base)
		case aiF64:
			foldItem(it, it.fext, window(it.spec.f64, rows, base, len(slots)), slots, rows, base)
		case aiRLE:
			for j, s := range slots {
				r := at(rows, base, j)
				if x := it.cur.At(r); it.has != nil {
					offer(it, it.iext, int(s), x, r)
				} else {
					it.sum[s].AddInt(x)
					it.count[s]++
				}
			}
		}
	}
}

// window is the part of a raw column fold reads: the dense range, or all
// of it under a selection.
func window[T any](v []T, rows []int, base, n int) []T {
	if rows == nil {
		return v[base : base+n]
	}
	return v
}

// foldItem folds one item over its raw column v (see window). ext is the
// item's MIN/MAX array of v's type; for int64 the NULL test x == x folds
// away at compile time.
func foldItem[T int64 | float64](it *aggItem, ext, v []T, slots []int32, rows []int, base int) {
	switch it.spec.fn {
	case AggMin, AggMax:
		if rows == nil {
			for j, s := range slots {
				if x := v[j]; x == x {
					offer(it, ext, int(s), x, base+j)
				}
			}
		} else {
			for j, s := range slots {
				r := rows[j]
				if x := v[r]; x == x {
					offer(it, ext, int(s), x, r)
				}
			}
		}
	case AggCount: // over a FLOAT: NULLs do not count
		count := it.count
		if rows == nil {
			for j, s := range slots {
				if x := v[j]; x == x {
					count[s]++
				}
			}
		} else {
			for j, s := range slots {
				if x := v[rows[j]]; x == x {
					count[s]++
				}
			}
		}
	default: // SUM/AVG
		rsum.FoldSlots(it.sum, it.count, slots, v, rows)
	}
}

// state renders item i's slot as a generic aggState partial — the
// currency of the existing merge and output builders. Items whose (kind,
// fn) skip an array leave the corresponding fields zero; nothing
// downstream reads them (result() touches only what the function defines,
// merge guards on has).
func (a *aggAcc) state(i, slot int) aggState {
	it := &a.items[i]
	st := aggState{fn: it.spec.fn}
	if it.count != nil {
		st.count = it.count[slot]
	}
	if it.sum != nil {
		st.sum = it.sum[slot]
	}
	if it.has != nil && it.has[slot] {
		st.has, st.at = true, it.at[slot]
		if it.iext != nil {
			st.ext = storage.Int(it.iext[slot])
		} else {
			st.ext = storage.Float(it.fext[slot])
		}
	}
	return st
}

// states renders one slot's items as heap partials, nil for a plain group
// column.
func (a *aggAcc) states(slot int) []*aggState {
	out := make([]*aggState, len(a.items))
	for i := range a.items {
		if a.items[i].spec.kind != aiNone {
			st := a.state(i, slot)
			out[i] = &st
		}
	}
	return out
}

// keyValue renders a slot's group key as a boxed value for the output row.
func (a *aggAcc) keyValue(slot int) storage.Value {
	if a.ak.mode == gmDict {
		return storage.String_(a.ak.gdict[slot])
	}
	return storage.Int(a.keys[slot])
}

// mergeGroupAccs folds per-worker accumulators into group entries ordered
// by first row — the sequential insertion order. nil entries (workers that
// never ran) are skipped. One pass walks each worker's slots in worker
// order: a dict slot is its code (codes the worker never met are skipped),
// an int slot is keyed by its raw key. The states merge through
// aggState.merge, so a MIN/MAX tie between workers goes to the earlier
// row, not to the worker merged first.
func mergeGroupAccs(accs []*aggAcc) []*groupEntry {
	groups := 0 // size hint: the most slots any one worker holds
	for _, a := range accs {
		if a != nil {
			groups = max(groups, a.nslots)
		}
	}
	entries := make([]*groupEntry, 0, groups)
	merged := make(map[int64]*groupEntry, groups)
	for _, a := range accs {
		if a == nil {
			continue
		}
		for slot := 0; slot < a.nslots; slot++ {
			first := a.firsts[slot]
			if first < 0 {
				continue
			}
			k := int64(slot)
			if a.ak.mode != gmDict {
				k = a.keys[slot]
			}
			e, ok := merged[k]
			if !ok {
				e = &groupEntry{key: []storage.Value{a.keyValue(slot)}, states: a.states(slot), first: first}
				merged[k] = e
				entries = append(entries, e)
				continue
			}
			e.first = min(e.first, first)
			for i, st := range a.states(slot) {
				if st != nil {
					e.states[i].merge(st)
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].first < entries[j].first })
	return entries
}

// typedSink is the pipeline sink over a compiled aggKernel. Every worker
// keeps its own accumulator — one slot for a scalar aggregate; dict mode's
// dense per-code arrays or int modes' raw-key hash for a grouped one — and
// finish merges them in any order: counts and rsum's sums are order-free,
// and MIN/MAX ties go to the earlier row. Groups are re-sorted by first
// row. A morsel costs the sink no allocation.
type typedSink struct {
	ak     *aggKernel
	t      *storage.Table
	q      Query
	locals []*aggAcc // per worker
}

func newTypedSink(ak *aggKernel, t *storage.Table, q Query, workers int) *typedSink {
	return &typedSink{ak: ak, t: t, q: q, locals: make([]*aggAcc, workers)}
}

func (s *typedSink) consume(worker, lo, hi int, rows []int) {
	acc := s.locals[worker]
	if acc == nil {
		acc = s.ak.newAcc()
		s.locals[worker] = acc
	}
	if s.ak.mode == gmScalar {
		acc.addScalar(lo, hi, rows)
		return
	}
	acc.addGroups(lo, hi, rows)
}

func (s *typedSink) finish() (*storage.Table, error) {
	if s.ak.mode != gmScalar {
		return buildGroupEntries(s.t.Name(), s.t.Schema(), s.q, mergeGroupAccs(s.locals))
	}
	states := newAggStates(s.q)
	for _, acc := range s.locals {
		if acc == nil {
			continue
		}
		for i, st := range states {
			p := acc.state(i, 0)
			st.merge(&p)
		}
	}
	return buildScalarOutput(s.t.Name(), s.q, states)
}
