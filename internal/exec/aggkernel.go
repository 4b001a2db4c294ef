// Typed aggregation: the pipeline's typed sink (see pipeline.go).
//
//   - Scalar aggregates (SUM/COUNT/MIN/MAX/AVG) accumulate directly over
//     raw int64/float64 column slices driven by selection vectors — zero
//     Value boxing per row. NaN stays the engine's NULL (skipped), int
//     MIN/MAX compares in the float64 domain exactly like Value.Compare,
//     so results match the reference evaluator bit for bit.
//   - Group-by over a dict-encoded column indexes a dense per-code
//     accumulator array (no hashing at all, distinct ≤ maxDictGroups);
//     a plain or run-coded int column hashes raw int64 keys. String key
//     building survives only in the generic multi-column/string sink.
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
	inputs []storage.Column // boxed agg inputs, for output typing
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
	ak.inputs = inputs
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
// (slot 0 for scalar aggregation, one slot per group otherwise). Only the
// arrays the (kind, fn) pair actually reads are allocated; addSlot grows
// exactly those. Semantics mirror aggState.add: NaN skipped before any
// counting, first value wins ties, int MIN/MAX compared as float64.
type aggItem struct {
	spec       aggSpec
	cur        storage.RLECursor // aiRLE input reader
	count      []int64
	sum        []float64
	imin, imax []int64
	fmin, fmax []float64
	has        []bool
}

// aggAcc is one typed accumulator instance: one per morsel for scalar
// aggregation, one per worker for group-by.
type aggAcc struct {
	ak     *aggKernel
	items  []aggItem
	nslots int
	firsts []int             // per-slot first input position; gmDict: -1 = unseen
	keys   []int64           // per-slot raw key (int-keyed modes)
	slots  map[int64]int     // key → slot (int-keyed modes)
	kcur   storage.RLECursor // group-key reader (gmRLE)
}

// newAcc allocates an accumulator: slot 0 preallocated for scalar mode,
// a dense card-sized array for dict groups, grow-on-demand for int keys.
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
	case gmI64:
		a.slots = make(map[int64]int)
	case gmRLE:
		a.slots = make(map[int64]int)
		a.kcur = ak.grle.Cursor()
	}
	a.items = make([]aggItem, len(ak.specs))
	for i, spec := range ak.specs {
		it := &a.items[i]
		it.spec = spec
		switch spec.kind {
		case aiNone:
		case aiCount:
			it.count = make([]int64, slots)
		case aiI64, aiRLE:
			if spec.kind == aiRLE {
				it.cur = spec.rle.Cursor()
			}
			switch spec.fn {
			case AggMin, AggMax:
				it.imin = make([]int64, slots)
				it.imax = make([]int64, slots)
				it.has = make([]bool, slots)
			default: // SUM/AVG
				it.count = make([]int64, slots)
				it.sum = make([]float64, slots)
			}
		case aiF64:
			switch spec.fn {
			case AggCount:
				it.count = make([]int64, slots)
			case AggMin, AggMax:
				it.fmin = make([]float64, slots)
				it.fmax = make([]float64, slots)
				it.has = make([]bool, slots)
			default: // SUM/AVG
				it.count = make([]int64, slots)
				it.sum = make([]float64, slots)
			}
		}
	}
	return a
}

// minmaxI64 updates an int slot. Comparisons run in the float64 domain —
// exactly Value.Compare's rule — so values straddling 2^53 keep the same
// winner (the first seen among float-equal values) as the generic path.
func (it *aggItem) minmaxI64(slot int, x int64) {
	if !it.has[slot] {
		it.imin[slot], it.imax[slot], it.has[slot] = x, x, true
		return
	}
	fx := float64(x)
	if fx < float64(it.imin[slot]) {
		it.imin[slot] = x
	}
	if fx > float64(it.imax[slot]) {
		it.imax[slot] = x
	}
}

// minmaxF64 updates a float slot; the caller has already dropped NaN.
func (it *aggItem) minmaxF64(slot int, x float64) {
	if !it.has[slot] {
		it.fmin[slot], it.fmax[slot], it.has[slot] = x, x, true
		return
	}
	if x < it.fmin[slot] {
		it.fmin[slot] = x
	}
	if x > it.fmax[slot] {
		it.fmax[slot] = x
	}
}

// addSel accumulates the selected rows into slot 0 (scalar aggregation).
// These are the hot loops: one pass over the selection per item, nothing
// boxed, the fn/kind dispatch hoisted out of the loop.
func (a *aggAcc) addSel(sel []int) {
	for i := range a.items {
		it := &a.items[i]
		switch it.spec.kind {
		case aiCount:
			it.count[0] += int64(len(sel))
		case aiI64:
			v := it.spec.i64
			switch it.spec.fn {
			case AggMin, AggMax:
				for _, r := range sel {
					it.minmaxI64(0, v[r])
				}
			default:
				sum := it.sum[0]
				for _, r := range sel {
					sum += float64(v[r])
				}
				it.sum[0] = sum
				it.count[0] += int64(len(sel))
			}
		case aiF64:
			v := it.spec.f64
			switch it.spec.fn {
			case AggCount:
				c := it.count[0]
				for _, r := range sel {
					if x := v[r]; x == x {
						c++
					}
				}
				it.count[0] = c
			case AggMin, AggMax:
				for _, r := range sel {
					if x := v[r]; x == x {
						it.minmaxF64(0, x)
					}
				}
			default:
				sum, c := it.sum[0], it.count[0]
				for _, r := range sel {
					if x := v[r]; x == x {
						sum += x
						c++
					}
				}
				it.sum[0], it.count[0] = sum, c
			}
		case aiRLE:
			switch it.spec.fn {
			case AggMin, AggMax:
				for _, r := range sel {
					it.minmaxI64(0, it.cur.At(r))
				}
			default:
				sum := it.sum[0]
				for _, r := range sel {
					sum += float64(it.cur.At(r))
				}
				it.sum[0] = sum
				it.count[0] += int64(len(sel))
			}
		}
	}
}

// addRange accumulates the dense row range [lo, hi) into slot 0 — the
// no-WHERE fast path: no selection vector exists at all. RLE inputs fold
// whole runs (sum += value·length), which regroups the float association;
// the parity harnesses compare SUM/AVG within relative tolerance.
func (a *aggAcc) addRange(lo, hi int) {
	for i := range a.items {
		it := &a.items[i]
		switch it.spec.kind {
		case aiCount:
			it.count[0] += int64(hi - lo)
		case aiI64:
			v := it.spec.i64[lo:hi]
			switch it.spec.fn {
			case AggMin, AggMax:
				for _, x := range v {
					it.minmaxI64(0, x)
				}
			default:
				sum := it.sum[0]
				for _, x := range v {
					sum += float64(x)
				}
				it.sum[0] = sum
				it.count[0] += int64(hi - lo)
			}
		case aiF64:
			v := it.spec.f64[lo:hi]
			switch it.spec.fn {
			case AggCount:
				c := it.count[0]
				for _, x := range v {
					if x == x {
						c++
					}
				}
				it.count[0] = c
			case AggMin, AggMax:
				for _, x := range v {
					if x == x {
						it.minmaxF64(0, x)
					}
				}
			default:
				sum, c := it.sum[0], it.count[0]
				for _, x := range v {
					if x == x {
						sum += x
						c++
					}
				}
				it.sum[0], it.count[0] = sum, c
			}
		case aiRLE:
			switch it.spec.fn {
			case AggMin, AggMax:
				it.spec.rle.ForEachRun(lo, hi, func(x int64, _, _ int) {
					it.minmaxI64(0, x)
				})
			default:
				sum, c := it.sum[0], it.count[0]
				it.spec.rle.ForEachRun(lo, hi, func(x int64, rlo, rhi int) {
					sum += float64(x) * float64(rhi-rlo)
					c += int64(rhi - rlo)
				})
				it.sum[0], it.count[0] = sum, c
			}
		}
	}
}

// addSlot registers a new int-keyed group and grows every item's arrays.
func (a *aggAcc) addSlot(k int64, first int) int {
	s := a.nslots
	a.nslots++
	a.slots[k] = s
	a.keys = append(a.keys, k)
	a.firsts = append(a.firsts, first)
	for i := range a.items {
		it := &a.items[i]
		if it.count != nil {
			it.count = append(it.count, 0)
		}
		if it.sum != nil {
			it.sum = append(it.sum, 0)
		}
		if it.imin != nil {
			it.imin = append(it.imin, 0)
			it.imax = append(it.imax, 0)
		}
		if it.fmin != nil {
			it.fmin = append(it.fmin, 0)
			it.fmax = append(it.fmax, 0)
		}
		if it.has != nil {
			it.has = append(it.has, false)
		}
	}
	return s
}

// addRow feeds row r into the given slot for every aggregating item.
func (a *aggAcc) addRow(slot, r int) {
	for i := range a.items {
		it := &a.items[i]
		switch it.spec.kind {
		case aiCount:
			it.count[slot]++
		case aiI64:
			it.addI64(slot, it.spec.i64[r])
		case aiF64:
			if x := it.spec.f64[r]; x == x {
				it.addF64(slot, x)
			}
		case aiRLE:
			it.addI64(slot, it.cur.At(r))
		}
	}
}

func (it *aggItem) addI64(slot int, x int64) {
	switch it.spec.fn {
	case AggMin, AggMax:
		it.minmaxI64(slot, x)
	default:
		it.count[slot]++
		it.sum[slot] += float64(x)
	}
}

func (it *aggItem) addF64(slot int, x float64) {
	switch it.spec.fn {
	case AggCount:
		it.count[slot]++
	case AggMin, AggMax:
		it.minmaxF64(slot, x)
	default:
		it.count[slot]++
		it.sum[slot] += x
	}
}

// addGroupSel routes the selected rows through the group keyer: dict codes
// index slots directly, int keys resolve through the hash map. sel[i] sits
// at input position base+i, which is what a new group records as its
// first-seen position — not the row id, which ascends along a filtered
// scan but not along a caller's (cracked) selection.
func (a *aggAcc) addGroupSel(sel []int, base int) {
	switch a.ak.mode {
	case gmDict:
		codes := a.ak.gcodes
		for i, r := range sel {
			slot := int(codes[r])
			if a.firsts[slot] < 0 {
				a.firsts[slot] = base + i
			}
			a.addRow(slot, r)
		}
	case gmI64:
		keys := a.ak.gi64
		for i, r := range sel {
			k := keys[r]
			slot, ok := a.slots[k]
			if !ok {
				slot = a.addSlot(k, base+i)
			}
			a.addRow(slot, r)
		}
	case gmRLE:
		for i, r := range sel {
			k := a.kcur.At(r)
			slot, ok := a.slots[k]
			if !ok {
				slot = a.addSlot(k, base+i)
			}
			a.addRow(slot, r)
		}
	}
}

// addGroupRange is addGroupSel over a dense row range (no WHERE), where
// input position and row id coincide.
func (a *aggAcc) addGroupRange(lo, hi int) {
	switch a.ak.mode {
	case gmDict:
		codes := a.ak.gcodes
		for r := lo; r < hi; r++ {
			slot := int(codes[r])
			if a.firsts[slot] < 0 {
				a.firsts[slot] = r
			}
			a.addRow(slot, r)
		}
	case gmI64:
		keys := a.ak.gi64
		for r := lo; r < hi; r++ {
			k := keys[r]
			slot, ok := a.slots[k]
			if !ok {
				slot = a.addSlot(k, r)
			}
			a.addRow(slot, r)
		}
	case gmRLE:
		for r := lo; r < hi; r++ {
			k := a.kcur.At(r)
			slot, ok := a.slots[k]
			if !ok {
				slot = a.addSlot(k, r)
			}
			a.addRow(slot, r)
		}
	}
}

// states renders one slot as generic aggState partials — the currency of
// the existing merge and output builders. Items whose (kind, fn) skip an
// array leave the corresponding fields zero; nothing downstream reads them
// (result() touches only what the function defines, merge guards on has).
func (a *aggAcc) states(slot int) []*aggState {
	out := make([]*aggState, len(a.items))
	for i := range a.items {
		it := &a.items[i]
		if it.spec.kind == aiNone {
			continue
		}
		st := &aggState{fn: it.spec.fn}
		if it.count != nil {
			st.count = it.count[slot]
		}
		if it.sum != nil {
			st.sum = it.sum[slot]
		}
		if it.has != nil && it.has[slot] {
			st.has = true
			if it.imin != nil {
				st.min, st.max = storage.Int(it.imin[slot]), storage.Int(it.imax[slot])
			} else {
				st.min, st.max = storage.Float(it.fmin[slot]), storage.Float(it.fmax[slot])
			}
		}
		out[i] = st
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
// by first-seen input position — the sequential insertion order. nil
// entries (workers that never ran) are skipped.
func mergeGroupAccs(ak *aggKernel, accs []*aggAcc) []*groupEntry {
	var entries []*groupEntry
	if ak.mode == gmDict {
		for code := 0; code < ak.gcard; code++ {
			var e *groupEntry
			for _, a := range accs {
				if a == nil || a.firsts[code] < 0 {
					continue
				}
				if e == nil {
					e = &groupEntry{
						key:    []storage.Value{a.keyValue(code)},
						states: a.states(code),
						first:  a.firsts[code],
					}
					continue
				}
				if a.firsts[code] < e.first {
					e.first = a.firsts[code]
				}
				for i, st := range a.states(code) {
					if st != nil {
						e.states[i].merge(st)
					}
				}
			}
			if e != nil {
				entries = append(entries, e)
			}
		}
	} else {
		merged := make(map[int64]*groupEntry)
		for _, a := range accs {
			if a == nil {
				continue
			}
			for slot := 0; slot < a.nslots; slot++ {
				k := a.keys[slot]
				e, ok := merged[k]
				if !ok {
					e = &groupEntry{
						key:    []storage.Value{a.keyValue(slot)},
						states: a.states(slot),
						first:  a.firsts[slot],
					}
					merged[k] = e
					entries = append(entries, e)
					continue
				}
				if a.firsts[slot] < e.first {
					e.first = a.firsts[slot]
				}
				for i, st := range a.states(slot) {
					if st != nil {
						e.states[i].merge(st)
					}
				}
			}
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].first < entries[j].first })
	return entries
}

// typedSink is the pipeline sink over a compiled aggKernel. Scalar partials
// are morsel-indexed so the merge order — and the floating-point sum — is
// deterministic for a given morsel size; group accumulators are
// worker-local (dict mode: dense per-code arrays; int modes: raw-key hash),
// merged and re-sorted by first-seen position.
type typedSink struct {
	ak       *aggKernel
	t        *storage.Table
	q        Query
	m        int
	partials [][]*aggState // scalar: per morsel
	locals   []*aggAcc     // group-by: per worker
}

func newTypedSink(ak *aggKernel, t *storage.Table, q Query, m, morsels, workers int) *typedSink {
	s := &typedSink{ak: ak, t: t, q: q, m: m}
	if ak.mode == gmScalar {
		s.partials = make([][]*aggState, morsels)
	} else {
		s.locals = make([]*aggAcc, workers)
	}
	return s
}

func (s *typedSink) consume(worker, lo, hi int, rows []int) {
	if s.ak.mode == gmScalar {
		acc := s.ak.newAcc()
		if rows == nil {
			acc.addRange(lo, hi)
		} else {
			acc.addSel(rows)
		}
		s.partials[lo/s.m] = acc.states(0)
		return
	}
	acc := s.locals[worker]
	if acc == nil {
		acc = s.ak.newAcc()
		s.locals[worker] = acc
	}
	if rows == nil {
		acc.addGroupRange(lo, hi)
	} else {
		acc.addGroupSel(rows, lo)
	}
}

func (s *typedSink) finish() (*storage.Table, error) {
	if s.ak.mode == gmScalar {
		return mergeScalarPartials(s.t, s.q, s.partials)
	}
	return buildGroupEntries(s.t, s.q, s.ak.inputs, mergeGroupAccs(s.ak, s.locals))
}
