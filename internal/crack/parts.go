package crack

import (
	"cmp"
	"sync"
	"sync/atomic"
)

// Piece partials. A piece that a probe covers holds only rows inside the
// probe's range, so a caller that aggregates the range can fold a partial
// per piece instead of reading its rows. Every piece keeps a slot of such
// partial sets, one per caller key, built from the piece's live rows the
// first time a parts probe covers it and kept until the piece's rows
// change: a cut that splits it, a pending insert that merges into it or a
// delete drops them, each under the write lock. What a set holds is the
// caller's business; the index only builds, keeps and drops it.

// partSlot is one piece's partial sets, one per key. A probe holding only
// the read lock adds a key by compare-and-swap on the list and builds its
// set once (partSet.once), so concurrent first probes of a piece publish
// exactly one set per key; the write lock drops them all.
type partSlot struct{ sets atomic.Pointer[[]*partSet] }

type partSet struct {
	key  any
	once sync.Once
	done atomic.Bool // val is built
	val  any
}

// get returns the slot's entry under key, adding an unbuilt one when
// there is none.
func (s *partSlot) get(key any) *partSet {
	for {
		old := s.sets.Load()
		var list []*partSet
		if old != nil {
			list = *old
		}
		for _, e := range list {
			if e.key == key {
				return e
			}
		}
		next := append(list[:len(list):len(list)], &partSet{key: key})
		if s.sets.CompareAndSwap(old, &next) {
			return next[len(next)-1]
		}
	}
}

// build returns the entry's set, building it from rows with build unless
// it is built already; built reports whether this call built it.
func (e *partSet) build(build func([]int) any, rows []int) (val any, built bool) {
	if !e.done.Load() {
		e.once.Do(func() {
			e.val, built = build(rows), true
			e.done.Store(true)
		})
	}
	return e.val, built
}

// drop forgets every set. Caller holds the write lock.
func (s *partSlot) drop() { s.sets.Store(nil) }

// Parts is one parts probe (ProbeParts): the sets it asks for and, once
// the probe returns, what it found. S is the type of a set. With no Build
// it is a row probe: it asks for no sets and finds every row in range.
type Parts[S any] struct {
	// Key names the sets: a piece keeps one per key. It must be comparable.
	Key any
	// Build makes a piece's set from its live rows, met in crack order. It
	// runs inside the probe's critical section, on as many goroutines at
	// once as Workers allows, and must not keep rows, which may alias the
	// index. nil builds no sets.
	Build func(rows []int) S
	// Workers is how many sets one probe may build at once; 0 or 1 builds
	// them in turn.
	Workers int

	// Sets is the set of every piece in range that has one, in value
	// order.
	Sets []S
	// Rows is the live rows in range that no returned set holds,
	// ascending: the pending inserts in range when Build is set, every row
	// in range when it is nil. Its backing array is reused from probe to
	// probe when it is large enough, and never aliases index state.
	Rows []int
	// Built counts the sets this probe built, BuiltRows the rows it built
	// them from.
	Built, BuiltRows int
}

// ProbeParts answers lo <= v < hi with partial sets in place of row ids:
// in one critical section — read-locked when both bounds are cuts, else
// write-locked after cracking at them — it fills p with the set under
// p.Key of every piece in range, building those that have none yet, and
// with the rows in range that no set holds (Parts.Rows). The error is
// non-nil only when the crack/escalate failpoint is armed and fires.
func ProbeParts[T cmp.Ordered, S any](ix *Index[T], p *Parts[S], lo, hi T) (ProbeStats, error) {
	return probeParts(ix, p, bounds[T]{lo: lo, hi: hi}, true)
}

// ProbePartsFrom is ProbeParts with no upper bound: the rows with lo <= v,
// pending inserts included. It cracks at lo only, so it reaches the
// largest value of the type (MaxInt64, +Inf), which no half-open bound can
// include.
func ProbePartsFrom[T cmp.Ordered, S any](ix *Index[T], p *Parts[S], lo T) (ProbeStats, error) {
	return probeParts(ix, p, bounds[T]{lo: lo, top: true}, true)
}

func probeParts[T cmp.Ordered, S any](ix *Index[T], p *Parts[S], b bounds[T], escalate bool) (ProbeStats, error) {
	p.Sets, p.Rows, p.Built, p.BuiltRows = p.Sets[:0], p.Rows[:0], 0, 0
	return ix.within(b, escalate, func(ia, ib int) { partsLocked(ix, p, ia, ib, b) })
}

// partsLocked fills p from the pieces between the cuts at indexes ia and
// ib — pieces ia+1 through ib, piece i lying between cuts[i-1] and cuts[i]
// — and from the pending buffer, building the sets the pieces lack across
// p.Workers goroutines; with no p.Build, it collects their rows instead.
// Caller holds at least the read lock.
func partsLocked[T cmp.Ordered, S any](ix *Index[T], p *Parts[S], ia, ib int, b bounds[T]) {
	if p.Build == nil {
		p.Rows = ix.collectLocked(p.Rows, ix.posOf(ia), ix.posOf(ib), b)
		return
	}
	var jobs []job
	if cap(p.Sets) < ib-ia {
		p.Sets = make([]S, 0, ib-ia)
	}
	var zero S
	for i := ia + 1; i <= ib; i++ {
		p0, p1 := ix.cuts[i-1].pos, ix.posOf(i)
		if p0 == p1 {
			continue
		}
		e := ix.parts[i].get(p.Key)
		if e.done.Load() {
			p.Sets = append(p.Sets, e.val.(S))
			continue
		}
		rows := ix.rows[p0:p1]
		if ix.tombs > 0 {
			var live []int
			for _, r := range rows {
				if ix.isLive(r) {
					live = append(live, r)
				}
			}
			rows = live
		}
		jobs = append(jobs, job{e: e, rows: rows, at: len(p.Sets)})
		p.Sets = append(p.Sets, zero)
	}
	if len(jobs) > 0 {
		buildJobs(p, jobs)
	}
	if len(ix.pending) > 0 {
		p.Rows = ix.collectLocked(p.Rows, 0, 0, b)
	}
}

// job is a piece whose set a parts probe finds unbuilt.
type job struct {
	e     *partSet
	rows  []int // the piece's live rows
	at    int   // its set's place in Parts.Sets
	built bool  // the probe built it, no concurrent one
}

// buildJobs builds the sets of jobs into p.Sets across p.Workers
// goroutines, and counts the ones it built.
func buildJobs[S any](p *Parts[S], jobs []job) {
	build := func(rows []int) any { return p.Build(rows) }
	run := func(j int) {
		var val any
		val, jobs[j].built = jobs[j].e.build(build, jobs[j].rows)
		p.Sets[jobs[j].at] = val.(S)
	}
	if w := min(p.Workers, len(jobs)); w <= 1 {
		for j := range jobs {
			run(j)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for ; w > 0; w-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := int(next.Add(1)) - 1; j < len(jobs); j = int(next.Add(1)) - 1 {
					run(j)
				}
			}()
		}
		wg.Wait()
	}
	for _, j := range jobs {
		if j.built {
			p.Built++
			p.BuiltRows += len(j.rows)
		}
	}
}
