package storage

import (
	"math"
	"sync"

	"dex/internal/fault"
)

// fpZoneBuild injects faults into the zone-map build path: it is hit once
// per (column, morsel-size) build, the moment a scan first asks for a zone
// map. An error here fails the requesting query but must leave the table
// cache consistent (the next query simply retries the build).
var fpZoneBuild = fault.Register("storage/zonemap-build")

// ZoneMap is a per-morsel min/max summary of a numeric column — the
// classic scan-skipping small materialized aggregate. Morsel m covers rows
// [m*morsel, min((m+1)*morsel, n)); a range scan skips the whole morsel
// when the predicate interval cannot intersect [min, max]. Zone maps are
// built lazily on first use (see Table.ZoneMap) and are immutable once
// built, so concurrent scans share one map with no locking.
type ZoneMap struct {
	morsel int
	n      int  // column length at build time (staleness check)
	kind   Type // TInt or TFloat
	imin   []int64
	imax   []int64
	fmin   []float64
	fmax   []float64
}

// Morsel returns the morsel size the map was built for.
func (z *ZoneMap) Morsel() int { return z.morsel }

// Rows returns the column length the map summarizes.
func (z *ZoneMap) Rows() int { return z.n }

// Morsels returns the number of summarized morsels.
func (z *ZoneMap) Morsels() int {
	if z.kind == TInt {
		return len(z.imin)
	}
	return len(z.fmin)
}

// PruneInt reports whether morsel m can be skipped for a closed integer
// predicate interval [lo, hi]: true when no value in the morsel can fall
// inside it. Only valid on a TInt zone map.
func (z *ZoneMap) PruneInt(m int, lo, hi int64) bool {
	if m < 0 || m >= len(z.imin) {
		return false
	}
	return z.imin[m] > hi || z.imax[m] < lo
}

// PruneFloat reports whether morsel m can be skipped for a closed float
// predicate interval [lo, hi]. Only valid on a TFloat zone map. A morsel
// holding only NaN (the engine's NULL) has min=+Inf, max=-Inf and is
// pruned by every interval — correct, since NaN matches no comparison.
func (z *ZoneMap) PruneFloat(m int, lo, hi float64) bool {
	if m < 0 || m >= len(z.fmin) {
		return false
	}
	// min > max is the all-NaN sentinel; test it directly so the morsel is
	// pruned even against an unbounded interval (where +Inf > hi fails).
	return z.fmin[m] > z.fmax[m] || z.fmin[m] > hi || z.fmax[m] < lo
}

// Kind returns the column type the map summarizes (TInt or TFloat).
func (z *ZoneMap) Kind() Type { return z.kind }

// BuildZoneMap computes the zone map of a numeric column at the given
// morsel size. String columns (and empty columns, and non-positive morsel
// sizes) yield (nil, nil): no map, no error — the caller just scans.
func BuildZoneMap(c Column, morsel int) (*ZoneMap, error) {
	n := c.Len()
	if n == 0 || morsel <= 0 {
		return nil, nil
	}
	if err := fpZoneBuild.Hit(); err != nil {
		return nil, err
	}
	chunks := Chunks(n, morsel)
	switch cc := c.(type) {
	case *IntColumn:
		z := &ZoneMap{morsel: morsel, n: n, kind: TInt,
			imin: make([]int64, len(chunks)), imax: make([]int64, len(chunks))}
		for m, r := range chunks {
			mn, mx := cc.V[r.Lo], cc.V[r.Lo]
			for _, v := range cc.V[r.Lo+1 : r.Hi] {
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			z.imin[m], z.imax[m] = mn, mx
		}
		return z, nil
	case *FloatColumn:
		z := &ZoneMap{morsel: morsel, n: n, kind: TFloat,
			fmin: make([]float64, len(chunks)), fmax: make([]float64, len(chunks))}
		for m, r := range chunks {
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, v := range cc.V[r.Lo:r.Hi] {
				if math.IsNaN(v) {
					continue // NULL: matches nothing, bounds nothing
				}
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			z.fmin[m], z.fmax[m] = mn, mx
		}
		return z, nil
	case *RLEIntColumn:
		// Run-length columns summarize per run, not per row: each morsel's
		// bounds fold over the runs overlapping it, so the build cost is
		// O(runs + morsels) rather than O(rows).
		z := &ZoneMap{morsel: morsel, n: n, kind: TInt,
			imin: make([]int64, len(chunks)), imax: make([]int64, len(chunks))}
		for m, r := range chunks {
			first := true
			var mn, mx int64
			cc.ForEachRun(r.Lo, r.Hi, func(v int64, _, _ int) {
				if first {
					mn, mx, first = v, v, false
					return
				}
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			})
			z.imin[m], z.imax[m] = mn, mx
		}
		return z, nil
	default:
		return nil, nil
	}
}

// zoneCache is the lazily-populated per-table cache of zone maps and value
// indexes (valueindex.go). It lives in its own struct so Table literals
// elsewhere in the package need not name it, and the zero value is ready
// to use.
type zoneCache struct {
	mu      sync.Mutex
	maps    map[indexKey]*ZoneMap
	buckets map[string]*ValueBuckets
	indexes map[indexKey]*ValueIndex
}

// ZoneMap returns the (lazily built, cached) zone map of the named column
// at the given morsel size, or (nil, nil) when the column type has no zone
// map (strings). A cached map built for a different column length —
// the table grew via AppendRow — is discarded and rebuilt, so a stale map
// can never mis-prune. Concurrent callers for the same key share one
// build: the cache mutex is held across it.
func (t *Table) ZoneMap(col string, morsel int) (*ZoneMap, error) {
	c, err := t.ColumnByName(col)
	if err != nil {
		return nil, err
	}
	if c.Type() == TString || c.Len() == 0 || morsel <= 0 {
		return nil, nil
	}
	key := indexKey{col, morsel}
	t.zones.mu.Lock()
	defer t.zones.mu.Unlock()
	if z, ok := t.zones.maps[key]; ok && z.n == c.Len() {
		return z, nil
	}
	z, err := BuildZoneMap(c, morsel)
	if err != nil || z == nil {
		return nil, err
	}
	if t.zones.maps == nil {
		t.zones.maps = map[indexKey]*ZoneMap{}
	}
	t.zones.maps[key] = z
	return z, nil
}
