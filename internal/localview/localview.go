// Package localview is the dense per-neighbor view storage of the
// protocol nodes (internal/core). A node's local copies of its neighbors'
// variables used to live in a map[int]*View per node; at matrix scale
// the map lookups and the per-entry pointer chasing dominate the
// simulator's hot path (every InfoMsg receive reads and writes a view,
// every fingerprint walks all of them). Table stores the views in one
// contiguous slice indexed by neighbor position, with an ID lookup by
// binary search over the sorted neighbor list — no hashing, no per-view
// allocation, cache-friendly iteration.
//
// The package also hosts the single Fingerprint implementation over
// (own variables, view table); both protocol variants previously
// duplicated it verbatim.
package localview

import "sort"

// View is a node's local copy of one neighbor's protocol variables (the
// send/receive atomicity model): refreshed only by InfoMsg, possibly
// stale, initially arbitrary.
type View struct {
	Root     int
	Parent   int
	Distance int
	Dmax     int
	Submax   int
	Deg      int
	Color    bool
}

// Table holds one node's views of all its neighbors, indexed by the
// neighbor's position in the sorted neighbor list.
type Table struct {
	ids   []int  // sorted ascending; shared between clones (immutable)
	views []View // views[i] is the copy of neighbor ids[i]
}

// NewTable builds a table for the given neighbor set. The input slice
// is copied and sorted; IDs must be distinct (graph adjacency lists
// are — a duplicate would shadow its twin's entry).
func NewTable(neighbors []int) Table {
	ids := append([]int(nil), neighbors...)
	sort.Ints(ids)
	return Table{ids: ids, views: make([]View, len(ids))}
}

// Len returns the number of neighbors.
func (t *Table) Len() int { return len(t.views) }

// ID returns the neighbor ID at position i.
func (t *Table) ID(i int) int { return t.ids[i] }

// At returns the view at position i for mutation in place.
func (t *Table) At(i int) *View { return &t.views[i] }

// Get returns the view of neighbor u, or nil when u is not a neighbor.
// The pointer stays valid for the lifetime of the table and may be used
// to mutate the view in place.
func (t *Table) Get(u int) *View {
	lo, hi := 0, len(t.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.ids[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.ids) && t.ids[lo] == u {
		return &t.views[lo]
	}
	return nil
}

// Clone returns a deep copy of the view contents. The neighbor-ID index
// is immutable and shared.
func (t *Table) Clone() Table {
	return Table{ids: t.ids, views: append([]View(nil), t.views...)}
}

// FNV-1a constants of the per-node state hash (the same mix both
// protocol variants have always used).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Fingerprint hashes a node's protocol-visible state — its own six
// variables plus every neighbor view, message traffic excluded — so
// quiescence means both the tree and all views have stopped changing.
// It is the shared implementation of sim.Fingerprinter for both
// protocol variants.
func Fingerprint(root, parent, distance, dmax, submax int, color bool, t *Table) uint64 {
	h := uint64(fnvOffset)
	mix := func(x uint64) {
		h ^= x
		h *= fnvPrime
	}
	mix(uint64(root))
	mix(uint64(parent))
	mix(uint64(distance))
	mix(uint64(dmax))
	mix(uint64(submax))
	if color {
		mix(1)
	} else {
		mix(2)
	}
	for i := range t.views {
		v := &t.views[i]
		mix(uint64(v.Root))
		mix(uint64(v.Parent))
		mix(uint64(v.Distance))
		mix(uint64(v.Dmax))
		mix(uint64(v.Submax))
		mix(uint64(v.Deg))
		if v.Color {
			mix(3)
		} else {
			mix(4)
		}
	}
	return h
}
