// Package localview is the dense per-neighbor view storage of the
// protocol nodes (internal/core). Table stores a node's local copies of
// its neighbors' variables in one contiguous slice. A table position is
// the neighbor's position in the node's sorted neighbor list, which is
// also its link's address in the node's sim.Context: a node that walks
// its neighbors in order reads view i at position i, and a handler
// reads the sender's view at the position the delivery names
// (Context.FromPos), both with no lookup. Get and Index find a view by
// ID with a binary search, for the IDs a message carries.
//
// The package also hosts Fingerprint, the hash over (own variables,
// view table) that both exchanges share.
package localview

import "slices"

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
	ids := slices.Clone(neighbors)
	slices.Sort(ids)
	return Table{ids: ids, views: make([]View, len(ids))}
}

// Len returns the number of neighbors.
func (t *Table) Len() int { return len(t.views) }

// ID returns the neighbor ID at position i.
func (t *Table) ID(i int) int { return t.ids[i] }

// IDs returns the sorted neighbor IDs: IDs()[i] is the neighbor at
// position i. The slice is the table's own index; callers must not
// modify it.
func (t *Table) IDs() []int { return t.ids }

// At returns the view at position i for mutation in place.
func (t *Table) At(i int) *View { return &t.views[i] }

// Index returns the position of neighbor u, or -1 when u is not a
// neighbor.
func (t *Table) Index(u int) int {
	if i, ok := slices.BinarySearch(t.ids, u); ok {
		return i
	}
	return -1
}

// Get returns the view of neighbor u, or nil when u is not a neighbor.
// The pointer stays valid for the lifetime of the table and may be used
// to mutate the view in place.
func (t *Table) Get(u int) *View {
	if i := t.Index(u); i >= 0 {
		return &t.views[i]
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
