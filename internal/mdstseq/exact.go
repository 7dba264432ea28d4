package mdstseq

import (
	"fmt"

	"mdst/internal/graph"
)

// Exact Δ* computation by iterative-deepening branch and bound over the
// edge list. NP-hard in general; intended for the small instances of
// experiment E1 where the paper's Δ*+1 guarantee is checked against the
// true optimum. A node budget bounds the search; exceeding it yields
// ok=false rather than an unbounded run.

// DefaultExactBudget is the default number of search-tree expansions.
const DefaultExactBudget = 5_000_000

// ExactDelta returns the degree Δ* of a minimum-degree spanning tree of
// g, searching within the given expansion budget (DefaultExactBudget if
// budget <= 0). ok is false if the budget was exhausted before an answer
// was proven. The graph must be connected.
func ExactDelta(g *graph.Graph, budget int) (delta int, ok bool) {
	if budget <= 0 {
		budget = DefaultExactBudget
	}
	n := g.N()
	switch {
	case n <= 1:
		return 0, true
	case n == 2:
		return 1, true
	}
	if !g.IsConnected() {
		return 0, false
	}
	low := LowerBoundDelta(g)
	for k := low; k < n; k++ {
		found, exhausted := HasSpanningTreeWithDegree(g, k, budget)
		if found {
			return k, true
		}
		if exhausted {
			return 0, false
		}
	}
	return n - 1, true
}

// exactMaxN is the largest graph DeltaStar runs ExactDelta on: the
// search is exponential in n, and past this size a search that exhausts
// its budget costs time and proves nothing.
const exactMaxN = 20

// Bracket is what is known about the optimal degree Δ* of one graph:
// Lo <= Δ* <= Hi, with Lo == Hi when Δ* is proven. Source names the
// proof.
type Bracket struct {
	Lo, Hi int
	Source string
}

// String renders the bracket as "2 (exact)" or "in [2, 4] (lower bound,
// F-R tree)".
func (b Bracket) String() string {
	if b.Lo == b.Hi {
		return fmt.Sprintf("%d (%s)", b.Lo, b.Source)
	}
	return fmt.Sprintf("in [%d, %d] (%s)", b.Lo, b.Hi, b.Source)
}

// DeltaStar brackets Δ* of the connected graph g: the exact value when
// g has at most exactMaxN nodes and ExactDelta finishes; 2 when
// canonicalRing says g holds the ring edges {i, (i+1) mod n}, as a
// graph.Family with CanonicalRing builds them (the path 0-1-…-(n-1) is
// then a degree-2 spanning tree); and otherwise [LowerBoundDelta,
// deg(T_FR)], T_FR being the tree Approximate returns. The lower end is
// never deg(T_FR)-1: that bound is only as sound as the
// Fürer–Raghavachari search, which can stop more than one above Δ*.
func DeltaStar(g *graph.Graph, canonicalRing bool) Bracket {
	if g.N() <= exactMaxN {
		if d, ok := ExactDelta(g, 0); ok {
			return Bracket{d, d, "exact"}
		}
	}
	if canonicalRing {
		return Bracket{2, 2, "canonical ring witness"}
	}
	return Bracket{LowerBoundDelta(g), Approximate(g).MaxDegree(), "lower bound, F-R tree"}
}

// HasSpanningTreeWithDegree reports whether g has a spanning tree of
// maximum degree at most k. exhausted is true when the budget ran out
// before the search completed (found is then meaningless).
func HasSpanningTreeWithDegree(g *graph.Graph, k int, budget int) (found, exhausted bool) {
	if budget <= 0 {
		budget = DefaultExactBudget
	}
	n := g.N()
	if n <= 1 {
		return true, false
	}
	if k < 1 {
		return false, false
	}
	edges := g.Edges()
	s := &degreeSearch{
		n:      n,
		k:      k,
		edges:  edges,
		deg:    make([]int, n),
		uf:     make([]int, n),
		budget: budget,
	}
	for i := range s.uf {
		s.uf[i] = i
	}
	found = s.search(0, n-1)
	return found, s.budget <= 0
}

type degreeSearch struct {
	n      int
	k      int
	edges  []graph.Edge
	deg    []int
	uf     []int // union-find without path compression, so it can be undone
	budget int
}

func (s *degreeSearch) find(x int) int {
	for s.uf[x] != x {
		x = s.uf[x]
	}
	return x
}

// search tries to pick `need` more edges from edges[idx:] forming a forest
// with degree cap k that eventually spans.
func (s *degreeSearch) search(idx, need int) bool {
	if need == 0 {
		return true
	}
	if s.budget <= 0 {
		return false
	}
	s.budget--
	if len(s.edges)-idx < need {
		return false
	}
	e := s.edges[idx]
	ru, rv := s.find(e.U), s.find(e.V)
	if ru != rv && s.deg[e.U] < s.k && s.deg[e.V] < s.k {
		// Include e.
		s.uf[ru] = rv
		s.deg[e.U]++
		s.deg[e.V]++
		if s.search(idx+1, need-1) {
			return true
		}
		s.deg[e.U]--
		s.deg[e.V]--
		s.uf[ru] = ru
	}
	// Exclude e — but only if the remaining edges can still connect
	// everything (cheap prune: count is handled above; a stronger prune
	// would check reachability, omitted for simplicity).
	return s.search(idx+1, need)
}
