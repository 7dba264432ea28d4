// Package graph provides the undirected-graph substrate used by the
// self-stabilizing minimum-degree spanning tree reproduction: a compact
// adjacency representation, structural queries, connectivity, and the
// workload generators from which every experiment builds its topology.
//
// Nodes are identified by dense integer IDs 0..N-1. The protocol layer
// treats these IDs as the unique node identifiers of the paper's model
// (total order, min-ID root election).
package graph

import (
	"fmt"
	"sort"
)

// Edge is an undirected edge between nodes U and V. Canonical form has
// U < V; Normalize returns that form.
type Edge struct {
	U, V int
}

// Normalize returns the edge with endpoints ordered so that U < V.
func (e Edge) Normalize() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// String renders the edge as "{u,v}".
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Graph is a simple undirected graph over nodes 0..N-1. The zero value is
// an empty graph with no nodes; use New to allocate one with n nodes.
// Adjacency lists are kept sorted so iteration order is deterministic.
type Graph struct {
	n   int
	adj [][]int
	m   int
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// valid panics if u is out of range.
func (g *Graph) valid(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", u, g.n))
	}
}

// AddEdge inserts the undirected edge {u,v}. Self-loops and duplicate
// edges are rejected with an error (the paper's model is a simple graph).
func (g *Graph) AddEdge(u, v int) error {
	g.valid(u)
	g.valid(v)
	if u == v {
		return fmt.Errorf("graph: self-loop on node %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.insert(u, v)
	g.insert(v, u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge but panics on error; for use by generators and
// tests that construct graphs from known-good edge sets.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// adjInitCap is the capacity of an adjacency list's first backing array:
// lists of degree up to 4 (rings, grids, sparse random draws) are then
// allocated once instead of growing 1 → 2 → 4.
const adjInitCap = 4

// insert places v into u's sorted adjacency list.
func (g *Graph) insert(u, v int) {
	lst := g.adj[u]
	if lst == nil {
		lst = make([]int, 0, adjInitCap)
	}
	i := sort.SearchInts(lst, v)
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = v
	g.adj[u] = lst
}

// RemoveEdge deletes the undirected edge {u,v} if present and reports
// whether it was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	g.valid(u)
	g.valid(v)
	if !g.HasEdge(u, v) {
		return false
	}
	g.remove(u, v)
	g.remove(v, u)
	g.m--
	return true
}

func (g *Graph) remove(u, v int) {
	lst := g.adj[u]
	i := sort.SearchInts(lst, v)
	g.adj[u] = append(lst[:i], lst[i+1:]...)
}

// HasEdge reports whether the undirected edge {u,v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.valid(u)
	g.valid(v)
	lst := g.adj[u]
	i := sort.SearchInts(lst, v)
	return i < len(lst) && lst[i] == v
}

// Neighbors returns u's adjacency list in increasing order. The returned
// slice is owned by the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int {
	g.valid(u)
	return g.adj[u]
}

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int) int {
	g.valid(u)
	return len(g.adj[u])
}

// MaxDegree returns the maximum node degree δ of the graph (0 for an
// empty or edgeless graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum node degree of the graph. It returns 0
// for a graph with no nodes.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := len(g.adj[0])
	for u := 1; u < g.n; u++ {
		if d := len(g.adj[u]); d < min {
			min = d
		}
	}
	return min
}

// Edges returns all edges in canonical (U<V) order, sorted
// lexicographically. The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, Edge{u, v})
			}
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.m = g.m
	for u := 0; u < g.n; u++ {
		c.adj[u] = append([]int(nil), g.adj[u]...)
	}
	return c
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for u := 0; u < g.n; u++ {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for i, v := range g.adj[u] {
			if h.adj[u][i] != v {
				return false
			}
		}
	}
	return true
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single-node graph are connected.
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return len(g.componentOf(0)) == g.n
}

// componentOf returns the nodes reachable from start (including start) via
// an iterative BFS.
func (g *Graph) componentOf(start int) []int {
	seen := make([]bool, g.n)
	queue := []int{start}
	seen[start] = true
	var out []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		out = append(out, u)
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return out
}

// Components returns the connected components as slices of node IDs, each
// sorted, ordered by their smallest member.
func (g *Graph) Components() [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for u := 0; u < g.n; u++ {
		if seen[u] {
			continue
		}
		comp := g.componentOf(u)
		sort.Ints(comp)
		for _, v := range comp {
			seen[v] = true
		}
		comps = append(comps, comp)
	}
	return comps
}

// BFSFrom runs a breadth-first search from root and returns parent and
// distance arrays. Unreachable nodes have parent -1 and distance -1; the
// root has parent equal to itself and distance 0.
func (g *Graph) BFSFrom(root int) (parent, dist []int) {
	g.valid(root)
	parent = make([]int, g.n)
	dist = make([]int, g.n)
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	parent[root] = root
	dist[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if parent[v] == -1 {
				parent[v] = u
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return parent, dist
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.n, g.m)
}

// IsBridge reports whether removing edge {u,v} would disconnect the
// component containing u and v. The edge must exist.
func (g *Graph) IsBridge(u, v int) bool {
	if !g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: IsBridge on missing edge {%d,%d}", u, v))
	}
	g.RemoveEdge(u, v)
	reach := g.componentOf(u)
	g.MustAddEdge(u, v)
	for _, w := range reach {
		if w == v {
			return false
		}
	}
	return true
}
