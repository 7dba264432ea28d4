// Package spanning provides rooted spanning trees over an undirected
// graph: construction (BFS, DFS, uniform-random via Wilson's algorithm),
// validation, degree accounting, tree paths and fundamental cycles, and
// the edge-swap primitive on which every minimum-degree improvement in
// this repository is built.
//
// A Tree stores only parent pointers — the same representation the
// distributed protocol maintains — so every structural query used by the
// sequential baselines matches the information available to the nodes.
package spanning

import (
	"fmt"
	"math/rand"
	"sort"

	"mdst/internal/graph"
)

// Tree is a rooted spanning tree of a graph. parent[root] == root.
type Tree struct {
	g      *graph.Graph
	parent []int
	root   int
}

// NewFromParents builds a tree from a parent array and validates it: every
// parent edge must exist in g, parent pointers must form a single tree
// spanning all nodes, and parent[root] == root.
func NewFromParents(g *graph.Graph, parent []int, root int) (*Tree, error) {
	n := g.N()
	if len(parent) != n {
		return nil, fmt.Errorf("spanning: parent array length %d, want %d", len(parent), n)
	}
	if root < 0 || root >= n {
		return nil, fmt.Errorf("spanning: root %d out of range", root)
	}
	if parent[root] != root {
		return nil, fmt.Errorf("spanning: parent[root=%d] = %d, want self", root, parent[root])
	}
	for v := 0; v < n; v++ {
		if v == root {
			continue
		}
		p := parent[v]
		if p < 0 || p >= n {
			return nil, fmt.Errorf("spanning: parent[%d] = %d out of range", v, p)
		}
		if !g.HasEdge(v, p) {
			return nil, fmt.Errorf("spanning: parent edge {%d,%d} not in graph", v, p)
		}
	}
	t := &Tree{g: g, parent: append([]int(nil), parent...), root: root}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate checks the spanning-tree invariants: all nodes reach the root
// through parent pointers without cycles.
func (t *Tree) Validate() error {
	n := t.g.N()
	// state: 0 unvisited, 1 on current path, 2 confirmed reaching root.
	state := make([]uint8, n)
	state[t.root] = 2
	var path []int // the current chain; one buffer serves every chain
	for v := 0; v < n; v++ {
		if state[v] != 0 {
			continue
		}
		path = path[:0]
		u := v
		for state[u] == 0 {
			state[u] = 1
			path = append(path, u)
			u = t.parent[u]
		}
		if state[u] == 1 {
			return fmt.Errorf("spanning: parent cycle through node %d", u)
		}
		for _, w := range path {
			state[w] = 2
		}
	}
	return nil
}

// Graph returns the underlying graph.
func (t *Tree) Graph() *graph.Graph { return t.g }

// Root returns the root node.
func (t *Tree) Root() int { return t.root }

// Parent returns v's parent (the root's parent is itself).
func (t *Tree) Parent(v int) int { return t.parent[v] }

// Clone returns a deep copy of t.
func (t *Tree) Clone() *Tree {
	return &Tree{g: t.g, parent: append([]int(nil), t.parent...), root: t.root}
}

// Assign copies o's structure into t. Both trees must span the same graph.
func (t *Tree) Assign(o *Tree) {
	if t.g != o.g {
		panic("spanning: Assign across different graphs")
	}
	copy(t.parent, o.parent)
	t.root = o.root
}

// HasTreeEdge reports whether {u,v} is a tree edge.
func (t *Tree) HasTreeEdge(u, v int) bool {
	return t.parent[u] == v && u != t.root || t.parent[v] == u && v != t.root
}

// Edges returns the n-1 tree edges in canonical sorted order.
func (t *Tree) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, t.g.N()-1)
	for v := 0; v < t.g.N(); v++ {
		if v != t.root {
			out = append(out, graph.Edge{U: v, V: t.parent[v]}.Normalize())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// EdgeSet returns the tree edges as a set keyed by canonical edge.
func (t *Tree) EdgeSet() map[graph.Edge]bool {
	s := make(map[graph.Edge]bool, t.g.N()-1)
	for v := 0; v < t.g.N(); v++ {
		if v != t.root {
			s[graph.Edge{U: v, V: t.parent[v]}.Normalize()] = true
		}
	}
	return s
}

// NonTreeEdges returns the graph edges not in the tree, canonical order.
func (t *Tree) NonTreeEdges() []graph.Edge {
	set := t.EdgeSet()
	var out []graph.Edge
	for _, e := range t.g.Edges() {
		if !set[e] {
			out = append(out, e)
		}
	}
	return out
}

// Degree returns the degree of v in the tree.
func (t *Tree) Degree(v int) int {
	d := 0
	if v != t.root {
		d++
	}
	for _, u := range t.g.Neighbors(v) {
		if u != t.root && t.parent[u] == v {
			d++
		}
	}
	return d
}

// Degrees returns the tree degree of every node.
func (t *Tree) Degrees() []int {
	deg := make([]int, t.g.N())
	for v := 0; v < t.g.N(); v++ {
		if v != t.root {
			deg[v]++
			deg[t.parent[v]]++
		}
	}
	return deg
}

// MaxDegree returns deg(T) = max_v deg_T(v).
func (t *Tree) MaxDegree() int {
	max := 0
	for _, d := range t.Degrees() {
		if d > max {
			max = d
		}
	}
	return max
}

// DegreeSequence returns the tree degrees sorted in decreasing order —
// the potential function used to prove improvement termination.
func (t *Tree) DegreeSequence() []int {
	deg := t.Degrees()
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	return deg
}

// CompareDegreeSequences compares two decreasing degree sequences
// lexicographically: -1 if a < b, 0 if equal, +1 if a > b.
func CompareDegreeSequences(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// Children returns the children of v in increasing order.
func (t *Tree) Children(v int) []int {
	var out []int
	for _, u := range t.g.Neighbors(v) {
		if u != t.root && t.parent[u] == v {
			out = append(out, u)
		}
	}
	return out
}

// Depths returns every node's number of tree edges to the root, in
// O(n): a node's depth is its parent's plus one, so each chain of
// parents not yet resolved is filled top-down from one reused stack,
// and every node is pushed and assigned once. It relies on t being a
// valid tree, which every constructor and Swap guarantee. Depths are
// computed per call, not cached, because Swap rewrites parents.
func (t *Tree) Depths() []int {
	depth := make([]int, t.g.N())
	for v := range depth {
		depth[v] = -1
	}
	depth[t.root] = 0
	var chain []int
	for v := range depth {
		u := v
		for depth[u] < 0 {
			chain = append(chain, u)
			u = t.parent[u]
		}
		d := depth[u]
		for i := len(chain) - 1; i >= 0; i-- {
			d++
			depth[chain[i]] = d
		}
		chain = chain[:0]
	}
	return depth
}

// Subtree returns all nodes in the subtree rooted at v (including v).
func (t *Tree) Subtree(v int) []int {
	var out []int
	stack := []int{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		stack = append(stack, t.Children(u)...)
	}
	sort.Ints(out)
	return out
}

// InSubtree reports whether x lies in the subtree rooted at v.
func (t *Tree) InSubtree(v, x int) bool {
	for {
		if x == v {
			return true
		}
		if x == t.root {
			return false
		}
		x = t.parent[x]
	}
}

// PathBetween returns the unique tree path from u to v, inclusive.
func (t *Tree) PathBetween(u, v int) []int {
	// Climb both to the root recording paths, then splice at the LCA.
	up := func(x int) []int {
		p := []int{x}
		for x != t.root {
			x = t.parent[x]
			p = append(p, x)
		}
		return p
	}
	pu, pv := up(u), up(v)
	// Trim the common suffix, keeping the LCA once.
	i, j := len(pu)-1, len(pv)-1
	for i > 0 && j > 0 && pu[i-1] == pv[j-1] {
		i--
		j--
	}
	path := append([]int(nil), pu[:i+1]...)
	for k := j - 1; k >= 0; k-- {
		path = append(path, pv[k])
	}
	return path
}

// FundamentalCycle returns the cycle created by adding non-tree edge e:
// the tree path from e.U to e.V (the edge e itself closes the cycle).
// It panics if e is a tree edge or not a graph edge.
func (t *Tree) FundamentalCycle(e graph.Edge) []int {
	if !t.g.HasEdge(e.U, e.V) {
		panic(fmt.Sprintf("spanning: %v not a graph edge", e))
	}
	if t.HasTreeEdge(e.U, e.V) {
		panic(fmt.Sprintf("spanning: %v is a tree edge", e))
	}
	return t.PathBetween(e.U, e.V)
}

// Swap replaces tree edge rm with non-tree edge add. rm must lie on the
// fundamental cycle of add; otherwise the parent reorientation would
// disconnect the tree, and Swap returns an error without modifying t.
//
// The reorientation mirrors the distributed Reverse procedure: the
// endpoint of add inside the detached component re-hangs on the other
// endpoint and the parent chain between it and rm is reversed.
func (t *Tree) Swap(add, rm graph.Edge) error {
	if !t.g.HasEdge(add.U, add.V) || t.HasTreeEdge(add.U, add.V) {
		return fmt.Errorf("spanning: add %v must be a non-tree graph edge", add)
	}
	if !t.HasTreeEdge(rm.U, rm.V) {
		return fmt.Errorf("spanning: rm %v must be a tree edge", rm)
	}
	cycle := t.FundamentalCycle(add)
	onCycle := false
	for i := 0; i+1 < len(cycle); i++ {
		a, b := cycle[i], cycle[i+1]
		if (a == rm.U && b == rm.V) || (a == rm.V && b == rm.U) {
			onCycle = true
			break
		}
	}
	if !onCycle {
		return fmt.Errorf("spanning: rm %v not on fundamental cycle of %v", rm, add)
	}
	// The child endpoint of rm roots the detached component.
	child := rm.U
	if t.parent[rm.V] == rm.U {
		child = rm.V
	}
	// The endpoint of add inside the detached component re-attaches.
	attach, outside := add.U, add.V
	if !t.InSubtree(child, attach) {
		attach, outside = add.V, add.U
	}
	// Reverse the parent chain from attach up to child, then hang attach
	// on outside. Chain: attach -> ... -> child (ancestors within the
	// detached subtree).
	prev := outside
	v := attach
	for {
		next := t.parent[v]
		t.parent[v] = prev
		if v == child {
			break
		}
		prev = v
		v = next
	}
	return nil
}

// BFSTree returns the breadth-first spanning tree rooted at root.
func BFSTree(g *graph.Graph, root int) *Tree {
	if !g.IsConnected() {
		panic("spanning: BFSTree requires a connected graph")
	}
	parent, _ := g.BFSFrom(root)
	return &Tree{g: g, parent: parent, root: root}
}

// DFSTree returns a depth-first spanning tree rooted at root.
func DFSTree(g *graph.Graph, root int) *Tree {
	if !g.IsConnected() {
		panic("spanning: DFSTree requires a connected graph")
	}
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Neighbors(u) {
			if parent[v] == -1 {
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	return &Tree{g: g, parent: parent, root: root}
}

// RandomTree returns a uniformly random spanning tree via Wilson's
// loop-erased random walk algorithm, rooted at root.
func RandomTree(g *graph.Graph, root int, rng *rand.Rand) *Tree {
	if !g.IsConnected() {
		panic("spanning: RandomTree requires a connected graph")
	}
	n := g.N()
	parent := make([]int, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	inTree[root] = true
	for start := 0; start < n; start++ {
		if inTree[start] {
			continue
		}
		// Random walk from start until hitting the tree, recording the
		// successor of each visited node (loop erasure by overwrite).
		next := make(map[int]int)
		u := start
		for !inTree[u] {
			nbrs := g.Neighbors(u)
			v := nbrs[rng.Intn(len(nbrs))]
			next[u] = v
			u = v
		}
		// Commit the loop-erased path.
		u = start
		for !inTree[u] {
			parent[u] = next[u]
			inTree[u] = true
			u = next[u]
		}
	}
	return &Tree{g: g, parent: parent, root: root}
}

// WorstDegreeTree returns a spanning tree built greedily to concentrate
// degree on high-degree graph nodes (a deliberately bad starting point
// for degree-reduction experiments): a BFS that always expands the
// highest-degree frontier node first.
func WorstDegreeTree(g *graph.Graph, root int) *Tree {
	if !g.IsConnected() {
		panic("spanning: WorstDegreeTree requires a connected graph")
	}
	n := g.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	frontier := []int{root}
	for len(frontier) > 0 {
		// Pick the frontier node with maximum graph degree (ties: min ID).
		best := 0
		for i, u := range frontier {
			if g.Degree(u) > g.Degree(frontier[best]) ||
				(g.Degree(u) == g.Degree(frontier[best]) && u < frontier[best]) {
				best = i
			}
		}
		u := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		for _, v := range g.Neighbors(u) {
			if parent[v] == -1 {
				parent[v] = u
				frontier = append(frontier, v)
			}
		}
	}
	return &Tree{g: g, parent: parent, root: root}
}
