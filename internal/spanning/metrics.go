package spanning

import "sort"

// Tree metrics used by the experiment analysis: eccentricity-based
// (diameter, radius, center), balance-based (centroid) and aggregate
// (Wiener index, average depth), plus an AHU canonical form for
// isomorphism checks between stabilized trees.

// treeAdj builds the undirected adjacency of the tree edges.
func (t *Tree) treeAdj() [][]int {
	n := t.g.N()
	adj := make([][]int, n)
	for _, e := range t.Edges() {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return adj
}

// bfsFarthest returns the node farthest from start (smallest label on
// ties) and the distance slice.
func bfsFarthest(adj [][]int, start int) (far int, dist []int) {
	n := len(adj)
	dist = make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []int{start}
	far = start
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] > dist[far] {
			far = v
		}
		for _, u := range adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return far, dist
}

// Diameter returns the number of edges on a longest path in the tree
// (the classic double-BFS).
func (t *Tree) Diameter() int {
	if t.g.N() == 0 {
		return 0
	}
	adj := t.treeAdj()
	a, _ := bfsFarthest(adj, 0)
	b, dist := bfsFarthest(adj, a)
	return dist[b]
}

// Radius returns ceil(diameter/2): the eccentricity of a center node.
func (t *Tree) Radius() int { return (t.Diameter() + 1) / 2 }

// Center returns the nodes of minimum eccentricity (one or two, the
// middle of any longest path), sorted ascending. In a tree the
// eccentricity of every node is realized at one endpoint of a diameter,
// so two extra BFS passes from the diameter endpoints suffice.
func (t *Tree) Center() []int {
	n := t.g.N()
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []int{0}
	}
	adj := t.treeAdj()
	a, _ := bfsFarthest(adj, 0)
	b, distA := bfsFarthest(adj, a)
	_, distB := bfsFarthest(adj, b)
	best := n
	var centers []int
	for v := 0; v < n; v++ {
		ecc := max2(distA[v], distB[v])
		switch {
		case ecc < best:
			best = ecc
			centers = centers[:0]
			centers = append(centers, v)
		case ecc == best:
			centers = append(centers, v)
		}
	}
	sort.Ints(centers)
	return centers
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Centroid returns the one or two nodes whose removal leaves components
// of at most n/2 nodes, sorted ascending.
func (t *Tree) Centroid() []int {
	n := t.g.N()
	if n == 0 {
		return nil
	}
	adj := t.treeAdj()
	size := make([]int, n)
	par := make([]int, n)
	// Iterative post-order rooted at node 0 over the tree adjacency.
	type frame struct{ v, parent, ni int }
	stack := []frame{{v: 0, parent: -1}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.ni == 0 {
			size[f.v] = 1
			par[f.v] = f.parent
		}
		if f.ni < len(adj[f.v]) {
			u := adj[f.v][f.ni]
			f.ni++
			if u != f.parent {
				stack = append(stack, frame{v: u, parent: f.v})
			}
			continue
		}
		if f.parent >= 0 {
			size[f.parent] += size[f.v]
		}
		stack = stack[:len(stack)-1]
	}
	var centroids []int
	for v := 0; v < n; v++ {
		worst := 0
		if v != 0 {
			worst = n - size[v] // the component on the parent side
		}
		for _, u := range adj[v] {
			if u == par[v] {
				continue
			}
			if size[u] > worst {
				worst = size[u]
			}
		}
		if worst <= n/2 {
			centroids = append(centroids, v)
		}
	}
	sort.Ints(centroids)
	return centroids
}

// WienerIndex returns the sum of pairwise distances between all node
// pairs (each unordered pair once) — O(n) via edge-contribution
// counting: an edge splitting the tree into sides of a and n-a nodes
// contributes a*(n-a).
func (t *Tree) WienerIndex() int64 {
	n := t.g.N()
	if n < 2 {
		return 0
	}
	// Subtree sizes in the rooted view.
	size := make([]int, n)
	order := make([]int, 0, n)
	queue := []int{t.root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		queue = append(queue, t.Children(v)...)
	}
	var total int64
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		size[v]++
		for _, c := range t.Children(v) {
			size[v] += size[c]
		}
		if v != t.root {
			total += int64(size[v]) * int64(n-size[v])
		}
	}
	return total
}

// AverageDepth returns the mean distance to the root.
func (t *Tree) AverageDepth() float64 {
	n := t.g.N()
	if n == 0 {
		return 0
	}
	sum := 0
	for _, d := range t.Depths() {
		sum += d
	}
	return float64(sum) / float64(n)
}

// IsPath reports whether the tree is a simple path (max degree <= 2):
// the global optimum shape whenever the graph is Hamiltonian-traceable.
func (t *Tree) IsPath() bool { return t.g.N() <= 2 || t.MaxDegree() <= 2 }

// IsStar reports whether some node is adjacent to all others.
func (t *Tree) IsStar() bool {
	n := t.g.N()
	if n <= 2 {
		return true
	}
	return t.MaxDegree() == n-1
}

// CanonicalString returns the AHU canonical form of the tree as an
// unlabeled rooted-at-centroid tree: two trees are isomorphic (as
// unlabeled trees) iff their canonical strings are equal. With two
// centroids the lexicographically smaller rooting is used.
func (t *Tree) CanonicalString() string {
	n := t.g.N()
	if n == 0 {
		return ""
	}
	adj := t.treeAdj()
	cents := t.Centroid()
	best := ""
	for _, c := range cents {
		s := ahu(adj, c, -1)
		if best == "" || s < best {
			best = s
		}
	}
	return best
}

// ahu computes the canonical encoding of the subtree at v (entering from
// parent p): "(" + sorted child encodings + ")".
func ahu(adj [][]int, v, p int) string {
	var kids []string
	for _, u := range adj[v] {
		if u != p {
			kids = append(kids, ahu(adj, u, v))
		}
	}
	sort.Strings(kids)
	out := "("
	for _, k := range kids {
		out += k
	}
	return out + ")"
}
