package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// This file contains the topology generators used as experiment workloads.
// Each family stands for a class of networks: rings with chords and geometric
// graphs model the ad-hoc networks of the paper's introduction; G(n,p) and
// Hamiltonian-augmented graphs model P2P overlays; star-of-cliques
// instances are adversarial for the minimum-degree objective (large gap
// between a BFS tree degree and Δ*).

// Path returns the path graph 0-1-...-n-1.
func Path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// Ring returns the cycle graph on n >= 3 nodes.
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: Ring requires n >= 3")
	}
	g := Path(n)
	g.MustAddEdge(n-1, 0)
	return g
}

// Star returns the star graph with center 0 and n-1 leaves. Its unique
// spanning tree is itself, so Δ* = n-1: a worst case for degree.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
	}
	return g
}

// Complete returns the complete graph K_n. Δ* = 2 for n >= 2 (any
// Hamiltonian path is a spanning tree).
func Complete(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// Grid returns the rows x cols 2D grid graph.
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic("graph: Grid requires positive dimensions")
	}
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *Graph {
	if d < 0 || d > 20 {
		panic("graph: Hypercube dimension out of range")
	}
	n := 1 << uint(d)
	g := New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << uint(b))
			if u < v {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// Wheel returns the wheel graph: a ring on nodes 1..n-1 plus hub 0
// adjacent to all ring nodes. Requires n >= 4.
func Wheel(n int) *Graph {
	if n < 4 {
		panic("graph: Wheel requires n >= 4")
	}
	g := New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
		next := i + 1
		if next == n {
			next = 1
		}
		g.MustAddEdge(i, next)
	}
	return g
}

// RingWithChords returns a ring on n nodes plus chords chosen uniformly at
// random (without duplicates) using rng. The result is always connected;
// it is the sparse "m close to n" workload of experiment E2.
func RingWithChords(n, chords int, rng *rand.Rand) *Graph {
	g := Ring(n)
	maxExtra := n*(n-1)/2 - n
	if chords > maxExtra {
		chords = maxExtra
	}
	for added := 0; added < chords; {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v)
		added++
	}
	return g
}

// RandomGnp returns an Erdős–Rényi G(n,p) graph, augmented with a uniform
// random spanning-tree skeleton so the result is always connected (the
// paper's model assumes a connected network). rng drives all choices.
func RandomGnp(n int, p float64, rng *rand.Rand) *Graph {
	g := New(n)
	// Connected skeleton: random permutation chain attaching each node to
	// a uniformly random earlier node (a random recursive tree).
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		g.MustAddEdge(perm[i], perm[j])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// RandomGeometric returns a random geometric graph: n points placed
// uniformly in the unit square, edges between points within distance
// radius. Connectivity is ensured by chaining each isolated fragment to
// its nearest neighbor fragment, mimicking a deployed ad-hoc radio
// network with relay placement.
func RandomGeometric(n int, radius float64, rng *rand.Rand) *Graph {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := New(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			if dx*dx+dy*dy <= r2 {
				g.MustAddEdge(u, v)
			}
		}
	}
	// Stitch components with the closest inter-component pair until
	// connected.
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			break
		}
		best := Edge{-1, -1}
		bestD := math.Inf(1)
		in0 := make([]bool, n)
		for _, u := range comps[0] {
			in0[u] = true
		}
		for _, u := range comps[0] {
			for v := 0; v < n; v++ {
				if in0[v] {
					continue
				}
				dx, dy := xs[u]-xs[v], ys[u]-ys[v]
				if d := dx*dx + dy*dy; d < bestD {
					bestD = d
					best = Edge{u, v}
				}
			}
		}
		g.MustAddEdge(best.U, best.V)
	}
	return g
}

// HamiltonianAugmented returns a graph that contains a hidden Hamiltonian
// path (so Δ* = 2) plus extra random edges. It is the canonical instance
// family where the Δ*+1 guarantee is non-trivial: an arbitrary spanning
// tree can have a large degree while the optimum is a path.
func HamiltonianAugmented(n, extra int, rng *rand.Rand) *Graph {
	perm := rng.Perm(n)
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(perm[i], perm[i+1])
	}
	maxExtra := n*(n-1)/2 - (n - 1)
	if extra > maxExtra {
		extra = maxExtra
	}
	for added := 0; added < extra; {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		g.MustAddEdge(u, v)
		added++
	}
	return g
}

// StarOfCliques returns k cliques of size s whose node 0 of each clique is
// attached to a central hub (node 0 overall). The hub must have degree k
// in any spanning tree reaching all cliques through it, but each clique
// also carries alternative low-degree routes when bridged; this family
// stresses the blocking-node (Deblock) machinery.
func StarOfCliques(k, s int) *Graph {
	if k < 1 || s < 2 {
		panic("graph: StarOfCliques requires k >= 1, s >= 2")
	}
	n := 1 + k*s
	g := New(n)
	for c := 0; c < k; c++ {
		base := 1 + c*s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				g.MustAddEdge(base+i, base+j)
			}
		}
		g.MustAddEdge(0, base)
	}
	return g
}

// Lollipop returns a clique of size s attached to a path of length tail.
func Lollipop(s, tail int) *Graph {
	if s < 2 || tail < 1 {
		panic("graph: Lollipop requires s >= 2, tail >= 1")
	}
	n := s + tail
	g := New(n)
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			g.MustAddEdge(i, j)
		}
	}
	g.MustAddEdge(s-1, s)
	for i := s; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// Family names a generator for table-driven experiments.
type Family struct {
	Name string
	// Build returns a connected graph with approximately n nodes (exact
	// node count may be rounded by the family's structure).
	Build func(n int, rng *rand.Rand) *Graph
	// CanonicalRing marks families whose every instance contains the
	// canonical ring edges {i, (i+1) mod n} by construction. Such a graph
	// carries a constructive Δ* witness: the path 0-1-…-(n-1) is a
	// spanning tree of degree 2 (the optimum for any spanning tree), so
	// Δ* = 2 and the Δ*+1 bracket is 3 with no sequential reduction
	// needed. Large-n consumers (the scale sweep's event ladder, the
	// StartPath preload) rely on this flag where running the
	// Fürer–Raghavachari oracle on the instance is far too slow.
	CanonicalRing bool
}

// Families returns the standard workload families used across the
// experiment suite, in a fixed order.
func Families() []Family {
	return []Family{
		{Name: "ring+chords", Build: func(n int, rng *rand.Rand) *Graph {
			if n < 3 {
				n = 3
			}
			return RingWithChords(n, n/2, rng)
		}, CanonicalRing: true},
		{Name: "grid", Build: func(n int, rng *rand.Rand) *Graph {
			side := int(math.Round(math.Sqrt(float64(n))))
			if side < 2 {
				side = 2
			}
			return Grid(side, side)
		}},
		{Name: "hypercube", Build: func(n int, rng *rand.Rand) *Graph {
			d := 1
			for (1 << uint(d+1)) <= n {
				d++
			}
			return Hypercube(d)
		}},
		{Name: "gnp", Build: func(n int, rng *rand.Rand) *Graph {
			p := 2.0 * math.Log(float64(n)) / float64(n)
			return RandomGnp(n, p, rng)
		}},
		{Name: "geometric", Build: func(n int, rng *rand.Rand) *Graph {
			r := 1.6 * math.Sqrt(math.Log(float64(n))/float64(n))
			return RandomGeometric(n, r, rng)
		}},
		{Name: "ham-augmented", Build: func(n int, rng *rand.Rand) *Graph {
			return HamiltonianAugmented(n, 2*n, rng)
		}},
		{Name: "star-of-cliques", Build: func(n int, rng *rand.Rand) *Graph {
			s := 4
			k := (n - 1) / s
			if k < 2 {
				k = 2
			}
			return StarOfCliques(k, s)
		}},
	}
}

// ExtraFamilies returns additional named generators available to the
// CLIs by name but excluded from the default experiment sweep (they are
// either degenerate for the sweep — complete graphs converge trivially —
// or redundant with a sweep family).
func ExtraFamilies() []Family {
	return []Family{
		{Name: "wheel", Build: func(n int, rng *rand.Rand) *Graph {
			if n < 4 {
				n = 4
			}
			return Wheel(n)
		}},
		{Name: "complete", Build: func(n int, rng *rand.Rand) *Graph {
			return Complete(n)
		}},
		{Name: "regular", Build: func(n int, rng *rand.Rand) *Graph {
			if n < 5 {
				n = 5
			}
			d := 4
			if n*d%2 != 0 {
				n++
			}
			return RandomRegular(n, d, rng)
		}},
	}
}

// LookupFamily returns the named family (sweep families first, then the
// extras) and whether it exists.
func LookupFamily(name string) (Family, bool) {
	for _, f := range Families() {
		if f.Name == name {
			return f, true
		}
	}
	for _, f := range ExtraFamilies() {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// MustFamily returns the named family or panics.
func MustFamily(name string) Family {
	f, ok := LookupFamily(name)
	if !ok {
		panic(fmt.Sprintf("graph: unknown family %q", name))
	}
	return f
}
