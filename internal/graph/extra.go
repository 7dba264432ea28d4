package graph

import (
	"math/rand"
)

// RandomRegular, the generator behind the "regular" extra family, and
// Bridges, the Tarjan lowlink reference that tests check IsBridge
// against.

// RandomRegular returns a random d-regular graph on n nodes via the
// pairing model with retries, stitched to connectivity like the
// geometric generator. n*d must be even and d < n.
func RandomRegular(n, d int, rng *rand.Rand) *Graph {
	if d < 2 || d >= n || n*d%2 != 0 {
		panic("graph: RandomRegular requires 2 <= d < n with n*d even")
	}
	for attempt := 0; attempt < 200; attempt++ {
		g, ok := tryPairing(n, d, rng)
		if ok && g.IsConnected() {
			return g
		}
	}
	// Fall back: ring plus random chords approximating d-regularity.
	// Each probe is bounded so a saturated neighborhood cannot spin forever.
	g := Ring(n)
	for u := 0; u < n; u++ {
		for probes := 0; g.Degree(u) < d && probes < 4*n; probes++ {
			v := rng.Intn(n)
			if v != u && !g.HasEdge(u, v) && g.Degree(v) < d {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// tryPairing attempts one pairing-model sample.
func tryPairing(n, d int, rng *rand.Rand) (*Graph, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := New(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil, false
		}
		g.MustAddEdge(u, v)
	}
	return g, true
}

// Bridges returns the bridge edges of g (edges whose removal disconnects
// their component), canonical order.
func (g *Graph) Bridges() []Edge {
	n := g.n
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0
	var out []Edge
	type frame struct{ v, ni int }
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{v: s}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			adv := false
			for f.ni < len(g.adj[v]) {
				u := g.adj[v][f.ni]
				f.ni++
				if disc[u] == -1 {
					parent[u] = v
					disc[u] = timer
					low[u] = timer
					timer++
					stack = append(stack, frame{v: u})
					adv = true
					break
				} else if u != parent[v] {
					if disc[u] < low[v] {
						low[v] = disc[u]
					}
				}
			}
			if adv {
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] > disc[p] {
					out = append(out, Edge{U: p, V: v}.Normalize())
				}
			}
		}
	}
	sortEdges(out)
	return out
}

func sortEdges(es []Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && (es[j].U < es[j-1].U ||
			es[j].U == es[j-1].U && es[j].V < es[j-1].V); j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}
