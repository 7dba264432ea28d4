package core

// Spanning-tree module (paper §3.2.1): a simplification of the BFS
// construction of Afek-Kutten-Yung [1]. The tree is rooted at the
// minimum known root value; rule R1 ("correction parent") adopts a
// neighbor advertising a smaller root, rule R2 ("correction root")
// re-creates a local root on incoherence. All predicates evaluate the
// node's own variables against its local copies of the neighbors'
// variables, exactly as in the paper.
//
// Distances are bounded by cfg.MaxDist (nodes know an upper bound on n),
// which terminates the count-to-infinity epidemic of forged root values
// that the pure rules admit.
//
// Every write below goes through a changed-value guard that bumps the
// node's state version: the simulator's incremental fingerprint cache
// relies on the version staying put across no-op module runs.

// betterParent is the paper's better_parent(v): some neighbor advertises
// a strictly smaller root (and would not push us past the distance
// bound).
func (n *Node) betterParent() bool {
	for i := 0; i < n.views.Len(); i++ {
		v := n.views.At(i)
		if v.Root < n.root && v.Distance+1 <= n.cfg.MaxDist {
			return true
		}
	}
	return false
}

// bestParentCandidate returns the neighbor with the minimal advertised
// root, ties broken by minimal ID (the paper's argmin).
func (n *Node) bestParentCandidate() int {
	best := -1
	var bestRoot int
	for i := 0; i < n.views.Len(); i++ { // positions sorted by ID: first hit wins ties
		v := n.views.At(i)
		if v.Root >= n.root || v.Distance+1 > n.cfg.MaxDist {
			continue
		}
		if best == -1 || v.Root < bestRoot {
			best = n.views.ID(i)
			bestRoot = v.Root
		}
	}
	return best
}

// coherentParent is the paper's coherent_parent(v), strengthened with the
// implied self-root consistency (parent = v requires root = v, which
// create_new_root always establishes).
func (n *Node) coherentParent() bool {
	if n.parent == n.id {
		return n.root == n.id
	}
	v := n.views.Get(n.parent)
	return v != nil && v.Root == n.root
}

// coherentDistance is the paper's coherent_distance(v) plus the distance
// bound.
func (n *Node) coherentDistance() bool {
	if n.parent == n.id {
		return n.distance == 0
	}
	v := n.views.Get(n.parent)
	if v == nil {
		return false
	}
	return n.distance == v.Distance+1 && n.distance <= n.cfg.MaxDist
}

// newRootCandidate is the paper's new_root_candidate(v), strengthened
// with the self-ID guard of the Afek-Kutten-Yung election the paper
// builds on: a root variable exceeding the node's own ID is always
// illegal (the node itself would be the better root). Without this
// guard a corruption that leaves the minimum-ID node in a locally
// coherent position inside a tree claiming a larger root is STABLE:
// rule R1 only ever adopts smaller advertised roots, so nobody ever
// injects the true minimum and the network converges to a legitimate-
// looking configuration rooted at the wrong node.
func (n *Node) newRootCandidate() bool {
	return n.root > n.id || !n.coherentParent() || !n.coherentDistance()
}

// treeStabilized is the paper's tree_stabilized(v).
func (n *Node) treeStabilized() bool {
	return !n.betterParent() && !n.newRootCandidate()
}

// degreeStabilized is the paper's degree_stabilized(v): all neighbors
// agree on dmax.
func (n *Node) degreeStabilized() bool {
	for i := 0; i < n.views.Len(); i++ {
		if n.views.At(i).Dmax != n.dmax {
			return false
		}
	}
	return true
}

// colorStabilized is the paper's color_stabilized(v).
func (n *Node) colorStabilized() bool {
	for i := 0; i < n.views.Len(); i++ {
		if n.views.At(i).Color != n.color {
			return false
		}
	}
	return true
}

// locallyStabilized is the paper's locally_stabilized(v): the guard that
// freezes the reduction modules while the tree or the degree information
// is in flux.
func (n *Node) locallyStabilized() bool {
	return n.treeStabilized() && n.degreeStabilized() && n.colorStabilized()
}

// createNewRoot is the paper's create_new_root(v).
func (n *Node) createNewRoot() {
	if n.root != n.id || n.parent != n.id || n.distance != 0 {
		old := n.parent
		n.root = n.id
		n.parent = n.id
		n.distance = 0
		n.version++
		if n.audit != nil {
			n.audit(MutationReset, old, n.id)
		}
	}
}

// changeParentTo is the paper's change_parent_to(v,u).
func (n *Node) changeParentTo(u int) {
	v := n.views.Get(u)
	if n.root != v.Root || n.parent != u || n.distance != v.Distance+1 {
		old := n.parent
		n.root = v.Root
		n.parent = u
		n.distance = v.Distance + 1
		n.version++
		if n.audit != nil {
			n.audit(MutationParent, old, u)
		}
	}
}

// setDistance writes the distance variable through the version guard.
func (n *Node) setDistance(d int) {
	if n.distance != d {
		n.distance = d
		n.version++
	}
}

// runTreeModule applies R2 then R1 — the highest-priority module.
func (n *Node) runTreeModule() {
	if n.newRootCandidate() {
		switch n.cfg.Repair {
		case RepairReset:
			n.createNewRoot()
		case RepairPatch:
			if n.root > n.id || n.parent == n.id || !n.coherentParent() ||
				n.views.Get(n.parent).Distance+1 > n.cfg.MaxDist {
				n.createNewRoot()
			} else {
				// Parent relation is sound; only the distance drifted
				// (typically after an edge reversal): re-derive it.
				n.setDistance(n.views.Get(n.parent).Distance + 1)
			}
		}
	}
	if !n.newRootCandidate() && n.betterParent() {
		if u := n.bestParentCandidate(); u >= 0 {
			n.changeParentTo(u)
		}
	}
}

// Maximum-degree module (paper §3.2.3): the continuous piggybacked PIF.
// The feedback half folds subtree maxima upward through submax; the
// propagation half copies (dmax, color) downward from the parent; the
// root flips color whenever its computed maximum changes, freezing
// reductions network-wide until every neighborhood agrees again.
func (n *Node) runDegreeModule() {
	deg := n.Deg()
	sub := deg
	for i := 0; i < n.views.Len(); i++ {
		v := n.views.At(i)
		if v.Parent == n.id && n.views.ID(i) != n.parent { // a child
			if v.Submax > sub {
				sub = v.Submax
			}
		}
	}
	if n.submax != sub {
		n.submax = sub
		n.version++
	}
	if n.parent == n.id {
		if n.dmax != sub {
			n.dmax = sub
			n.color = !n.color
			n.version++
		}
		return
	}
	if v := n.views.Get(n.parent); v != nil {
		if n.dmax != v.Dmax || n.color != v.Color {
			n.dmax = v.Dmax
			n.color = v.Color
			n.version++
		}
	}
}
