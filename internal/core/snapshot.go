package core

import (
	"fmt"

	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// Global-observer helpers: none of this is visible to the nodes; it is
// how experiments and tests decide whether a configuration is legitimate
// and extract the constructed tree.

// BuildNetwork wires a simulated network of chain-exchange nodes over g.
func BuildNetwork(g *graph.Graph, cfg Config, seed int64) *sim.Network {
	return sim.NewNetwork(g, func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
		return NewNode(id, nbrs, cfg)
	}, seed)
}

// NodesOf extracts the protocol nodes from a network built by
// BuildNetwork.
func NodesOf(net *sim.Network) []*Node {
	out := make([]*Node, net.Graph().N())
	for i := range out {
		out[i] = net.Process(i).(*Node)
	}
	return out
}

// ExtractTree reconstructs the spanning tree from the nodes' parent
// pointers. It fails if the pointers do not form a single spanning tree
// rooted at a self-parented node.
func ExtractTree(g *graph.Graph, nodes []*Node) (*spanning.Tree, error) {
	root := -1
	parents := make([]int, g.N())
	for i, nd := range nodes {
		parents[i] = nd.Parent()
		if nd.Parent() == nd.ID() {
			if root != -1 {
				return nil, fmt.Errorf("core: multiple roots (%d and %d)", root, i)
			}
			root = i
		}
	}
	if root == -1 {
		return nil, fmt.Errorf("core: no root")
	}
	return spanning.NewFromParents(g, parents, root)
}

// AggregateStats sums the per-node protocol counters.
func AggregateStats(nodes []*Node) Stats {
	var total Stats
	for _, nd := range nodes {
		s := nd.NodeStats()
		total.SearchesLaunched += s.SearchesLaunched
		total.CyclesClassified += s.CyclesClassified
		total.ExchangesComplete += s.ExchangesComplete
		total.DeblocksTriggered += s.DeblocksTriggered
		total.SearchesSuppressed += s.SearchesSuppressed
		total.ExchangesApplied += s.ExchangesApplied
		total.ChainsAborted += s.ChainsAborted
		total.RemovesStarted += s.RemovesStarted
		total.ReorientHops += s.ReorientHops
		total.BacksStarted += s.BacksStarted
		total.ChoreoAborted += s.ChoreoAborted
	}
	return total
}

// Legitimacy is the result of checking the global legitimacy predicate.
type Legitimacy struct {
	TreeValid   bool // parent pointers form one spanning tree
	RootIsMin   bool // rooted at the minimum ID, all root variables agree
	DistancesOK bool // every distance equals the tree depth
	ViewsOK     bool // every neighbor copy matches the neighbor's state
	DmaxOK      bool // every dmax equals deg(T); colors agree
	FixedPoint  bool // no Fürer–Raghavachari improvement exists
	MaxDegree   int  // deg(T) if TreeValid
	Detail      string
}

// OK reports whether every component of the predicate holds.
func (l Legitimacy) OK() bool {
	return l.TreeValid && l.RootIsMin && l.DistancesOK && l.ViewsOK &&
		l.DmaxOK && l.FixedPoint
}

// CheckLegitimacy evaluates the full legitimacy predicate on a
// configuration snapshot: one spanning tree rooted at the minimum ID,
// coherent distances, views and degree information, and no
// Fürer–Raghavachari improvement left.
func CheckLegitimacy(g *graph.Graph, nodes []*Node) Legitimacy {
	var leg Legitimacy
	tree, err := ExtractTree(g, nodes)
	if err != nil {
		leg.Detail = err.Error()
		return leg
	}
	leg.TreeValid = true
	leg.MaxDegree = tree.MaxDegree()

	leg.RootIsMin = tree.Root() == 0
	for _, nd := range nodes {
		if nd.Root() != 0 {
			leg.RootIsMin = false
		}
	}
	// Node 0 is always the minimum ID by construction of the graph
	// substrate; a relabeled instance still uses 0..n-1.

	leg.DistancesOK = true
	depth := tree.Depths()
	for i, nd := range nodes {
		if nd.Distance() != depth[i] {
			leg.DistancesOK = false
			leg.Detail = fmt.Sprintf("node %d distance %d, depth %d", i, nd.Distance(), depth[i])
			break
		}
	}

	leg.ViewsOK = true
viewCheck:
	for i, nd := range nodes {
		for _, u := range g.Neighbors(i) {
			v := nd.views.Get(u)
			o := nodes[u]
			if v.Root != o.root || v.Parent != o.parent || v.Distance != o.distance ||
				v.Dmax != o.dmax || v.Submax != o.submax || v.Color != o.color ||
				v.Deg != o.Deg() {
				leg.ViewsOK = false
				leg.Detail = fmt.Sprintf("node %d stale view of %d", i, u)
				break viewCheck
			}
		}
	}

	leg.DmaxOK = true
	color := nodes[0].Color()
	for _, nd := range nodes {
		if nd.Dmax() != leg.MaxDegree || nd.Color() != color {
			leg.DmaxOK = false
			break
		}
	}

	leg.FixedPoint = mdstseq.IsFixedPoint(tree)
	return leg
}
