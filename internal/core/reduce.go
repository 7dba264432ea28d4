package core

import (
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// Degree-reduction module (paper §3.2.4, Figs. 1, 2, 4, 5).
//
// actionOnCycle runs at the terminus x of a Search for the non-tree edge
// {y, x} (y = Init.U) once the token has collected the fundamental cycle
// y .. x. It classifies the cycle exactly as the paper's
// Action_on_Cycle: a direct improvement when the cycle holds a
// maximum-degree node and both endpoints have degree < dmax-1; a Deblock
// when an endpoint is a blocking node (degree dmax-1); for deblock
// searches (Block >= 0) the same tests target the blocked node instead.
//
// The chain exchange (startReversal) is a ReverseMsg chain along the
// cycle: each hop re-parents one node onto the message sender, so the
// tree remains a spanning tree after every atomic step, and the final
// hop both removes the target edge and flips the local color. It stands
// in for the paper's Remove/Back/Reverse + color toggle, whose
// intermediate configurations are not trees; literal nodes run that
// choreography instead (choreo.go).

// actionOnCycle classifies the completed cycle and reacts.
func (n *Node) actionOnCycle(ctx *sim.Context, msg *SearchMsg) {
	n.stats.CyclesClassified++
	path := msg.Path
	y := msg.Init.U
	vy := n.views.Get(y)
	if vy == nil {
		return
	}
	myDeg := n.Deg()
	endMax := myDeg
	if vy.Deg > endMax {
		endMax = vy.Deg
	}
	if msg.Block < 0 {
		dpath := 0
		for i := range path {
			if path[i].Deg > dpath {
				dpath = path[i].Deg
			}
		}
		if dpath != n.dmax {
			return // no maximum-degree node on this cycle
		}
		switch {
		case endMax < n.dmax-1:
			// Improving edge (the paper's Eq. 1): pick the min-ID node of
			// maximum degree on the path and remove its successor edge.
			// The chain exchange picks over the whole path and gives up
			// when the pick is the initiator, whose recorded degree then
			// contradicts this node's view of it; the literal exchange
			// picks among interior nodes only. The two rules choose
			// differently on real runs, and each exchange keeps its own.
			first := 0
			if n.literal {
				first = 1
			}
			wi := -1
			for i := first; i < len(path); i++ {
				if path[i].Deg == dpath && (wi == -1 || path[i].Node < path[wi].Node) {
					wi = i
				}
			}
			if wi > 0 { // endpoints can never be targets (degree < dmax-1)
				n.exchange(ctx, msg, wi)
			}
		case endMax == n.dmax-1:
			// A blocking endpoint: try to reduce its degree first.
			n.triggerDeblock(ctx, y, myDeg, vy.Deg)
		}
		return
	}

	// Deblock search: the cycle must pass through the blocked node.
	b := msg.Block
	if b == n.id || b == y {
		return
	}
	bi := -1
	for i := range path {
		if path[i].Node == b {
			bi = i
			break
		}
	}
	if bi <= 0 {
		return // not on this cycle (or recorded as initiator: impossible)
	}
	if path[bi].Deg != n.dmax-1 {
		return // no longer a blocking node: stale
	}
	switch {
	case endMax < n.dmax-1:
		if n.cfg.DeblockTieBreak {
			// Equal-potential exchange guard: an endpoint rising to
			// dmax-1 must have a smaller ID than the blocked node it
			// replaces, or the exchange could oscillate. When the
			// removed edge (b, successor) is incident to this node (the
			// successor is the terminus itself), its degree change nets
			// to zero and the guard does not apply to it.
			zIsSelf := bi+1 == len(path)
			if !zIsSelf && myDeg == n.dmax-2 && n.id > b {
				return
			}
			if vy.Deg == n.dmax-2 && y > b {
				return
			}
		}
		n.exchange(ctx, msg, bi)
	case endMax == n.dmax-1 && msg.TTL > 0:
		n.triggerDeblockTTL(ctx, y, myDeg, vy.Deg, msg.TTL-1)
	}
}

// exchange starts the node's edge exchange on the completed cycle,
// removing the cycle edge from path[wi] to its successor.
func (n *Node) exchange(ctx *sim.Context, msg *SearchMsg, wi int) {
	if n.literal {
		n.improve(ctx, msg, wi)
		return
	}
	n.startReversal(ctx, msg.Init, msg.Path, wi, msg.Path[wi].Deg)
}

// triggerDeblock starts a deblock for whichever endpoint of the init
// edge blocks the improvement, with a fresh TTL.
func (n *Node) triggerDeblock(ctx *sim.Context, y, myDeg, yDeg int) {
	n.triggerDeblockTTL(ctx, y, myDeg, yDeg, n.cfg.DeblockTTL)
}

// triggerDeblockTTL is the paper's Deblock(y, s): the higher-degree
// endpoint becomes the blocked node; ties trigger both.
func (n *Node) triggerDeblockTTL(ctx *sim.Context, y, myDeg, yDeg, ttl int) {
	if ttl <= 0 {
		return
	}
	if myDeg >= yDeg {
		n.broadcastDeblock(ctx, n.id, ttl, -1)
	}
	if yDeg >= myDeg {
		ctx.Send(y, DeblockMsg{Block: y, TTL: ttl})
	}
}

// broadcastDeblock floods a Deblock through the blocked node's subtree
// (the paper's Broadcast) and launches the local deblock searches.
func (n *Node) broadcastDeblock(ctx *sim.Context, block, ttl, except int) {
	if last, ok := n.lastDeblock[block]; ok && n.tick-last < n.cfg.SearchPeriod {
		return // suppress storms: this subtree was just asked
	}
	if n.lastDeblock == nil {
		n.lastDeblock = make(map[int]int)
	}
	n.lastDeblock[block] = n.tick
	n.stats.DeblocksTriggered++
	for i, u := range n.nbrs {
		if u == except || !n.treeEdgeAt(i) {
			continue
		}
		if n.views.At(i).Parent == n.id { // children only: subtree flood
			ctx.Send(u, DeblockMsg{Block: block, TTL: ttl})
		}
	}
	// Cycle_Search(idblock) for every incident non-tree edge: deblock
	// searches ignore the ID-order rule (the cycle just has to pass
	// through the blocked node).
	for i, u := range n.nbrs {
		if !n.treeEdgeAt(i) {
			n.startSearch(ctx, u, block, ttl)
		}
	}
}

// handleDeblock processes a Deblock received from a neighbor.
func (n *Node) handleDeblock(ctx *sim.Context, from int, msg DeblockMsg) {
	if !n.locallyStabilized() || msg.TTL <= 0 {
		return
	}
	n.broadcastDeblock(ctx, msg.Block, msg.TTL, from)
}

// startReversal builds and launches the edge-exchange chain for the
// cycle C = path .. x (x = this node), targeting the cycle edge
// {w, z} where w = path[wi].Node and z is w's successor on the cycle.
func (n *Node) startReversal(ctx *sim.Context, init graph.Edge, path []PathEntry, wi, targetDeg int) {
	w := path[wi].Node
	var z, zParent int
	if wi+1 < len(path) {
		z = path[wi+1].Node
		zParent = path[wi+1].Parent
	} else {
		z = n.id
		zParent = n.parent
	}
	y := init.U

	switch {
	case path[wi].Parent == z:
		// Child end is w: the detached component contains y (Fig. 5a);
		// the chain re-parents y, path[1..wi], ending at w, terminator z.
		chain := make([]int, 0, wi+2)
		for i := 0; i <= wi; i++ {
			chain = append(chain, path[i].Node)
		}
		chain = append(chain, z)
		ctx.Send(y, ReverseMsg{
			Init:       init,
			DegMax:     n.dmax,
			TargetNode: w,
			TargetDeg:  targetDeg,
			Nodes:      chain,
			Dist:       n.distance + 1,
		})
	case zParent == w:
		// Child end is z: the detached component contains this node
		// (Fig. 5b); the chain starts here and walks back to z,
		// terminator w. Apply the first hop locally.
		chain := make([]int, 0, len(path)-wi+1)
		chain = append(chain, n.id)
		for i := len(path) - 1; i > wi; i-- {
			chain = append(chain, path[i].Node)
		}
		chain = append(chain, w)
		if n.parent != chain[1] {
			return // stale orientation
		}
		vy := n.views.Get(y)
		old := n.parent
		n.parent = y
		n.distance = vy.Distance + 1
		n.version++
		n.stats.ExchangesApplied++
		if n.audit != nil {
			n.audit(MutationExchange, old, y)
		}
		if len(chain) == 2 {
			// Degenerate chain [x, w]: the exchange is complete and this
			// node was adjacent to the target.
			n.stats.ExchangesComplete++
			n.color = !n.color
		} else {
			ctx.Send(chain[1], ReverseMsg{
				Init:       init,
				DegMax:     n.dmax,
				TargetNode: w,
				TargetDeg:  targetDeg,
				Nodes:      chain[1:],
				Dist:       n.distance + 1,
			})
		}
		n.notifyChildrenDist(ctx, chain[1])
	default:
		// Neither endpoint of {w,z} is the other's parent: the tree
		// changed since the token recorded the path. Drop.
	}
}

// handleReverse applies one hop of an edge-exchange chain.
func (n *Node) handleReverse(ctx *sim.Context, from int, msg ReverseMsg) {
	if len(msg.Nodes) < 2 || msg.Nodes[0] != n.id {
		return
	}
	expectedParent := msg.Nodes[1]
	if n.parent != expectedParent {
		n.stats.ChainsAborted++
		return // stale chain: abort (the tree stays a spanning tree)
	}
	first := (msg.Init.U == from && msg.Init.V == n.id) ||
		(msg.Init.V == from && msg.Init.U == n.id)
	last := len(msg.Nodes) == 2
	if first {
		// Attachment hop: re-validate the improving-edge conditions with
		// this node's exact local knowledge before mutating anything.
		if n.isTreeEdge(from) || n.dmax != msg.DegMax || n.Deg() > msg.DegMax-2 {
			n.stats.ChainsAborted++
			return
		}
	}
	if last && msg.TargetNode == n.id {
		// Final hop at the reduced node itself: the paper's target_remove
		// check — degree and dmax must still match the decision context.
		if n.Deg() != msg.TargetDeg || n.dmax != msg.DegMax {
			n.stats.ChainsAborted++
			return
		}
	}
	n.parent = from
	n.distance = msg.Dist
	n.version++
	n.stats.ExchangesApplied++
	if n.audit != nil {
		n.audit(MutationExchange, expectedParent, from)
	}
	if last {
		n.stats.ExchangesComplete++
		n.color = !n.color // the paper's color toggle at the removal site
	} else {
		ctx.Send(expectedParent, ReverseMsg{
			Init:       msg.Init,
			DegMax:     msg.DegMax,
			TargetNode: msg.TargetNode,
			TargetDeg:  msg.TargetDeg,
			Nodes:      msg.Nodes[1:],
			Dist:       msg.Dist + 1,
		})
	}
	n.notifyChildrenDist(ctx, expectedParent)
}

// notifyChildrenDist floods UpdateDist to the node's children (except the
// chain successor, which re-parents itself) so their subtree distances
// are repaired proactively rather than by R2 churn (Figure 2, lines
// 25-27).
func (n *Node) notifyChildrenDist(ctx *sim.Context, except int) {
	for i, u := range n.nbrs {
		if u != except && n.views.At(i).Parent == n.id {
			ctx.Send(u, UpdateDistMsg{Dist: n.distance})
		}
	}
}

// handleUpdateDist repairs this node's distance from its parent's
// announcement and propagates downward on change. Announcements beyond
// the distance bound are dropped: in a transient parent cycle the flood
// would otherwise circulate forever (the forwarding condition is met all
// the way around), repeatedly re-raising distances that rule R2's patch
// repair pulls back down — a livelock that keeps the cycle alive. With
// the bound the flood dies out and the patch-climb reaches MaxDist,
// where create_new_root breaks the cycle.
func (n *Node) handleUpdateDist(ctx *sim.Context, from int, msg UpdateDistMsg) {
	if from != n.parent {
		return
	}
	if msg.Dist+1 > n.cfg.MaxDist {
		return
	}
	if n.distance == msg.Dist+1 {
		return
	}
	n.distance = msg.Dist + 1
	n.version++
	n.notifyChildrenDist(ctx, -1)
}
