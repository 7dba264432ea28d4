package core

import (
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// The literal exchange: the paper's two-phase message choreography of
// Figures 1-2, run by nodes built with NewLiteralNode. The chain
// exchange (reduce.go) carries out the same edge exchange as an ordered
// chain of single-parent moves so that every intermediate configuration
// is a spanning tree; this one keeps the paper's messages on the wire:
//
//   - Improve sends a Remove message from the search terminus across the
//     initiating non-tree edge; the Remove is routed hop by hop along the
//     fundamental-cycle path it carries, mutating nothing until it
//     reaches the target edge (Figure 2, lines 3-14, the "w,z ∈ list2"
//     transit case).
//   - At the target edge, Reverse_Orientation (Figure 1, lines 31-43)
//     deletes the edge and corrects the orientation of the detached
//     segment, continuing with either the same Remove (Figure 5a) or a
//     Back message retracing the traversed prefix (Figure 5b). Each hop
//     of that second phase re-parents one node onto its successor on the
//     cycle; the final hop re-attaches the detached segment through the
//     initiating edge (the source_remove case).
//   - UpdateDist floods repair the distances of the reversed region
//     (Figure 2, lines 25-27), and Reverse (Figure 2, lines 23-24)
//     reverses a parent chain when a transit node finds the expected
//     tree edge already gone (the Reverse_Aux handshake).
//
// Because the removal happens at the target edge *before* the detached
// segment is re-attached, intermediate configurations are NOT spanning
// trees: the detached region is transiently parent-cycled or rootless
// exactly as in the paper, and the spanning-tree module (rules R1/R2)
// absorbs any choreography that aborts midway. That is the property this
// exchange exists to exercise; the tests check that both exchanges
// converge to legitimate configurations with deg(T) <= Δ*+1 and that
// this one pays for its fidelity with extra repair churn (experiment
// E11).
//
// # Interpretation notes
//
// I1. The paper's pseudo-code leaves the orientation bookkeeping of
// Reverse_Orientation under-determined: the roles of list1/list2 and the
// re-parent at the first target endpoint cannot all hold simultaneously
// for any consistent reading of path order. This implementation derives
// the case split from the actual tree state at the target edge, which is
// the only reading that realizes Figure 5(c)'s net effect:
//
//   - If the target edge is no longer a tree edge, a concurrent exchange
//     has already removed it and the message is discarded, the paper's
//     staleness rule.
//   - If the far endpoint of the target edge is the child (its parent
//     pointer crosses the target edge against the travel direction), the
//     detached segment lies ahead: continue with Remove (case a).
//   - If the near endpoint is the child, the detached segment is the
//     already-traversed prefix: send Back along the reversed prefix
//     (case b).
//   - Otherwise the target node is the apex of the cycle (its parent is
//     off the path): it keeps its parent, and the far endpoint's own
//     reorientation hop removes the target edge.
//
// I2. Where a reorientation hop finds the expected tree edge to its
// sender gone, the paper runs the Reverse_Aux handshake; this
// implementation aborts the hop and lets the spanning-tree module repair
// the partial exchange.

// improve is the paper's Improve(y, deg, e, path): it freezes the
// decision context into a Remove message and sends it to the head of the
// path — the initiator y, reached across the initiating non-tree edge.
// The cycle order carried by the message is [y, n1, .., nk, x].
func (n *Node) improve(ctx *sim.Context, msg *SearchMsg, wi int) {
	path := msg.Path
	ids := make([]int, 0, len(path)+1)
	for i := range path {
		ids = append(ids, path[i].Node)
	}
	ids = append(ids, n.id)
	w := path[wi].Node
	z := ids[wi+1] // successor on the cycle (x itself when wi is last)
	n.stats.RemovesStarted++
	ctx.Send(msg.Init.U, RemoveMsg{
		Init:   msg.Init,
		DegMax: n.dmax,
		Target: graph.Edge{U: w, V: z},
		WDeg:   path[wi].Deg,
		Path:   ids,
		Pos:    0,
	})
}

// handleRemove processes one hop of a Remove message (Figure 2, lines
// 3-14, including the closing "send InfoMsg to all" of line 14).
func (n *Node) handleRemove(ctx *sim.Context, from int, msg RemoveMsg) {
	if msg.Pos < 0 || msg.Pos >= len(msg.Path) || msg.Path[msg.Pos] != n.id {
		n.stats.ChoreoAborted++
		return
	}
	defer n.sendInfo(ctx)
	if msg.Reorient {
		n.reorientHop(ctx, from, msg)
		return
	}
	// Routing phase: the paper freezes reduction handling while the
	// neighborhood is unstable; the message is simply dropped (the
	// periodic search retries).
	if !n.locallyStabilized() || n.dmax != msg.DegMax {
		n.stats.ChoreoAborted++
		return
	}
	if n.id == msg.Target.U {
		n.reverseOrientation(ctx, from, msg)
		return
	}
	if msg.Pos+1 >= len(msg.Path) {
		n.stats.ChoreoAborted++
		return // the target was not on the remaining path: malformed
	}
	// Transit: forward toward the target edge, mutating nothing — even
	// across an edge deleted by a concurrent exchange ("carries on as if
	// the deleted edge would be still alive").
	msg.Pos++
	ctx.Send(msg.Path[msg.Pos], msg)
}

// reverseOrientation is the paper's Reverse_Orientation (Figure 1, lines
// 31-43) at the target node w: it performs the removal and decides,
// from the orientation of the tree at the target edge, whether the
// reorientation of the detached segment continues forward with the same
// Remove (Figure 5a) or retraces the prefix with a Back (Figure 5b).
func (n *Node) reverseOrientation(ctx *sim.Context, from int, msg RemoveMsg) {
	wi := msg.Pos
	z := msg.Target.V
	if wi < 1 || wi+1 >= len(msg.Path) || msg.Path[wi+1] != z {
		n.stats.ChoreoAborted++
		return
	}
	// target_remove: the degree and status of the target must match the
	// decision context, otherwise the Remove is discarded (Lemma 3,
	// case 2: a concurrent improvement already happened).
	if n.Deg() != msg.WDeg || n.dmax != msg.DegMax || !n.isTreeEdge(z) {
		n.stats.ChoreoAborted++
		return
	}
	pred := msg.Path[wi-1]
	switch {
	case n.parent == pred:
		// Figure 5a: the segment ahead (z..x) is the detached side; w
		// leaves its parent (removing edge {pred, w}) and joins the
		// reversed chain. The Remove continues forward.
		vz := n.views.Get(z)
		n.parent = z
		n.distance = vz.Distance + 1
		n.color = !n.color
		n.version++
		n.stats.ReorientHops++
		if n.audit != nil {
			n.audit(MutationExchange, pred, z)
		}
		msg.Pos++
		msg.Reorient = true
		ctx.Send(z, msg)
	case n.parent == z:
		// Figure 5b: the traversed prefix (y..w) is the detached side; w
		// leaves z (removing the target edge {w, z}) and re-parents onto
		// its predecessor; a Back retraces the prefix in reverse.
		vp := n.views.Get(pred)
		n.parent = pred
		n.distance = vp.Distance + 1
		n.color = !n.color
		n.version++
		n.stats.BacksStarted++
		if n.audit != nil {
			n.audit(MutationExchange, z, pred)
		}
		rev := make([]int, 0, wi)
		for i := wi - 1; i >= 0; i-- {
			rev = append(rev, msg.Path[i])
		}
		ctx.Send(pred, BackMsg{Init: msg.Init, Path: rev, Pos: 0})
	default:
		// w is the apex of the cycle (its parent is off-path): the target
		// edge {w, z} is removed by z's own reorientation hop; w itself
		// keeps its parent (interpretation I1).
		n.color = !n.color
		n.version++
		msg.Pos++
		msg.Reorient = true
		ctx.Send(z, msg)
	}
}

// reorientHop applies one hop of the forward reorientation (the "w,z ∉
// list2" state of Figure 2, lines 10-13): the node leaves its old parent
// (the sender) and re-parents onto its successor on the cycle; the final
// hop is the source_remove attachment through the initiating edge.
func (n *Node) reorientHop(ctx *sim.Context, from int, msg RemoveMsg) {
	if n.parent != from {
		// The expected tree edge to the sender is gone: the tree changed
		// under the exchange (interpretation I2).
		n.stats.ChoreoAborted++
		return
	}
	if n.id == msg.Init.V { // source_remove: re-attach through the init edge
		n.attachAcross(ctx, from, msg.Init.U)
		return
	}
	if next := n.reorientStep(from, msg.Path, msg.Pos); next >= 0 {
		msg.Pos++
		ctx.Send(next, msg)
	}
}

// handleBack applies one hop of the backward reorientation (Figure 2,
// lines 15-21): each prefix node re-parents onto its predecessor on the
// cycle; the initiator finally re-attaches through the initiating edge
// (the paper's line 17 with the endpoint corrected to the far endpoint).
func (n *Node) handleBack(ctx *sim.Context, from int, msg BackMsg) {
	if msg.Pos < 0 || msg.Pos >= len(msg.Path) || msg.Path[msg.Pos] != n.id {
		n.stats.ChoreoAborted++
		return
	}
	defer n.sendInfo(ctx) // Figure 2, line 21
	if n.parent != from {
		n.stats.ChoreoAborted++ // Reverse_Aux situation: abort (I2)
		return
	}
	if n.id == msg.Init.U { // source attach: re-parent onto the terminus
		n.attachAcross(ctx, from, msg.Init.V)
		return
	}
	if next := n.reorientStep(from, msg.Path, msg.Pos); next >= 0 {
		msg.Pos++
		ctx.Send(next, msg)
	}
}

// attachAcross is the last hop of a reorientation: the node leaves its
// parent `from` and re-attaches the detached segment through the
// initiating edge to `to`, completing the exchange.
func (n *Node) attachAcross(ctx *sim.Context, from, to int) {
	if n.isTreeEdge(to) {
		n.stats.ChoreoAborted++
		return
	}
	vt := n.views.Get(to)
	n.parent = to
	n.distance = vt.Distance + 1
	n.version++
	n.stats.ExchangesComplete++
	if n.audit != nil {
		n.audit(MutationExchange, from, to)
	}
	n.notifyChildrenDist(ctx, -1)
}

// reorientStep is one interior reorientation hop: the node leaves its
// parent `from` for its successor on the carried path and returns that
// successor, the message's next stop (-1 when the path ends here).
func (n *Node) reorientStep(from int, path []int, pos int) int {
	if pos+1 >= len(path) {
		n.stats.ChoreoAborted++
		return -1
	}
	next := path[pos+1]
	vn := n.views.Get(next)
	n.parent = next
	n.distance = vn.Distance + 1
	n.version++
	n.stats.ReorientHops++
	if n.audit != nil {
		n.audit(MutationExchange, from, next)
	}
	return next
}

// handleReverseAux is the paper's Reverse handler, literal (Figure 2,
// lines 23-24): forward up the old parent chain, then adopt the sender
// as the new parent — reversing the chain's orientation hop by hop until
// Target is reached.
func (n *Node) handleReverseAux(ctx *sim.Context, from int, msg ReverseAuxMsg) {
	if msg.Target != n.id && n.parent != n.id && n.parent != from {
		ctx.Send(n.parent, ReverseAuxMsg{Target: msg.Target})
		n.stats.ReversesSent++
	}
	if v := n.views.Get(from); v != nil {
		if n.parent != from || n.distance != v.Distance+1 {
			old := n.parent
			n.parent = from
			n.distance = v.Distance + 1
			n.version++
			if n.audit != nil && old != from {
				n.audit(MutationExchange, old, from)
			}
		}
	}
}
