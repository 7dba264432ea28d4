package core

import "mdst/internal/graph"

// Message kinds, exported for metric queries and stop conditions.
// Remove and Back travel only in the literal exchange, Reverse only in
// the chain exchange.
const (
	KindInfo       = "info"
	KindSearch     = "search"
	KindReverse    = "reverse"
	KindRemove     = "remove"
	KindBack       = "back"
	KindDeblock    = "deblock"
	KindUpdateDist = "updatedist"
)

// ReductionKinds lists the message kinds that must drain before a
// configuration can be considered quiescent: an in-flight Remove, Back,
// Reverse or UpdateDist can still change the tree. One list serves both
// exchanges, since chain-exchange nodes never send Remove or Back.
// Search and Deblock are deliberately absent: both keep flowing forever
// at a fixed point by design (periodic searches, deblock floods that
// find nothing), and neither mutates state by itself; runners pair this
// list with a fingerprint-stability window of at least 2n rounds, which
// covers any token still in flight.
func ReductionKinds() []string {
	return []string{KindRemove, KindBack, KindReverse, KindUpdateDist}
}

// InfoMsg is the paper's InfoMsg: the periodic gossip carrying a node's
// protocol variables to its neighbors, implementing the send/receive
// atomicity model (each node keeps a local copy of its neighbors'
// variables, refreshed only by these messages).
type InfoMsg struct {
	Root     int
	Parent   int
	Distance int
	Dmax     int
	Submax   int
	Deg      int
	Color    bool
}

// Kind implements sim.Message.
func (InfoMsg) Kind() string { return KindInfo }

// Size implements sim.Message: seven O(log n) words.
func (InfoMsg) Size() int { return 7 }

// PathEntry is one node's record on a Search token's DFS stack: its
// identity, tree degree and parent (used to orient the removal), and the
// cursor of the last tree neighbor tried (so no per-search state is ever
// stored at nodes, as in the paper — the path lives in the message).
type PathEntry struct {
	Node   int
	Deg    int
	Parent int
	Cursor int // last tree neighbor tried at this node; -1 before any
}

// SearchMsg is the paper's Search message: a DFS token over tree edges
// looking for the fundamental cycle of the non-tree edge Init. Block is
// the blocking node being deblocked (-1 for a plain search); TTL bounds
// deblock recursion.
//
// A token travels by pointer: *SearchMsg is the sim.Message, and it has
// exactly one holder at a time — the link it is queued on or the node
// handling it. The handler pushes and pops Path entries and moves
// cursors in place, then forwards the same pointer, so a hop allocates
// nothing. A holder that sends the token gives it away: from then on
// it neither reads nor writes it, and a token is never sent twice.
// Tokens are recycled: startSearch takes one from a pool, and the node
// where a token's life ends (it is dropped, its DFS is exhausted, or
// its cycle is classified at the terminus) releases it back instead of
// sending it. Releasing is a handoff too: the node touches the token
// no more, and it is never both sent and released.
type SearchMsg struct {
	Init  graph.Edge // Init.U = initiator, Init.V = sought endpoint
	Block int
	TTL   int
	Path  []PathEntry
}

// Kind implements sim.Message; it reads nothing from the token.
func (*SearchMsg) Kind() string { return KindSearch }

// Size implements sim.Message: four words per stack entry plus header —
// O(n log n) bits in the worst case, matching the paper's buffer bound.
func (m *SearchMsg) Size() int { return 4*len(m.Path) + 5 }

// ReverseMsg is the chain exchange's hop: it travels along the
// fundamental cycle re-parenting each chain node onto the message's
// sender, realizing the paper's Remove/Back/Reverse orientation
// correction (Fig. 5) as a sequence of single-parent moves, each of
// which keeps the structure a spanning tree.
//
// Nodes[0] is the next node to re-parent; the final element is the
// terminator (the old parent of the last re-parented node) and is never
// re-parented itself. TargetNode/TargetDeg/DegMax freeze the decision
// context so stale reversals abort.
type ReverseMsg struct {
	Init       graph.Edge
	DegMax     int
	TargetNode int
	TargetDeg  int
	Nodes      []int
	Dist       int // distance the receiving node adopts
}

// Kind implements sim.Message.
func (ReverseMsg) Kind() string { return KindReverse }

// Size implements sim.Message.
func (m ReverseMsg) Size() int { return len(m.Nodes) + 7 }

// DeblockMsg asks the subtree of a blocking node to look for a cycle
// through Block that can reduce Block's degree (the paper's Deblock).
type DeblockMsg struct {
	Block int
	TTL   int
}

// Kind implements sim.Message.
func (DeblockMsg) Kind() string { return KindDeblock }

// Size implements sim.Message.
func (DeblockMsg) Size() int { return 2 }

// UpdateDistMsg repairs distances in the subtree below a re-parented
// node (the paper's UpdateDist): receivers whose parent sent it adopt
// Dist+1 and forward.
type UpdateDistMsg struct {
	Dist int
}

// Kind implements sim.Message.
func (UpdateDistMsg) Kind() string { return KindUpdateDist }

// Size implements sim.Message.
func (UpdateDistMsg) Size() int { return 1 }

// RemoveMsg is the literal exchange's Remove message: ⟨Remove,
// init_edge, deg_max, target, path⟩. It is routed from the search
// terminus across the initiating non-tree edge and then along the
// fundamental cycle to the target edge; past the target edge it drives
// the reorientation of the detached segment (Figure 5a).
//
// Path holds the cycle node IDs in traversal order: the initiator
// (Init.U) first, the terminus (Init.V) last. Pos is the index of the
// node the message is currently addressed to — the paper encodes the
// same information as the list1 ⊕ v ⊕ list2 split of the carried path.
// Reorient marks that the target edge has been processed (the "w,z ∉
// list2" state of Figure 2, line 10).
type RemoveMsg struct {
	Init     graph.Edge // Init.U = initiator (low ID), Init.V = terminus
	DegMax   int        // deg(T) frozen at decision time
	Target   graph.Edge // Target.U = w (the node whose degree drops), Target.V = z
	WDeg     int        // degree of w at decision time (target_remove check)
	Path     []int
	Pos      int
	Reorient bool
}

// Kind implements sim.Message.
func (RemoveMsg) Kind() string { return KindRemove }

// Size implements sim.Message: one word per path entry plus header,
// O(n log n) bits as in the paper's buffer-length analysis.
func (m RemoveMsg) Size() int { return len(m.Path) + 8 }

// BackMsg is the literal exchange's Back message: ⟨Back, init_edge,
// path⟩. It retraces the already-traversed prefix of the cycle in
// reverse order (Figure 5b), re-parenting each node onto its
// predecessor, and finally re-attaches the detached segment through the
// initiating edge.
type BackMsg struct {
	Init graph.Edge
	Path []int // reversed prefix: Path[0] is the first node to re-parent
	Pos  int
}

// Kind implements sim.Message.
func (BackMsg) Kind() string { return KindBack }

// Size implements sim.Message.
func (m BackMsg) Size() int { return len(m.Path) + 4 }
