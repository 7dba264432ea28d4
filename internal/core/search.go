package core

import (
	"sync"

	"mdst/internal/graph"
	"mdst/internal/sim"
)

// Fundamental-cycle detection module (paper §3.2.2, Fig. 3). For every
// non-tree edge {v,u} with ID v < ID u, v periodically launches a Search
// token that performs a DFS over tree edges; the token's Path is the DFS
// stack, so when it first reaches u the stack is exactly the tree path
// from v to u — the fundamental cycle of {v,u}. No per-search state is
// stored at nodes: each stack entry carries a cursor marking the last
// tree neighbor tried, and backtracking resumes from it.

// searchKey identifies the fundamental cycle a Search token works on:
// the initiating non-tree edge plus the deblock context. Tokens with the
// same key are redundant while the tree (as this node sees it) has not
// changed — the basis of the suppression module below.
type searchKey struct {
	init  graph.Edge
	block int
}

// searchSeen is the suppression record for one key: when this node last
// let an equivalent token through, and what its own state version was at
// that moment.
type searchSeen struct {
	tick    int
	version uint64
}

// seenSearchCap caps the suppression map. At the cap, expired and
// version-stale entries are evicted (per-entry predicates only, so the
// map contents stay deterministic regardless of iteration order); if
// every entry is still live the map is cleared outright — records are
// an optimization, and dropping them only re-admits a few redundant
// tokens, whereas keeping a saturated map would re-run the O(cap)
// sweep on every subsequent pass.
const seenSearchCap = 512

// searchSuppressor holds one node's duplicate-token pruning records —
// the search-suppression module's only state. It is transient
// bookkeeping like the retry schedule: never fingerprinted, and
// recording a pass must not bump the node's state version, or
// quiescence could never be reached.
type searchSuppressor struct {
	seen map[searchKey]searchSeen
}

func newSearchSuppressor() *searchSuppressor {
	return &searchSuppressor{seen: make(map[searchKey]searchSeen)}
}

// clone deep-copies the records (model-checker branching).
func (s *searchSuppressor) clone() *searchSuppressor {
	c := &searchSuppressor{seen: make(map[searchKey]searchSeen, len(s.seen))}
	for k, v := range s.seen {
		c.seen[k] = v
	}
	return c
}

// suppress is the duplicate-pruning decision: pruned when an equivalent
// token (same fundamental-cycle key) already passed this node within
// `window` ticks and the node's state version is unchanged since —
// re-walking the cycle could not reach a different classification
// sooner than the recorded token's retry will. Otherwise the pass is
// recorded, and lapsed reports the adaptive-backoff observable: the
// key's record outlived the window with the node's version unchanged —
// a full pruning window elapsed at a fixed point, the evidence
// RetryBackoff deepens on (a first-ever pass or a version
// change is not a lapse; both mean the schedule should stay at its
// base).
func (s *searchSuppressor) suppress(window, tick int, version uint64, init graph.Edge, block int) (pruned, lapsed bool) {
	key := searchKey{init: init, block: block}
	if r, ok := s.seen[key]; ok && r.version == version {
		if tick-r.tick < window {
			return true, false
		}
		lapsed = true
	}
	if len(s.seen) >= seenSearchCap {
		for k, r := range s.seen {
			if tick-r.tick >= window || r.version != version {
				delete(s.seen, k)
			}
		}
		if len(s.seen) >= seenSearchCap {
			s.seen = make(map[searchKey]searchSeen)
		}
	}
	s.seen[key] = searchSeen{tick: tick, version: version}
	return false, lapsed
}

// passTick returns the earliest tick at which a token with this key
// would pass the pruner under the given window — the recorded pass's
// tick plus the window while the record is live at this version, 0
// when nothing suppresses it. Read-only; the event core parks nodes
// on it.
func (s *searchSuppressor) passTick(window int, version uint64, init graph.Edge, block int) int {
	if r, ok := s.seen[searchKey{init: init, block: block}]; ok && r.version == version {
		return r.tick + window
	}
	return 0
}

// suppressSearch applies the node's suppressor (counting prunes) over
// the current effective pruning window, deepening the adaptive backoff
// when a pass proves a full window elapsed at a fixed point. Never
// called under RetryPaper.
func (n *Node) suppressSearch(init graph.Edge, block int) bool {
	pruned, lapsed := n.suppress.suppress(n.effectiveWindow(), n.tick, n.version, init, block)
	if pruned {
		n.stats.SearchesSuppressed++
		return true
	}
	if lapsed {
		n.deepenBackoff()
	}
	return false
}

// effectiveWindow resolves the node's pruning window for a suppression
// decision: the static PruneWindow without backoff, else the adaptive
// window after applying the instant-reset rule — any state-version
// movement since the tier was earned (a neighbor change observed via
// gossip, or a local mutation) collapses the tier to the base before
// it is consulted, so recovery retries run on the base schedule.
func (n *Node) effectiveWindow() int {
	if n.cfg.Retry == RetryBackoff && n.version != n.backoffVersion {
		n.backoffTier = 0
		n.backoffVersion = n.version
	}
	return n.currentWindow()
}

// deepenBackoff advances the tier after a full effective window lapsed
// at a fixed point — at most one doubling per tick, so concurrent
// lapses on several edges deepen like a single one — saturating at
// maxBackoffTier, where the window is BackoffCapWindow.
func (n *Node) deepenBackoff() {
	if n.cfg.Retry != RetryBackoff || n.backoffTick == n.tick {
		return
	}
	n.backoffTick = n.tick
	if n.backoffTier < maxBackoffTier {
		n.backoffTier++
	}
}

// searchPassTick returns the earliest tick at which a plain-search
// launch for the non-tree edge {n.id, u} would pass the duplicate
// pruner under the current window; 0 when nothing suppresses it.
// Read-only (the reset rule is applied as a view, not a write), so
// observers and the event core's parking decision can call it freely.
func (n *Node) searchPassTick(u int) int {
	if n.suppress == nil {
		return 0
	}
	return n.suppress.passTick(n.currentWindow(), n.version, graph.Edge{U: n.id, V: u}, -1)
}

// currentWindow is the read-only view of effectiveWindow: PruneWindow
// doubled once per backoff tier, where a tier whose version is stale
// reads as the base window (the reset that effectiveWindow would apply)
// without mutating the node.
func (n *Node) currentWindow() int {
	if n.cfg.Retry != RetryBackoff || n.version != n.backoffVersion {
		return n.cfg.PruneWindow()
	}
	return n.cfg.PruneWindow() << n.backoffTier
}

// CurrentRetryPeriod is the node's present worst-case spacing between
// consecutive full passes of an equivalent Search token — the
// time-varying counterpart of Config.EffectiveRetryPeriod, tracking
// the adaptive backoff tier. Read-only: the sim cores derive dynamic
// quiescence-stability windows from the maximum over nodes, and the
// metrics plane samples it.
func (n *Node) CurrentRetryPeriod() int {
	if n.cfg.Retry == RetryPaper {
		return n.cfg.SearchPeriod
	}
	return n.currentWindow()
}

// maybeStartSearches launches due searches from this node: plain searches
// (Block = -1) for non-tree edges toward higher IDs, guarded by the
// paper's locally_stabilized predicate and paced by SearchPeriod. Under
// RetrySuppress and RetryBackoff, launches are additionally batched: at
// most searchBatch tokens leave per tick and the deferred edges stay
// due, so a node with many non-tree edges spreads its token burst over
// consecutive ticks instead of flooding them all at once.
func (n *Node) maybeStartSearches(ctx *sim.Context) {
	if !n.locallyStabilized() {
		return
	}
	// No reduction is ever possible below degree 3 (a degree-2 tree is a
	// Hamiltonian path, the global optimum).
	if n.dmax <= 2 {
		return
	}
	batch := -1
	if n.cfg.Retry != RetryPaper {
		batch = searchBatch
	}
	for i, u := range n.nbrs {
		if n.id > u || n.treeEdgeAt(i) {
			continue
		}
		if n.tick < n.nextSearch[i] {
			continue
		}
		if batch == 0 {
			break // paced: the remaining due edges retry next tick
		}
		n.nextSearch[i] = n.tick + n.cfg.SearchPeriod + n.searchJitter(u)
		n.startSearch(ctx, u, -1, 0)
		if batch > 0 {
			batch--
		}
	}
}

// searchJitter desynchronizes retries of different initiators: two
// concurrent exchanges whose first hops compose into a parent cycle are
// individually legal (the conflict is not locally detectable), and with
// a common retry period the same pair can re-collide after every repair
// — a resonance that keeps the tree broken for over half of all rounds
// on some instances. A deterministic hash of (id, edge, tick) shifts
// each retry phase differently per node while keeping executions fully
// reproducible.
func (n *Node) searchJitter(u int) int {
	span := n.cfg.SearchPeriod / 2
	if span < 2 {
		return 0
	}
	h := uint64(n.id)*0x9e3779b97f4a7c15 ^ uint64(u)*0xc2b2ae3d27d4eb4f ^ uint64(n.tick)*0x165667b19e3779f9
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return int(h % uint64(span))
}

// startSearch launches one DFS token seeking `target` (the other
// endpoint of the non-tree edge {n.id, target}). block/ttl carry deblock
// context (-1/0 for plain searches).
func (n *Node) startSearch(ctx *sim.Context, target, block, ttl int) {
	first := n.firstTreeNeighbor(-1, -1, nil)
	if first < 0 {
		return // isolated in the tree: nothing to traverse
	}
	// Launch-side pruning: skip the token entirely when an equivalent one
	// left here within the window and nothing changed locally (the
	// deblock storm and the periodic retry of an unchanged cycle are the
	// two big redundant-traffic sources).
	if n.cfg.Retry != RetryPaper && n.suppressSearch(graph.Edge{U: n.id, V: target}, block) {
		return
	}
	n.stats.SearchesLaunched++
	tok := searchPool.Get().(*SearchMsg)
	tok.Init, tok.Block, tok.TTL = graph.Edge{U: n.id, V: target}, block, ttl
	tok.Path = append(tok.Path[:0], PathEntry{Node: n.id, Deg: n.Deg(), Parent: n.parent, Cursor: n.nbrs[first]})
	ctx.SendAt(first, tok)
}

// searchPathCap is the Path capacity a new token starts with: enough
// for a typical fundamental cycle, so most tokens never regrow their
// stack.
const searchPathCap = 8

// searchPool recycles Search tokens: startSearch takes one, and the
// handler that ends a token's life — drops it, finds its DFS exhausted
// or classifies its cycle at the terminus — puts it back (release), so
// a token's whole life allocates nothing once the pool is warm. The
// one-holder rule (SearchMsg) is what makes this safe: the releasing
// node is the token's only holder, and a token that is released was not
// sent.
var searchPool = sync.Pool{New: func() any {
	return &SearchMsg{Path: make([]PathEntry, 0, searchPathCap)}
}}

// release ends the token's life at its current holder. The holder
// touches it no more: the next startSearch, at any node, may take it.
func (m *SearchMsg) release() { searchPool.Put(m) }

// firstTreeNeighbor returns the position of the smallest tree neighbor
// with ID > after, excluding `exclude` and any node already on the
// path; -1 if none.
func (n *Node) firstTreeNeighbor(after, exclude int, path []PathEntry) int {
	for i, u := range n.nbrs {
		if u <= after || u == exclude || !n.treeEdgeAt(i) {
			continue
		}
		onPath := false
		for j := range path {
			if path[j].Node == u {
				onPath = true
				break
			}
		}
		if !onPath {
			return i
		}
	}
	return -1
}

// handleSearch advances a DFS token through this node. The node holds
// the token for the duration of the call: it edits the token in place
// and forwards the same pointer, or ends its life and releases it.
func (n *Node) handleSearch(ctx *sim.Context, from int, msg *SearchMsg) {
	if !n.advanceSearch(ctx, from, msg) {
		msg.release()
	}
}

// advanceSearch is handleSearch's step; it reports whether it sent the
// token on. One that it did not send has died here.
func (n *Node) advanceSearch(ctx *sim.Context, from int, msg *SearchMsg) bool {
	// The paper freezes the reduction modules until the neighborhood is
	// locally stabilized; tokens are simply dropped (searches repeat).
	if !n.locallyStabilized() {
		return false
	}
	if len(msg.Path) == 0 {
		return false
	}
	at := ctx.FromPos() // the sender's position: its view and its link
	// Terminus: the token reached the sought endpoint of the init edge.
	if n.id == msg.Init.V {
		if from != msg.Path[len(msg.Path)-1].Node || !n.treeEdgeAt(at) {
			return false // stale token: the final hop is no longer a tree edge
		}
		if n.isTreeEdge(msg.Init.U) {
			return false // init edge joined the tree meanwhile: no cycle
		}
		// Terminus pruning: an equivalent cycle was classified here within
		// the window with this node unchanged — the classification (and
		// any reversal or deblock it triggered) would repeat verbatim.
		if n.cfg.Retry != RetryPaper && n.suppressSearch(msg.Init, msg.Block) {
			return false
		}
		n.actionOnCycle(ctx, msg) // copies what it keeps of the path
		return false
	}
	top := len(msg.Path) - 1
	prevAt := -1 // position of the previous node on the stack, when known
	if msg.Path[top].Node == n.id {
		// Backtrack arrival: resume scanning from the stored cursor.
		if n.parent != msg.Path[top].Parent {
			return false // this node re-parented since the token passed: drop
		}
	} else {
		// Descent arrival over a tree edge: push our entry. Backtrack
		// arrivals (the branch above) are one token's own DFS walk and are
		// never pruned — only this first arrival of a token is a candidate
		// duplicate of an earlier equivalent token.
		if !n.treeEdgeAt(at) || msg.Path[top].Node != from {
			return false
		}
		if n.cfg.Retry != RetryPaper && n.suppressSearch(msg.Init, msg.Block) {
			return false
		}
		msg.Path = append(msg.Path, PathEntry{Node: n.id, Deg: n.Deg(), Parent: n.parent, Cursor: -1})
		top++
		prevAt = at // the sender pushed the entry below ours
	}
	prev := -1
	if top > 0 {
		prev = msg.Path[top-1].Node
	}
	if next := n.firstTreeNeighbor(msg.Path[top].Cursor, prev, msg.Path[:top]); next >= 0 {
		msg.Path[top].Cursor = n.nbrs[next]
		ctx.SendAt(next, msg)
		return true
	}
	// Subtree exhausted: backtrack.
	msg.Path = msg.Path[:top]
	if len(msg.Path) == 0 {
		return false // initiator exhausted every branch without finding
		// the endpoint (the tree changed underneath): the search dies and
		// a later periodic search retries
	}
	if prevAt < 0 {
		prevAt = n.views.Index(prev)
	}
	if prevAt < 0 || !n.treeEdgeAt(prevAt) {
		return false
	}
	ctx.SendAt(prevAt, msg)
	return true
}
