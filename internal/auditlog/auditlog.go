// Package auditlog is the tamper-evident record of a run's accepted
// tree mutations: every parent change, blocking-edge exchange
// attachment and deblock-triggered root reset appends a Record to a
// per-run hash chain whose running head is exposed in harness.Result.
//
// The chain is built from the same splitmix64 primitive the quiescence
// detector uses (detect.MixNode), so heads are comparable across
// execution backends: two observers of the same seeded deterministic
// run — or a wall-clock run and its paired sim run when neither
// mutates — must produce byte-identical chain heads. That turns "did
// live and sim really do the same thing?" from a final-state
// comparison into a full-execution comparison, and any divergence in
// the mutation sequence (an extra reset, a re-parenting the other
// backend never applied) changes the head.
//
// Concurrency contract: the Recorder keeps one append-only log per
// node and each node's log is written only by the goroutine executing
// that node (the sim backend is single-threaded; the live and tcp
// backends run one goroutine per node, and a node only ever records
// its own mutations). SetRound is the deterministic simulator's round
// stamp and must not race Record — the sim driver calls both from its
// single run loop; the wall-clock backends never call it, so their
// records carry round 0 (they have no round clock, and Round is
// excluded from the chain hash for exactly that reason). ChainHead and
// Len are read after the run stopped (the drivers' Stop/wg.Wait
// establishes the happens-before edge).
package auditlog

import "mdst/internal/detect"

// Kind classifies one accepted tree mutation.
type Kind uint8

// Mutation kinds. The numeric values are folded into the chain hash,
// so they are part of the cross-backend comparison contract: renumber
// them and every committed chain head changes.
const (
	// KindParentChange is a tree-module re-parenting: the node adopted a
	// better parent (change_parent_to). Old and New are parent IDs.
	KindParentChange Kind = 1
	// KindReset is a tree-module root reset (create_new_root), including
	// the deblock-triggered ones: the node became its own root. Old is
	// the abandoned parent, New the node itself.
	KindReset Kind = 2
	// KindExchange is a re-parenting applied by the degree-reduction
	// choreography (chain reversal hops, or the literal exchange's
	// Remove/Back/Reverse hops). Old and New are parent IDs.
	KindExchange Kind = 3
)

// String returns the stable kind label used in dumps and tests.
func (k Kind) String() string {
	switch k {
	case KindParentChange:
		return "parent"
	case KindReset:
		return "reset"
	case KindExchange:
		return "exchange"
	default:
		return "unknown"
	}
}

// Record is one accepted tree mutation. Round is informational only —
// the wall-clock backends have no round clock, so it is excluded from
// the chain hash to keep heads cross-backend comparable.
type Record struct {
	Round int  `json:"round"` // sim round index; 0 on wall-clock backends
	Node  int  `json:"node"`
	Kind  Kind `json:"kind"`
	Old   int  `json:"old"` // previous parent
	New   int  `json:"new"` // adopted parent (the node itself for resets)
}

// Genesis derives the chain's genesis head from the run parameters.
// Distinct (seed, n) pairs get distinct genesis values, so an empty
// chain still identifies which run it audits.
func Genesis(seed int64, n int) uint64 {
	return detect.MixNode(n, uint64(seed))
}

// Recorder accumulates the per-run mutation log. One log per node;
// see the package comment for the single-writer-per-node contract.
type Recorder struct {
	genesis uint64
	round   int
	logs    [][]Record
}

// NewRecorder returns a Recorder for n nodes starting from the given
// genesis head (normally Genesis(seed, n)).
func NewRecorder(n int, genesis uint64) *Recorder {
	return &Recorder{genesis: genesis, logs: make([][]Record, n)}
}

// SetRound stamps subsequent records with the given round index.
// Deterministic-simulator use only; must not race Record.
func (r *Recorder) SetRound(round int) { r.round = round }

// Record appends one accepted mutation to the node's log.
func (r *Recorder) Record(node int, kind Kind, old, new int) {
	r.logs[node] = append(r.logs[node], Record{
		Round: r.round, Node: node, Kind: kind, Old: old, New: new,
	})
}

// Hook returns the node-bound closure the protocol's mutation sites
// invoke; it fixes the node index so the protocol layer never sees the
// Recorder itself.
func (r *Recorder) Hook(node int) func(kind Kind, old, new int) {
	return func(kind Kind, old, new int) { r.Record(node, kind, old, new) }
}

// Len returns the total number of records across all nodes.
func (r *Recorder) Len() int {
	total := 0
	for _, log := range r.logs {
		total += len(log)
	}
	return total
}

// NodeLog returns node's append-order mutation log (read-only view).
func (r *Recorder) NodeLog(node int) []Record { return r.logs[node] }

// Records returns every record in chain order: node-ID-major, each
// node's records in append order — the exact order ChainHead folds.
func (r *Recorder) Records() []Record {
	out := make([]Record, 0, r.Len())
	for _, log := range r.logs {
		out = append(out, log...)
	}
	return out
}

// ChainHead folds the genesis head through every record in chain order
// (node-ID-major, per-node append order). Each record is chained by
// four sequential MixNode applications over (Node, Kind, Old, New);
// Round is deliberately excluded (wall-clock backends have none).
// The fold is order-sensitive by construction — MixNode(a, MixNode(b,
// h)) != MixNode(b, MixNode(a, h)) — so a reordering of a node's
// mutations changes the head even when the multiset of records agrees.
func (r *Recorder) ChainHead() uint64 {
	h := r.genesis
	for _, log := range r.logs {
		for _, rec := range log {
			h = chain(h, rec)
		}
	}
	return h
}

// chain folds one record into the running head.
func chain(h uint64, rec Record) uint64 {
	h = detect.MixNode(rec.Node, h)
	h = detect.MixNode(int(rec.Kind), h)
	h = detect.MixNode(rec.Old, h)
	h = detect.MixNode(rec.New, h)
	return h
}
