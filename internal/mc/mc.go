// Package mc is a bounded exhaustive model checker for the protocol: on
// tiny instances it explores EVERY interleaving of message deliveries
// and node ticks (up to a state/depth budget), checking safety
// invariants in every reachable configuration and optionally searching
// for a legitimate state. Randomized schedules sample the execution
// space; the checker covers it, catching concurrency windows that seeds
// miss.
//
// States are memoized by a structural hash of all node states plus all
// queue contents, so the search collapses confluent interleavings.
//
// The literal exchange transiently breaks the spanning tree by design,
// so tree validity cannot be an every-state invariant for it; callers
// assert it at QUIESCENT states instead — states with no message in
// flight — which is exactly the paper's claim that a completed (or fully
// aborted and repaired) exchange leaves a spanning tree. Every-state
// invariants still catch domain violations (forged roots, degree
// explosions) in every interleaving.
package mc

import (
	"fmt"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// Config bounds the exploration.
type Config struct {
	// MaxStates caps the number of distinct visited states (default 50k).
	MaxStates int
	// MaxDepth caps the exploration depth in atomic steps (default 24).
	MaxDepth int
	// MaxQueue caps per-link queue length; branches that would exceed it
	// are pruned (keeps the space finite despite ticks; default 2).
	MaxQueue int
	// IncludeTicks explores tick steps as well as deliveries. Without
	// ticks only the in-flight messages are permuted.
	IncludeTicks bool
}

// Invariant is checked in every visited state; return an error to fail.
type Invariant func(nodes []*core.Node) error

// Result summarizes an exploration.
type Result struct {
	States     int
	Truncated  bool // budget exhausted before full coverage
	FoundLegit bool // some visited state satisfied the legitimacy predicate
	Violation  error
}

// state is one configuration: node clones + per-link queues.
type state struct {
	nodes  []*core.Node
	queues map[[2]int][]sim.Message
	depth  int
}

// Explore runs the bounded search from the configuration currently held
// by `nodes` over graph g, applying `every` in each visited state and
// `quiescent` only in states whose links are all empty.
func Explore(g *graph.Graph, nodes []*core.Node, cfg Config, every, quiescent []Invariant) Result {
	if cfg.MaxStates <= 0 {
		cfg.MaxStates = 50_000
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 24
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 2
	}
	init := &state{nodes: cloneNodes(nodes), queues: map[[2]int][]sim.Message{}}
	res := Result{}
	seen := map[uint64]bool{}
	stack := []*state{init}
	for len(stack) > 0 && res.States < cfg.MaxStates {
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h := hashState(g, st)
		if seen[h] {
			continue
		}
		seen[h] = true
		res.States++

		for _, inv := range every {
			if err := inv(st.nodes); err != nil {
				res.Violation = fmt.Errorf("depth %d: %w", st.depth, err)
				return res
			}
		}
		if len(st.queues) == 0 {
			for _, inv := range quiescent {
				if err := inv(st.nodes); err != nil {
					res.Violation = fmt.Errorf("quiescent depth %d: %w", st.depth, err)
					return res
				}
			}
		}
		if !res.FoundLegit && core.CheckLegitimacy(g, st.nodes).OK() {
			res.FoundLegit = true
		}
		if st.depth >= cfg.MaxDepth {
			res.Truncated = true
			continue
		}

		// Branch over deliveries: the head of every non-empty link.
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Neighbors(u) {
				key := [2]int{u, v}
				q := st.queues[key]
				if len(q) == 0 {
					continue
				}
				succ := cloneState(st)
				msg := succ.queues[key][0]
				succ.queues[key] = succ.queues[key][1:]
				if len(succ.queues[key]) == 0 {
					delete(succ.queues, key)
				}
				deliver(g, succ, v, u, msg, cfg.MaxQueue)
				succ.depth = st.depth + 1
				stack = append(stack, succ)
			}
		}
		if cfg.IncludeTicks {
			for id := 0; id < g.N(); id++ {
				succ := cloneState(st)
				tick(g, succ, id, cfg.MaxQueue)
				succ.depth = st.depth + 1
				stack = append(stack, succ)
			}
		}
	}
	if len(stack) > 0 {
		res.Truncated = true
	}
	return res
}

// deliver runs one receive step on the cloned state.
func deliver(g *graph.Graph, st *state, to, from int, msg sim.Message, maxQueue int) {
	ctx := contextFor(g, st, to, maxQueue)
	st.nodes[to].Receive(ctx, from, copyMsg(msg))
}

// tick runs one tick step on the cloned state.
func tick(g *graph.Graph, st *state, id, maxQueue int) {
	ctx := contextFor(g, st, id, maxQueue)
	st.nodes[id].Tick(ctx)
}

// contextFor wires sends into the state's queues, capping queue length.
func contextFor(g *graph.Graph, st *state, id, maxQueue int) *sim.Context {
	return sim.NewContext(id, g.Neighbors(id), func(from, to int, m sim.Message) {
		key := [2]int{from, to}
		if len(st.queues[key]) >= maxQueue {
			return // prune: model a slow link absorbing the overflow
		}
		st.queues[key] = append(st.queues[key], copyMsg(m))
	})
}

func cloneNodes(nodes []*core.Node) []*core.Node {
	out := make([]*core.Node, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.Clone()
	}
	return out
}

func cloneState(st *state) *state {
	q := make(map[[2]int][]sim.Message, len(st.queues))
	for k, msgs := range st.queues {
		cp := make([]sim.Message, len(msgs))
		for i, m := range msgs {
			cp[i] = copyMsg(m)
		}
		q[k] = cp
	}
	return &state{nodes: cloneNodes(st.nodes), queues: q, depth: st.depth}
}

// copyMsg deep-copies a protocol message: branches must share neither a
// Search token (handlers edit it in place and forward the same pointer)
// nor a slice. It panics on a message type it does not list, so a new
// type cannot silently be shared across branches.
func copyMsg(m sim.Message) sim.Message {
	switch msg := m.(type) {
	case *core.SearchMsg:
		cp := *msg
		cp.Path = append([]core.PathEntry(nil), msg.Path...)
		return &cp
	case core.ReverseMsg:
		msg.Nodes = append([]int(nil), msg.Nodes...)
		return msg
	case core.RemoveMsg:
		msg.Path = append([]int(nil), msg.Path...)
		return msg
	case core.BackMsg:
		msg.Path = append([]int(nil), msg.Path...)
		return msg
	case core.InfoMsg, core.DeblockMsg, core.UpdateDistMsg:
		return m // value types without slices
	default:
		panic(fmt.Sprintf("mc: copyMsg: unknown message type %T", m))
	}
}

// hashState folds all node fingerprints and queue contents.
func hashState(g *graph.Graph, st *state) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	for _, nd := range st.nodes {
		mix(nd.Fingerprint())
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			q := st.queues[[2]int{u, v}]
			mix(uint64(u)<<32 | uint64(v))
			for _, m := range q {
				mix(hashMsg(m))
			}
		}
	}
	mix(uint64(st.depth) << 48) // depth distinguishes budget frontiers
	return h
}

// hashMsg hashes one queued message's content. Like copyMsg it panics on
// a message type it does not list: a type hashed as nothing would merge
// distinct states.
func hashMsg(m sim.Message) uint64 {
	const prime = 1099511628211
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	switch msg := m.(type) {
	case core.InfoMsg:
		mix(1)
		mix(uint64(msg.Root))
		mix(uint64(msg.Parent))
		mix(uint64(msg.Distance))
		mix(uint64(msg.Dmax))
		mix(uint64(msg.Submax))
		mix(uint64(msg.Deg))
		if msg.Color {
			mix(7)
		}
	case *core.SearchMsg:
		mix(2)
		mix(uint64(msg.Init.U))
		mix(uint64(msg.Init.V))
		mix(uint64(msg.Block + 1))
		mix(uint64(msg.TTL))
		for _, p := range msg.Path {
			mix(uint64(p.Node))
			mix(uint64(p.Deg))
			mix(uint64(p.Parent))
			mix(uint64(p.Cursor + 1))
		}
	case core.ReverseMsg:
		mix(3)
		mix(uint64(msg.Init.U))
		mix(uint64(msg.Init.V))
		mix(uint64(msg.DegMax))
		mix(uint64(msg.TargetNode))
		mix(uint64(msg.TargetDeg))
		mix(uint64(msg.Dist))
		for _, v := range msg.Nodes {
			mix(uint64(v))
		}
	case core.DeblockMsg:
		mix(4)
		mix(uint64(msg.Block))
		mix(uint64(msg.TTL))
	case core.UpdateDistMsg:
		mix(5)
		mix(uint64(msg.Dist))
	case core.RemoveMsg:
		mix(11)
		mix(uint64(msg.Init.U))
		mix(uint64(msg.Init.V))
		mix(uint64(msg.DegMax))
		mix(uint64(msg.Target.U))
		mix(uint64(msg.Target.V))
		mix(uint64(msg.WDeg))
		mix(uint64(msg.Pos))
		if msg.Reorient {
			mix(13)
		}
		for _, v := range msg.Path {
			mix(uint64(v))
		}
	case core.BackMsg:
		mix(12)
		mix(uint64(msg.Init.U))
		mix(uint64(msg.Init.V))
		mix(uint64(msg.Pos))
		for _, v := range msg.Path {
			mix(uint64(v))
		}
	default:
		panic(fmt.Sprintf("mc: hashMsg: unknown message type %T", m))
	}
	return h
}

// TreeValidInvariant fails when the parent pointers stop forming a
// single spanning tree. Use it as an every-state invariant only from
// legitimate starts where no concurrent exchange can run; with the
// literal exchange, use it as a quiescent invariant.
func TreeValidInvariant(g *graph.Graph) Invariant {
	return func(nodes []*core.Node) error {
		if _, err := core.ExtractTree(g, nodes); err != nil {
			return err
		}
		return nil
	}
}

// RootBoundInvariant fails when any root variable escapes [0, n): forged
// values must never be (re)introduced by the protocol itself.
func RootBoundInvariant(n int) Invariant {
	return func(nodes []*core.Node) error {
		for _, nd := range nodes {
			if nd.Root() < 0 || nd.Root() >= n {
				return fmt.Errorf("node %d: root %d out of range", nd.ID(), nd.Root())
			}
		}
		return nil
	}
}

// DegreeBoundInvariant fails when any node's tree degree exceeds
// `bound` (used from legitimate starts: no exchange may push any degree
// above the initial maximum).
func DegreeBoundInvariant(bound int) Invariant {
	return func(nodes []*core.Node) error {
		for _, nd := range nodes {
			if d := nd.Deg(); d > bound {
				return fmt.Errorf("node %d: degree %d exceeds bound %d", nd.ID(), d, bound)
			}
		}
		return nil
	}
}
