package harness

import (
	"math/rand"

	"mdst/internal/auditlog"
	"mdst/internal/core"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// variantOps is what a run's protocol variant decides: the resolved
// configuration and the node constructor (which fixes the edge
// exchange). Every backend builds its processes through factory and
// then works on the resulting []*core.Node directly, so run
// orchestration is written once for both exchanges.
type variantOps struct {
	cfg     core.Config
	factory func(id sim.NodeID, nbrs []sim.NodeID) sim.Process
}

// ProtocolConfig is the node configuration a run of the spec executes
// with: Config, or core.DefaultConfig for the graph's size when Config
// is zero.
func (s RunSpec) ProtocolConfig() core.Config {
	if s.Config == (core.Config{}) {
		return core.DefaultConfig(s.Graph.N())
	}
	return s.Config
}

// variantFor resolves the spec's protocol variant to its operation set.
func variantFor(spec RunSpec) variantOps {
	cfg := spec.ProtocolConfig()
	newNode := core.NewNode
	if spec.Variant == VariantLiteral {
		newNode = core.NewLiteralNode
	}
	return variantOps{
		cfg: cfg,
		factory: func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
			return newNode(id, nbrs, cfg)
		},
	}
}

// auditKindOf maps the protocol layer's mutation kinds onto the audit
// log's chained kinds (explicit so a renumbering on either side fails
// tests instead of silently changing committed chain heads).
func auditKindOf(k core.MutationKind) auditlog.Kind {
	switch k {
	case core.MutationParent:
		return auditlog.KindParentChange
	case core.MutationReset:
		return auditlog.KindReset
	default:
		return auditlog.KindExchange
	}
}

// auditHook binds one node's mutation stream to the recorder.
func auditHook(rec *auditlog.Recorder, id int) core.MutationHook {
	h := rec.Hook(id)
	return func(k core.MutationKind, old, new int) { h(auditKindOf(k), old, new) }
}

// degrees returns each node's current tree degree (the metrics
// sampler's degree histogram). Node state may not be inspected while a
// wall-clock backend is running.
func degrees(nodes []*core.Node) []int {
	out := make([]int, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.Deg()
	}
	return out
}

// buildInitial collects a backend's nodes and writes the spec's initial
// configuration into them. Keeping the corruption-RNG derivation
// (seed^0x5eed) and the initStart call in one place is what guarantees
// every backend draws identical initial configurations for the same
// spec. The bool is initStart's preload-failure contract.
func buildInitial(spec RunSpec, ops variantOps, procAt func(sim.NodeID) sim.Process) ([]*core.Node, Result, bool) {
	nodes := make([]*core.Node, spec.Graph.N())
	for i := range nodes {
		nodes[i] = procAt(i).(*core.Node)
	}
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	res, ok := initStart(spec, ops.cfg, nodes, rng)
	return nodes, res, ok
}

// initStart writes the spec's initial configuration into the nodes:
// nothing for a clean start, per-node randomization for a corrupt one,
// and a pre-loaded configuration (plus targeted/random corruptions) for
// StartLegitimate (the Fürer–Raghavachari tree) and StartPath (the
// canonical Hamiltonian path). rng must be the run's corruption RNG
// (seed^0x5eed) so
// every backend draws the identical initial configuration for the same
// spec. The bool is false when the preload failed; the Result carries
// the detail (same contract as the pre-refactor runners: a preload
// failure is a reported illegitimacy, not an execution error).
func initStart(spec RunSpec, cfg core.Config, nodes []*core.Node, rng *rand.Rand) (Result, bool) {
	n := spec.Graph.N()
	switch spec.Start {
	case StartCorrupt:
		for _, nd := range nodes {
			nd.Corrupt(rng, n)
		}
	case StartLegitimate, StartPath:
		var err error
		if spec.Start == StartPath {
			var tree *spanning.Tree
			if tree, err = PathTree(spec.Graph); err == nil {
				err = PreloadFromTree(spec.Graph, nodes, cfg, tree)
			}
		} else {
			err = Preload(spec.Graph, nodes, cfg)
		}
		if err != nil {
			return Result{Backend: spec.backend(), Legit: core.Legitimacy{Detail: err.Error()}}, false
		}
		for _, v := range spec.CorruptTargets {
			if v >= 0 && v < n {
				nodes[v].Corrupt(rng, n)
			}
		}
		perm := rng.Perm(n)
		for i := 0; i < spec.CorruptNodes && i < n; i++ {
			nodes[perm[i]].Corrupt(rng, n)
		}
	}
	return Result{}, true
}
