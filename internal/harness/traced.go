package harness

import (
	"mdst/internal/core"
	"mdst/internal/sim"
	"mdst/internal/trace"
)

// RunTraced is Run plus a per-round time series: at every `every`-th
// round it records the tree state, degree information and traffic — the
// figure data behind experiments E2 and E5. every <= 0 samples every
// round. The run itself is Run's: the same loop executes the spec, so
// the Result equals Run's on the same spec, and the series is one more
// observer on its per-round hooks. The series is nil when the preload
// of a pre-loaded start fails.
//
// Columns: round, treeDeg (-1 while no valid spanning tree exists),
// roots (number of self-parented nodes), dmaxAgree (nodes whose dmax
// equals the true tree degree), pending (undelivered messages),
// reversals (cumulative reorientation messages sent: Reverse hops of
// the chain exchange, Remove+Back of the literal one, so the two
// variants' series plot side by side).
//
// Round 0 is the initial configuration and round r the state after r
// rounds. Under EngineEvent only executed rounds are sampled — rounds
// the event core skips as eventless cannot change the state — so an
// event run has fewer rows than rounds.
//
// Per-round sampling only exists on the deterministic simulator. An
// invalid spec, or one naming another backend, is a programmer error
// and panics as in MustRun: RunTraced must not silently run a different
// experiment than it claims.
func RunTraced(spec RunSpec, every int) (Result, *trace.Series) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.backend() != BackendSim {
		panic("harness: RunTraced requires the sim backend")
	}
	if every <= 0 {
		every = 1
	}
	reversalKinds := []string{core.KindReverse}
	if spec.Variant == VariantLiteral {
		reversalKinds = []string{core.KindRemove, core.KindBack}
	}
	series := trace.NewSeries("run",
		"round", "treeDeg", "roots", "dmaxAgree", "pending", "reversals")
	res := runSim(spec, variantFor(spec), func(round int, net *sim.Network, nodes []*core.Node) {
		if round%every != 0 {
			return
		}
		treeDeg := -1.0
		agree := 0.0
		if tree, err := core.ExtractTree(spec.Graph, nodes); err == nil {
			treeDeg = float64(tree.MaxDegree())
			for _, nd := range nodes {
				if nd.Dmax() == tree.MaxDegree() {
					agree++
				}
			}
		}
		roots := 0.0
		for _, nd := range nodes {
			if nd.Parent() == nd.ID() {
				roots++
			}
		}
		var reversals int64
		for _, k := range reversalKinds {
			reversals += net.Metrics().SentByKind[k]
		}
		series.Append(float64(round), treeDeg, roots, agree,
			float64(net.Pending()), float64(reversals))
	})
	if series.Len() == 0 {
		// The preload failed before the initial configuration existed.
		return res, nil
	}
	return res, series
}
