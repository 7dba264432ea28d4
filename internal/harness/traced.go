package harness

import (
	"mdst/internal/core"
	"mdst/internal/sim"
	"mdst/internal/trace"
)

// RunTraced is Run plus a per-round time series: at every `every`-th
// round it records the tree state, degree information and traffic — the
// figure data behind experiments E2 and E5. every <= 0 samples every
// round.
//
// Columns: round, treeDeg (-1 while no valid spanning tree exists),
// roots (number of self-parented nodes), dmaxAgree (nodes whose dmax
// equals the true tree degree), pending (undelivered messages),
// reversals (cumulative reorientation messages sent: Reverse hops of
// the chain exchange, Remove+Back of the literal one, so the two
// variants' series plot side by side).
//
// Per-round sampling only exists on the deterministic simulator, so
// RunTraced always executes there; a spec naming another backend is a
// programmer error and panics (it must not silently run a different
// experiment than it claims).
func RunTraced(spec RunSpec, every int) (Result, *trace.Series) {
	if spec.backend() != BackendSim {
		panic("harness: RunTraced requires the sim backend")
	}
	if every <= 0 {
		every = 1
	}
	g := spec.Graph
	n := g.N()
	ops := variantFor(spec)
	net := sim.NewNetwork(g, ops.factory, spec.Seed)
	nodes, res0, ok := buildInitial(spec, ops, net.Process)
	if !ok {
		return res0, nil
	}
	reversalKinds := []string{core.KindReverse}
	if spec.Variant == VariantLiteral {
		reversalKinds = []string{core.KindRemove, core.KindBack}
	}

	series := trace.NewSeries("run",
		"round", "treeDeg", "roots", "dmaxAgree", "pending", "reversals")
	sample := func(round int) {
		treeDeg := -1.0
		agree := 0.0
		if tree, err := core.ExtractTree(g, nodes); err == nil {
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
	}
	sample(0)

	maxRounds := spec.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200*n + 20000
	}
	res := net.Run(sim.RunConfig{
		Scheduler:     NewScheduler(spec.Scheduler),
		MaxRounds:     maxRounds,
		QuiesceRounds: QuiesceWindowRounds(n, ops.cfg.EffectiveRetryPeriod()),
		ActiveKinds:   ops.kinds,
		OnRound: func(r int) bool {
			if (r+1)%every == 0 {
				sample(r + 1)
			}
			return true
		},
	})

	out := Result{
		Backend:      BackendSim,
		Converged:    res.Converged,
		Rounds:       res.Rounds,
		LastChange:   res.LastChangeRound,
		Legit:        core.CheckLegitimacy(g, nodes),
		Metrics:      net.Metrics(),
		MaxStateBits: net.MaxStateBits(),
	}
	for _, c := range out.Metrics.SentByKind {
		out.TotalMessages += c
	}
	if t, err := core.ExtractTree(g, nodes); err == nil {
		out.Tree = t
	}
	return out, series
}
