package paperproto_test

import (
	"fmt"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/paperproto"
	"mdst/internal/sim"
)

// Example runs the literal-exchange variant on a wheel graph from a
// clean start and prints the stabilized tree degree.
func Example() {
	g := graph.Wheel(10) // hub + 9-ring: Δ* = 2, naive trees reach degree 9
	cfg := core.DefaultConfig(g.N())
	net := sim.NewNetwork(g, func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
		return paperproto.NewNode(id, nbrs, cfg)
	}, 1)
	net.Run(sim.RunConfig{
		Scheduler:     sim.NewSyncScheduler(),
		MaxRounds:     5000,
		QuiesceRounds: 2*g.N() + 40,
		ActiveKinds:   paperproto.ReductionKinds(),
	})
	nodes := make([]*paperproto.Node, g.N())
	for i := range nodes {
		nodes[i] = net.Process(i).(*paperproto.Node)
	}
	leg := paperproto.CheckLegitimacy(g, nodes)
	fmt.Println("legitimate:", leg.OK())
	fmt.Println("degree within Δ*+1:", leg.MaxDegree <= 3)
	// Output:
	// legitimate: true
	// degree within Δ*+1: true
}
