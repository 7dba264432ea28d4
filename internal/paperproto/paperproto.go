// Package paperproto names the literal-exchange variant of the protocol
// by its old import path. The implementation lives in internal/core: a
// node built with core.NewLiteralNode runs the paper's Remove/Back
// choreography of Figures 1-2 (see internal/core/choreo.go). The
// repository benchmark still imports these six names; they remain only
// until a benchmark change switches it to core.
package paperproto

import (
	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/spanning"
)

// Node is a protocol node; NewNode builds it with the literal exchange.
type Node = core.Node

// NewNode is core.NewLiteralNode.
func NewNode(id int, neighbors []int, cfg core.Config) *Node {
	return core.NewLiteralNode(id, neighbors, cfg)
}

// CheckLegitimacy is core.CheckLegitimacy.
func CheckLegitimacy(g *graph.Graph, nodes []*Node) core.Legitimacy {
	return core.CheckLegitimacy(g, nodes)
}

// ExtractTree is core.ExtractTree.
func ExtractTree(g *graph.Graph, nodes []*Node) (*spanning.Tree, error) {
	return core.ExtractTree(g, nodes)
}

// AggregateStats is core.AggregateStats.
func AggregateStats(nodes []*Node) core.Stats { return core.AggregateStats(nodes) }

// ReductionKinds is core.ReductionKinds.
func ReductionKinds() []string { return core.ReductionKinds() }
