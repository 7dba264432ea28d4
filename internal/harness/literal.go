package harness

import (
	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/spanning"
)

// PreloadLiteral is Preload; both exchanges' nodes are core.Nodes. It
// remains only because the repository benchmark still calls it.
func PreloadLiteral(g *graph.Graph, nodes []*core.Node, cfg core.Config) error {
	return Preload(g, nodes, cfg)
}

// PreloadLiteralFromTree is PreloadFromTree; it remains only because the
// repository benchmark still calls it.
func PreloadLiteralFromTree(g *graph.Graph, nodes []*core.Node, cfg core.Config, tree *spanning.Tree) error {
	return PreloadFromTree(g, nodes, cfg, tree)
}
