package scenario

import (
	"math/rand"
	"testing"

	"mdst/internal/graph"
	"mdst/internal/harness"
)

// Churn resolves its protocol configuration like harness.Run: Backoff
// implies search suppression, so a churn run asking only for backoff
// must prune duplicate searches during re-stabilization.
func TestChurnHonoursBackoff(t *testing.T) {
	g := graph.MustFamily("ring+chords").Build(24, rand.New(rand.NewSource(5)))
	spec := harness.RunSpec{Graph: g, Scheduler: harness.SchedSync, Seed: 5, Backoff: true}
	res, err := Churn{Op: harness.OpAddEdge}.Execute(spec, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legit.OK() {
		t.Fatalf("churn run did not re-stabilize: %+v", res.Legit)
	}
	if res.SearchesSuppressed == 0 {
		t.Fatal("backoff run suppressed no searches: Backoff was ignored")
	}
}
