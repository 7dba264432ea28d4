package scenario

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
)

// Churn resolves its protocol configuration like harness.Run, so a
// churn run under the backoff policy must prune duplicate searches
// during re-stabilization.
func TestChurnHonoursBackoff(t *testing.T) {
	g := graph.MustFamily("ring+chords").Build(24, rand.New(rand.NewSource(5)))
	cfg := core.DefaultConfig(g.N())
	cfg.Retry = core.RetryBackoff
	spec := harness.RunSpec{Graph: g, Config: cfg, Scheduler: harness.SchedSync, Seed: 5}
	res, err := Churn{Op: harness.OpAddEdge}.Execute(spec, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legit.OK() {
		t.Fatalf("churn run did not re-stabilize: %+v", res.Legit)
	}
	if res.SearchesSuppressed == 0 {
		t.Fatal("backoff run suppressed no searches: the retry policy was ignored")
	}
}

// Churn re-stabilizes through harness.RunOn, so its runs carry the
// observability plane like every other matrix run: a snapshot stream
// that ends on the quiesced round, a quiescence certificate and a
// chained audit head.
func TestChurnRunsCarryObservabilityPlane(t *testing.T) {
	m, err := Engine{}.Execute(Spec{
		Families:     []string{"ring+chords"},
		Sizes:        []int{16},
		Schedulers:   []harness.SchedulerKind{harness.SchedSync},
		Faults:       []FaultModel{Churn{Op: harness.OpAddEdge}, Churn{Op: harness.OpRemoveTreeEdge}},
		SeedsPerCell: 2,
		Metrics:      true,
		TrackSafety:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, rr := range m.Runs {
		if rr.Err != "" {
			t.Fatalf("%s: %s", rr.Fault, rr.Err)
		}
		if rr.Skipped || !rr.Converged {
			continue
		}
		checked++
		if len(rr.Metrics) == 0 || rr.Metrics[len(rr.Metrics)-1].Epoch != uint64(rr.Rounds) {
			t.Fatalf("%s seed %d: %d snapshots, want a stream ending at round %d",
				rr.Fault, rr.SeedIndex, len(rr.Metrics), rr.Rounds)
		}
		if rr.Cert == nil {
			t.Fatalf("%s seed %d: converged without a certificate", rr.Fault, rr.SeedIndex)
		}
		if rr.AuditChain == "" || rr.AuditChain == "0000000000000000" {
			t.Fatalf("%s seed %d: audit head %q", rr.Fault, rr.SeedIndex, rr.AuditChain)
		}
	}
	if checked == 0 {
		t.Fatal("no churn run converged")
	}
}
