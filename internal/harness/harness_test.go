package harness

import (
	"math/rand"
	"testing"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/mdstseq"
	"mdst/internal/metrics"
	"mdst/internal/sim"
)

func TestRunCleanStart(t *testing.T) {
	g := graph.Wheel(8)
	res := MustRun(RunSpec{Graph: g, Scheduler: SchedSync, Start: StartClean, Seed: 1})
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("clean run failed: %+v", res.Legit)
	}
	if res.Tree == nil || res.Tree.MaxDegree() > 3 {
		t.Fatalf("wheel degree: %v", res.Tree)
	}
	if res.TotalMessages == 0 || res.MaxStateBits == 0 {
		t.Fatal("metrics missing")
	}
}

func TestRunCorruptStart(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomGnp(16, 0.3, rng)
	res := MustRun(RunSpec{Graph: g, Scheduler: SchedAsync, Start: StartCorrupt, Seed: 2})
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("corrupt run failed: %+v", res.Legit)
	}
}

func TestRunLegitimateStartIsStableTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomGnp(14, 0.3, rng)
	res := MustRun(RunSpec{Graph: g, Scheduler: SchedSync, Start: StartLegitimate, Seed: 3})
	if !res.Converged {
		t.Fatal("no convergence")
	}
	if !res.Legit.TreeValid || !res.Legit.RootIsMin {
		t.Fatalf("legitimate start lost the tree: %+v", res.Legit)
	}
}

func TestRunFaultRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomGeometric(20, 0.35, rng)
	res := MustRun(RunSpec{Graph: g, Scheduler: SchedSync, Start: StartLegitimate,
		CorruptNodes: 5, Seed: 4})
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("fault recovery failed: %+v", res.Legit)
	}
}

func TestPreloadIsLegitimate(t *testing.T) {
	g := graph.Grid(4, 4)
	cfg := core.DefaultConfig(16)
	net := core.BuildNetwork(g, cfg, 5)
	nodes := core.NodesOf(net)
	if err := Preload(g, nodes, cfg); err != nil {
		t.Fatal(err)
	}
	leg := core.CheckLegitimacy(g, nodes)
	if !leg.OK() {
		t.Fatalf("preload not legitimate: %+v", leg)
	}
	// Preloaded tree must be an FR fixed point.
	tree, err := core.ExtractTree(g, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !mdstseq.IsFixedPoint(tree) {
		t.Fatal("preload is not a fixed point")
	}
}

func TestNewScheduler(t *testing.T) {
	if _, ok := NewScheduler(SchedSync).(*sim.SyncScheduler); !ok {
		t.Fatal("sync")
	}
	if _, ok := NewScheduler(SchedAsync).(*sim.AsyncScheduler); !ok {
		t.Fatal("async")
	}
	if _, ok := NewScheduler(SchedAdversarial).(*sim.AdversarialScheduler); !ok {
		t.Fatal("adversarial")
	}
	if _, ok := NewScheduler("bogus").(*sim.SyncScheduler); !ok {
		t.Fatal("default")
	}
}

func TestTrackSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := graph.RandomGnp(14, 0.35, rng)
	res := MustRun(RunSpec{Graph: g, Scheduler: SchedSync, Start: StartCorrupt,
		Seed: 6, TrackSafety: true})
	if !res.Legit.OK() {
		t.Fatalf("run failed: %+v", res.Legit)
	}
	// BrokenRounds excludes rounds before the first valid tree. A valid
	// snapshot can still appear mid root-competition, so a corrupted
	// start may count some late formation churn — but breakage must be a
	// strict minority of rounds.
	if res.BrokenRounds >= res.Rounds/2 {
		t.Fatalf("broken %d of %d rounds", res.BrokenRounds, res.Rounds)
	}

	// From a legitimate start the S3 exchange never breaks the tree:
	// every intermediate configuration of a chain move is a spanning
	// tree, and no formation churn can be misattributed.
	res = MustRun(RunSpec{Graph: g, Scheduler: SchedSync, Start: StartLegitimate,
		Seed: 6, TrackSafety: true})
	if res.BrokenRounds != 0 {
		t.Fatalf("S3 exchange broke the tree in %d rounds from a legitimate start", res.BrokenRounds)
	}
}

func TestRunRespectsMaxRounds(t *testing.T) {
	g := graph.Ring(8)
	res := MustRun(RunSpec{Graph: g, Scheduler: SchedSync, Start: StartCorrupt,
		Seed: 7, MaxRounds: 3})
	if res.Converged {
		t.Fatal("cannot converge in 3 rounds from corruption")
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds=%d", res.Rounds)
	}
}

// A custom Config reaches the nodes: under RetrySuppress they prune
// duplicate searches, which the default paper schedule never does.
func TestRunCustomConfig(t *testing.T) {
	g := graph.Wheel(8)
	cfg := core.DefaultConfig(8)
	cfg.Retry = core.RetrySuppress
	res := MustRun(RunSpec{Graph: g, Config: cfg, Scheduler: SchedSync,
		Start: StartCorrupt, Seed: 8})
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("no convergence: %+v", res.Legit)
	}
	if res.SearchesSuppressed <= 0 {
		t.Fatalf("SearchesSuppressed = %d under RetrySuppress, want > 0", res.SearchesSuppressed)
	}
}

// RunOn drives a network built outside harness exactly as Run drives
// its own: a fresh network is a clean start, so the two runs agree. It
// rejects a network over another graph and a wall-clock spec.
func TestRunOnMatchesRunOnCleanStart(t *testing.T) {
	g := graph.Wheel(10)
	spec := RunSpec{Graph: g, Config: retryConfig(g, core.RetryBackoff), Scheduler: SchedAsync, Seed: 4, Collect: &metrics.Collector{}}
	want := MustRun(spec)
	spec.Collect = &metrics.Collector{}
	got, err := RunOn(spec, core.BuildNetwork(g, spec.ProtocolConfig(), spec.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rounds != want.Rounds || got.LastChange != want.LastChange ||
		got.TotalMessages != want.TotalMessages || got.AuditChain != want.AuditChain ||
		got.Legit != want.Legit || got.Cert == nil || want.Cert == nil ||
		got.Cert.Window != want.Cert.Window {
		t.Fatalf("RunOn rounds=%d last=%d msgs=%d audit=%x cert=%v, Run rounds=%d last=%d msgs=%d audit=%x cert=%v",
			got.Rounds, got.LastChange, got.TotalMessages, got.AuditChain, got.Cert,
			want.Rounds, want.LastChange, want.TotalMessages, want.AuditChain, want.Cert)
	}
	if _, err := RunOn(spec, core.BuildNetwork(graph.Wheel(10), spec.ProtocolConfig(), 1)); err == nil {
		t.Fatal("RunOn accepted a network over another graph")
	}
	if _, err := RunOn(RunSpec{Graph: g, Backend: BackendLive}, core.BuildNetwork(g, spec.ProtocolConfig(), 1)); err == nil {
		t.Fatal("RunOn accepted a wall-clock spec")
	}
}
