package harness

import (
	"encoding/json"
	"math/rand"
	"testing"

	"mdst/internal/auditlog"
	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/metrics"
)

// --- Audit chain ---------------------------------------------------------

// TestAuditChainGenesisCrossBackend: a run started from the preloaded
// legitimate configuration mutates nothing — self-stabilization's
// closure property — so every backend's chain head must equal the
// genesis value, byte for byte. This is the cross-backend differential
// claim in its sharpest form: three completely different execution
// drivers (deterministic rounds, goroutine CSP, loopback TCP) observing
// the same seeded run agree on the audit chain.
func TestAuditChainGenesisCrossBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock backends under -short")
	}
	g := graph.Wheel(8)
	const seed = 7
	want := auditlog.Genesis(seed, g.N())
	for _, backend := range Backends() {
		res, err := Run(RunSpec{
			Graph:   g,
			Start:   StartLegitimate,
			Seed:    seed,
			Backend: backend,
			Collect: &metrics.Collector{},
			Tuning:  smokeTuning(t),
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !res.Legit.OK() {
			t.Fatalf("%s: legitimate start did not stay legitimate: %+v", backend, res.Legit)
		}
		if res.AuditRecords != 0 {
			t.Errorf("%s: %d mutations recorded from a legitimate start", backend, res.AuditRecords)
		}
		if res.AuditChain != want {
			t.Errorf("%s: chain head %016x, want genesis %016x", backend, res.AuditChain, want)
		}
	}
}

// TestAuditChainSimDeterministic: two observers of the same seeded sim
// run — here literally two executions — must produce byte-identical,
// non-trivial chain heads, for both protocol variants.
func TestAuditChainSimDeterministic(t *testing.T) {
	for _, variant := range []Variant{VariantCore, VariantLiteral} {
		g := graph.RandomGnp(16, 0.3, rand.New(rand.NewSource(3)))
		run := func() Result {
			return MustRun(RunSpec{
				Graph:   g,
				Start:   StartCorrupt,
				Seed:    3,
				Variant: variant,
				Collect: &metrics.Collector{},
			})
		}
		a, b := run(), run()
		if !a.Converged || !b.Converged {
			t.Fatalf("%s: corrupt runs did not converge", variant)
		}
		if a.AuditRecords == 0 {
			t.Fatalf("%s: corrupt start produced no audited mutations", variant)
		}
		if a.AuditChain == auditlog.Genesis(3, g.N()) {
			t.Fatalf("%s: non-empty chain head equals genesis", variant)
		}
		if a.AuditChain != b.AuditChain || a.AuditRecords != b.AuditRecords {
			t.Fatalf("%s: audit chain not deterministic: %016x/%d vs %016x/%d",
				variant, a.AuditChain, a.AuditRecords, b.AuditChain, b.AuditRecords)
		}
	}
}

// TestAuditChainSeedSensitive: different seeds draw different corruption
// patterns, so their mutation chains (and genesis blocks) must diverge.
func TestAuditChainSeedSensitive(t *testing.T) {
	g := graph.Wheel(10)
	head := func(seed int64) uint64 {
		return MustRun(RunSpec{
			Graph: g, Start: StartCorrupt, Seed: seed, Collect: &metrics.Collector{},
		}).AuditChain
	}
	if head(1) == head(2) {
		t.Fatal("seeds 1 and 2 produced identical chain heads")
	}
}

// TestAuditOffIsZeroCost: with no Collector attached no recorder exists
// and the result reports a zero head — and the run's deterministic
// figures are byte-identical to an audited run of the same spec (hooks
// observe, never steer).
func TestAuditOffIsZeroCost(t *testing.T) {
	g := graph.RandomGnp(14, 0.35, rand.New(rand.NewSource(5)))
	spec := RunSpec{Graph: g, Start: StartCorrupt, Seed: 5}
	plain := MustRun(spec)
	spec.Collect = &metrics.Collector{}
	audited := MustRun(spec)
	if plain.AuditChain != 0 || plain.AuditRecords != 0 {
		t.Fatalf("audit fields set without a Collector: %016x/%d", plain.AuditChain, plain.AuditRecords)
	}
	if plain.Rounds != audited.Rounds || plain.TotalMessages != audited.TotalMessages ||
		plain.Exchanges != audited.Exchanges {
		t.Fatalf("audit hooks perturbed the run: rounds %d vs %d, messages %d vs %d",
			plain.Rounds, audited.Rounds, plain.TotalMessages, audited.TotalMessages)
	}
	if audited.AuditRecords == 0 {
		t.Fatal("audited corrupt run chained no mutations")
	}
}

// --- Metrics stream ------------------------------------------------------

// TestMetricsStreamConvergedRun: a converged sim run's stream ends with
// the quiesced state — complete version-vector fill, zero deficit — and
// carries live traffic/degree data throughout.
func TestMetricsStreamConvergedRun(t *testing.T) {
	g := graph.RandomGnp(16, 0.3, rand.New(rand.NewSource(2)))
	coll := &metrics.Collector{}
	res := MustRun(RunSpec{
		Graph: g, Start: StartCorrupt, Seed: 2, Collect: coll,
	})
	if !res.Converged {
		t.Fatal("run did not converge")
	}
	if coll.Len() == 0 {
		t.Fatal("collector empty after a collected run")
	}
	last, _ := coll.Last()
	if last.VersionFill != 1 {
		t.Fatalf("converged run's final snapshot fill = %v, want 1", last.VersionFill)
	}
	if last.Deficit != 0 {
		t.Fatalf("converged run's final snapshot deficit = %d", last.Deficit)
	}
	if last.Epoch != uint64(res.Rounds) {
		t.Fatalf("final snapshot epoch %d, want converged round %d", last.Epoch, res.Rounds)
	}
	if last.SentTotal != res.TotalMessages {
		t.Fatalf("final snapshot SentTotal %d, want %d", last.SentTotal, res.TotalMessages)
	}
	if len(last.SentByKind) == 0 || len(last.DegreeHist) == 0 {
		t.Fatal("final snapshot missing per-kind or degree data")
	}
	var epochs []uint64
	for _, s := range coll.Snapshots() {
		epochs = append(epochs, s.Epoch)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] <= epochs[i-1] {
			t.Fatalf("epochs not strictly increasing: %v", epochs)
		}
	}
}

// TestMetricsPartialFillOnCutRun (satellite): a run stopped by MaxRounds
// mid-stabilization must report a partial version-vector fill in its
// last snapshot — never a spuriously complete one fabricated by
// re-sampling an unchanged state.
func TestMetricsPartialFillOnCutRun(t *testing.T) {
	g := graph.RandomGnp(24, 0.3, rand.New(rand.NewSource(9)))
	coll := &metrics.Collector{}
	res := MustRun(RunSpec{
		Graph: g, Start: StartCorrupt, Seed: 9, MaxRounds: 6, Collect: coll,
	})
	if res.Converged {
		t.Skip("run converged inside 6 rounds; instance unusable for the cut test")
	}
	last, ok := coll.Last()
	if !ok {
		t.Fatal("no snapshots from the cut run")
	}
	if last.VersionFill >= 1 {
		t.Fatalf("cut run's final snapshot claims complete fill (%v) at epoch %d",
			last.VersionFill, last.Epoch)
	}
	if last.Stable >= last.Window {
		t.Fatalf("cut run's final snapshot claims a full stability window (%d/%d)",
			last.Stable, last.Window)
	}
}

// TestMetricsOffIsByteIdentical: a collected run and a plain run of the
// same spec report identical deterministic figures, including the
// incremental-fingerprint recompute counter — the sampled reads are
// pure, which is what keeps the committed drift baselines intact.
func TestMetricsOffIsByteIdentical(t *testing.T) {
	g := graph.RandomGnp(16, 0.3, rand.New(rand.NewSource(4)))
	spec := RunSpec{Graph: g, Start: StartCorrupt, Seed: 4}
	plain := MustRun(spec)
	spec.Collect = &metrics.Collector{Every: 2}
	collected := MustRun(spec)
	if plain.Rounds != collected.Rounds ||
		plain.TotalMessages != collected.TotalMessages ||
		plain.Metrics.FingerprintRecomputes != collected.Metrics.FingerprintRecomputes {
		t.Fatalf("metrics sampling perturbed the run: rounds %d vs %d, recomputes %d vs %d",
			plain.Rounds, collected.Rounds,
			plain.Metrics.FingerprintRecomputes, collected.Metrics.FingerprintRecomputes)
	}
}

// A collected run executes the spec it is given: on lossy links, the
// event engine, backoff, the literal exchange and a corrupted
// legitimate start, its Result serializes exactly as the plain run's,
// and its stream runs from the initial configuration (epoch 0) to the
// last round.
func TestCollectedRunRunsTheSpecItIsGiven(t *testing.T) {
	g := graph.Wheel(10)
	base := RunSpec{Graph: g, Scheduler: SchedSync, Start: StartCorrupt, Seed: 3}
	specs := map[string]func(RunSpec) RunSpec{
		"lossy":   func(s RunSpec) RunSpec { s.DropRate = 0.1; return s },
		"event":   func(s RunSpec) RunSpec { s.Engine = EngineEvent; return s },
		"backoff": func(s RunSpec) RunSpec { s.Config = retryConfig(g, core.RetryBackoff); return s },
		"literal": func(s RunSpec) RunSpec { s.Variant = VariantLiteral; return s },
		"corrupted-legit": func(s RunSpec) RunSpec {
			s.Start, s.CorruptNodes = StartLegitimate, 3
			return s
		},
	}
	for name, mod := range specs {
		t.Run(name, func(t *testing.T) {
			spec := mod(base)
			want, err := json.Marshal(MustRun(spec))
			if err != nil {
				t.Fatal(err)
			}
			coll := &metrics.Collector{}
			spec.Collect = coll
			res := MustRun(spec)
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("collected run %s\nplain run     %s", got, want)
			}
			if !res.Converged || coll.Len() < 2 {
				t.Fatalf("converged=%v, %d snapshot(s)", res.Converged, coll.Len())
			}
			first := coll.Snapshots()[0]
			last, _ := coll.Last()
			if first.Epoch != 0 || last.Epoch != uint64(res.Rounds) || coll.Len() > res.Rounds+1 {
				t.Fatalf("%d snapshots span epochs %d..%d of %d rounds", coll.Len(), first.Epoch, last.Epoch, res.Rounds)
			}
		})
	}
}

// An invalid spec is Run's error and collects nothing; a failed path
// preload collects nothing either.
func TestCollectedRunRejectsInvalidSpec(t *testing.T) {
	coll := &metrics.Collector{}
	if _, err := Run(RunSpec{Graph: graph.Wheel(6), DropRate: 1.5, Collect: coll}); err == nil {
		t.Fatal("Run accepted drop rate 1.5")
	}
	res := MustRun(RunSpec{Graph: graph.Star(6), Start: StartPath, Collect: coll})
	if coll.Len() != 0 || res.Legit.Detail == "" {
		t.Fatalf("failed path preload collected %d snapshot(s), detail %q", coll.Len(), res.Legit.Detail)
	}
}

// TestMetricsWallBackends: the live and tcp drivers stream non-empty
// snapshots from their detection loops, ending with a complete per-node
// view (degrees, protocol counters) taken after the final stop.
func TestMetricsWallBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock backends under -short")
	}
	g := graph.Wheel(8)
	for _, backend := range []Backend{BackendLive, BackendTCP} {
		coll := &metrics.Collector{}
		res, err := Run(RunSpec{
			Graph:   g,
			Start:   StartCorrupt,
			Seed:    6,
			Backend: backend,
			Collect: coll,
			Tuning:  smokeTuning(t),
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge: %+v", backend, res.Legit)
		}
		if coll.Len() < 2 {
			t.Fatalf("%s: stream too short: %d snapshot(s)", backend, coll.Len())
		}
		last, _ := coll.Last()
		if last.VersionFill != 1 || last.Deficit != 0 {
			t.Fatalf("%s: converged but final snapshot fill=%v deficit=%d",
				backend, last.VersionFill, last.Deficit)
		}
		if len(last.DegreeHist) == 0 {
			t.Fatalf("%s: final snapshot missing the post-stop degree histogram", backend)
		}
		if last.SentTotal <= 0 || len(last.SentByKind) == 0 {
			t.Fatalf("%s: final snapshot missing traffic counters (total=%d kinds=%d)",
				backend, last.SentTotal, len(last.SentByKind))
		}
		// Traffic is read in-process on both backends while they run:
		// the last in-flight snapshot already counts sends, the per-kind
		// counts add up to the total and the total never drops.
		if inFlight := coll.Snapshots()[coll.Len()-2]; inFlight.SentTotal <= 0 {
			t.Fatalf("%s: in-flight snapshot at epoch %d carries no traffic", backend, inFlight.Epoch)
		}
		var prev int64
		for _, s := range coll.Snapshots() {
			var sum int64
			for _, c := range s.SentByKind {
				sum += c
			}
			if sum != s.SentTotal || s.SentTotal < prev {
				t.Fatalf("%s: epoch %d SentTotal %d (previous %d), per-kind sum %d",
					backend, s.Epoch, s.SentTotal, prev, sum)
			}
			prev = s.SentTotal
		}
		if res.AuditRecords == 0 {
			t.Fatalf("%s: corrupt start chained no mutations", backend)
		}
	}
}
