package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/mdstseq"
)

// smokeTuning keeps the wall-clock backends snappy; under -short the
// deadline tightens further (these tests are the `make smoke` gate, so
// they must stay cheap in CI's short-mode race job too).
func smokeTuning(t *testing.T) BackendTuning {
	t.Helper()
	deadline := 30 * time.Second
	if testing.Short() {
		deadline = 10 * time.Second
	}
	return BackendTuning{Deadline: deadline}
}

// smokeCheck asserts the common post-conditions of a converged run,
// including the Δ*+1 degree bracket and zero driver restarts (in-band
// detection needs none on the paper-literal search schedule).
func smokeCheck(t *testing.T, res Result, wantBackend Backend) {
	t.Helper()
	smokeCheckRestarts(t, res, wantBackend, 0)
}

// smokeCheckRestarts is smokeCheck with an explicit restart allowance:
// suppressed wall-clock runs may legitimately certify during a
// deferred-retry plateau and recover through the driver's
// resume-on-failed-legitimacy path, so a small restart count is part of
// the design there, not a regression.
func smokeCheckRestarts(t *testing.T, res Result, wantBackend Backend, maxRestarts int) {
	t.Helper()
	if res.Backend != wantBackend {
		t.Fatalf("Result.Backend = %q, want %q", res.Backend, wantBackend)
	}
	if !res.Converged || !res.Legit.OK() {
		t.Fatalf("backend %s did not converge: converged=%v legit=%+v",
			wantBackend, res.Converged, res.Legit)
	}
	if res.Tree == nil {
		t.Fatalf("backend %s: no tree extracted", wantBackend)
	}
	// Fürer–Raghavachari's degree is at least Δ*, so FR+1 brackets the
	// protocol's Δ*+1 guarantee from above.
	if bound := mdstseq.Approximate(res.Tree.Graph()).MaxDegree() + 1; res.Tree.MaxDegree() > bound {
		t.Fatalf("backend %s: tree degree %d above the Δ*+1 bracket %d",
			wantBackend, res.Tree.MaxDegree(), bound)
	}
	if res.WallTime <= 0 {
		t.Fatalf("backend %s: WallTime not recorded", wantBackend)
	}
	if res.Rounds <= 0 || res.LastChange != res.Rounds {
		t.Fatalf("backend %s: rounds=%d lastChange=%d (wall-clock backends mirror Rounds)",
			wantBackend, res.Rounds, res.LastChange)
	}
	if res.TotalMessages <= 0 {
		t.Fatalf("backend %s: no message accounting", wantBackend)
	}
	// Convergence is decided by internal/detect certificates on the
	// wall-clock backends (and attested on sim): a converged run must
	// carry one, with the frozen active-kind counters balanced.
	if res.Cert == nil {
		t.Fatalf("backend %s: converged without a quiescence certificate", wantBackend)
	}
	if res.Cert.Backend != string(wantBackend) {
		t.Fatalf("certificate backend %q, want %q", res.Cert.Backend, wantBackend)
	}
	if res.Cert.Sent != res.Cert.Received {
		t.Fatalf("backend %s: certificate deficit %d", wantBackend, res.Cert.Sent-res.Cert.Received)
	}
	if res.Restarts > maxRestarts {
		t.Fatalf("backend %s: %d restarts on a converging run (allowed %d)",
			wantBackend, res.Restarts, maxRestarts)
	}
	if wantBackend != BackendSim && res.Deadline <= 0 {
		t.Fatalf("backend %s: effective deadline not recorded", wantBackend)
	}
}

// TestBackendLiveSmoke drives the goroutine-per-node runtime through the
// shared orchestration: corrupted start, quiescence by concurrent
// fingerprint probing, Δ*+1 degree check.
func TestBackendLiveSmoke(t *testing.T) {
	g := graph.Wheel(8)
	res, err := Run(RunSpec{
		Graph:   g,
		Start:   StartCorrupt,
		Seed:    11,
		Backend: BackendLive,
		Tuning:  smokeTuning(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	smokeCheck(t, res, BackendLive)
}

// TestBackendTCPSmoke drives the loopback TCP cluster through the same
// orchestration, on the literal variant for cross-product coverage.
func TestBackendTCPSmoke(t *testing.T) {
	g := graph.Wheel(8)
	res, err := Run(RunSpec{
		Graph:   g,
		Variant: VariantLiteral,
		Start:   StartClean,
		Seed:    7,
		Backend: BackendTCP,
		Tuning:  smokeTuning(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	smokeCheck(t, res, BackendTCP)
}

// TestBackendLegitimatePreload: the wall-clock backends share initStart,
// so a preloaded legitimate configuration must hold immediately (closure
// under the live runtime).
func TestBackendLivePreloadedStaysLegitimate(t *testing.T) {
	g := graph.Wheel(8)
	res, err := Run(RunSpec{
		Graph:   g,
		Start:   StartLegitimate,
		Seed:    3,
		Backend: BackendLive,
		Tuning:  smokeTuning(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	smokeCheck(t, res, BackendLive)
}

func TestBackendValidation(t *testing.T) {
	g := graph.Ring(6)
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"unknown", RunSpec{Graph: g, Backend: "quantum"}, "unknown backend"},
		{"lossy-live", RunSpec{Graph: g, Backend: BackendLive, DropRate: 0.1}, "DropRate requires"},
		{"safety-tcp", RunSpec{Graph: g, Backend: BackendTCP, TrackSafety: true}, "TrackSafety requires"},
		{"sched-live", RunSpec{Graph: g, Backend: BackendLive, Scheduler: SchedAsync}, "scheduler \"async\" requires"},
		{"rounds-tcp", RunSpec{Graph: g, Backend: BackendTCP, MaxRounds: 100}, "MaxRounds requires"},
		{"unknown-sched", RunSpec{Graph: g, Scheduler: "bogus"}, "unknown scheduler"},
	}
	for _, tc := range cases {
		if _, err := Run(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err=%v, want substring %q", tc.name, err, tc.want)
		}
	}
	// The sim default still accepts every feature; the wall-clock
	// backends accept the canonical sync/default scheduler label.
	if err := (RunSpec{Graph: g, DropRate: 0.1, TrackSafety: true,
		Scheduler: SchedAdversarial, MaxRounds: 10}).Validate(); err != nil {
		t.Fatalf("sim spec rejected: %v", err)
	}
	if err := (RunSpec{Graph: g, Backend: BackendLive, Scheduler: SchedSync}).Validate(); err != nil {
		t.Fatalf("live+sync rejected: %v", err)
	}
	if err := (RunSpec{Graph: g, Scheduler: ""}).Validate(); err != nil {
		t.Fatalf("empty scheduler (sync) rejected: %v", err)
	}
}

// Acceptance: on a converging run the tcp driver performs ZERO cluster
// restarts for legitimacy probing — quiescence is watched over the
// side-channel control connection and the cluster is stopped exactly
// once, after a stable certificate. The restart counter is maintained
// by netrun.Cluster itself, so a driver regression (e.g. one that stops
// the cluster to inspect it) cannot hide. Exercised at
// batch=1 (one message per frame) and batch=16 (coalesced frames):
// in-band detection must not care how messages are framed.
func TestBackendTCPZeroRestartsOnConvergence(t *testing.T) {
	for _, batch := range []int{1, 16} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			tn := smokeTuning(t)
			tn.BatchSize = batch
			res, err := Run(RunSpec{
				Graph:   graph.Wheel(8),
				Start:   StartCorrupt,
				Seed:    19,
				Backend: BackendTCP,
				Tuning:  tn,
			})
			if err != nil {
				t.Fatal(err)
			}
			smokeCheck(t, res, BackendTCP)
			if res.Restarts != 0 {
				t.Fatalf("tcp driver restarted the cluster %d times on a converging run", res.Restarts)
			}
			if res.Cert == nil || res.Cert.Epoch == 0 {
				t.Fatalf("tcp convergence without a probe-derived certificate: %+v", res.Cert)
			}
			if res.Frames <= 0 || res.Frames > res.TotalMessages {
				t.Fatalf("frame accounting out of range: %d frames for %d messages",
					res.Frames, res.TotalMessages)
			}
		})
	}
}

// Satellite (differential): the same scenario spec at batch=1 and
// batch=16 — paired seeds, suppression on — must reach identical
// legitimacy and the same Δ*+1 degree bracket, each with a quiescence
// certificate. Framing is a transport concern; if the outcome shifts
// with the batch knob, coalescing broke message order or lost frames.
// Part of the `make smoke` tcp-batch job.
func TestBatchedTCPDifferentialOutcome(t *testing.T) {
	g := graph.Wheel(8)
	results := make(map[int]Result)
	for _, batch := range []int{1, 16} {
		tn := smokeTuning(t)
		tn.BatchSize = batch
		if batch > 1 {
			tn.BatchMaxWait = time.Millisecond
		}
		res, err := Run(RunSpec{
			Graph:   g,
			Config:  retryConfig(g, core.RetrySuppress),
			Start:   StartCorrupt,
			Seed:    29,
			Backend: BackendTCP,
			Tuning:  tn,
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		// Suppression defers retries, so allow the driver's bounded
		// resume path (same allowance as the suppression smoke).
		smokeCheckRestarts(t, res, BackendTCP, 5)
		results[batch] = res
	}
	a, b := results[1], results[16]
	if a.Legit.OK() != b.Legit.OK() || a.Converged != b.Converged {
		t.Fatalf("batch knob changed the outcome: batch=1 %+v vs batch=16 %+v", a.Legit, b.Legit)
	}
	if (a.Cert == nil) != (b.Cert == nil) {
		t.Fatalf("certificate presence differs across batch sizes")
	}
	// Coalescing must show up in the frame accounting: batch=16 needs
	// strictly fewer frames than messages, batch=1 exactly as many.
	if a.Frames != a.TotalMessages {
		t.Fatalf("batch=1 wrote %d frames for %d messages (want 1:1)", a.Frames, a.TotalMessages)
	}
	if b.Frames >= b.TotalMessages {
		t.Fatalf("batch=16 wrote %d frames for %d messages (no coalescing)", b.Frames, b.TotalMessages)
	}
}

// Satellite (smoke): the suppress retry policy exercised on both
// wall-clock backends, not just the deterministic simulator — the
// `make smoke` suppression job. Outcome must be unchanged by the policy
// (legitimacy + certificate). Suppression defers retries, so a tiny
// corrupt start can certify mid-plateau and take a few
// resume-on-failed-legitimacy restarts before the legitimate
// certificate — allowed within a small bound; whether tokens are
// actually pruned is wall-clock timing and is asserted only as
// non-negative.
func TestSuppressionSmokeLiveTCP(t *testing.T) {
	for _, backend := range []Backend{BackendLive, BackendTCP} {
		g := graph.Wheel(8)
		res, err := Run(RunSpec{
			Graph:   g,
			Config:  retryConfig(g, core.RetrySuppress),
			Start:   StartCorrupt,
			Seed:    23,
			Backend: backend,
			Tuning:  smokeTuning(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		smokeCheckRestarts(t, res, backend, 5)
		if res.SearchesSuppressed < 0 {
			t.Fatalf("backend %s: negative suppression counter %d", backend, res.SearchesSuppressed)
		}
	}
}

// With adaptive backoff the wall-clock drivers derive their stability
// windows from the conservative cap (they cannot scan per-node tiers
// behind sockets), so a backed-off live/tcp run must still converge and
// certify within its budget deadline. SearchPeriod 2 shrinks every
// window derived from it (base 8 ticks, cap 128), so the cap-derived
// stability window stays smoke-sized.
func TestBackoffSmokeLiveTCP(t *testing.T) {
	cfg := core.DefaultConfig(8)
	cfg.Retry = core.RetryBackoff
	cfg.SearchPeriod = 2
	for _, backend := range []Backend{BackendLive, BackendTCP} {
		res, err := Run(RunSpec{
			Graph:   graph.Wheel(8),
			Config:  cfg,
			Start:   StartCorrupt,
			Seed:    23,
			Backend: backend,
			Tuning:  smokeTuning(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		smokeCheckRestarts(t, res, backend, 5)
	}
}

// Deterministic suppression accounting on the sim backend: same spec,
// same seed — byte-identical JSON including the suppression counter,
// which must be positive for a corrupted medium start.
func TestSuppressionSimDeterministicCounter(t *testing.T) {
	g := graph.Wheel(24)
	spec := RunSpec{Graph: g, Config: retryConfig(g, core.RetrySuppress), Start: StartCorrupt, Seed: 9}
	a, b := MustRun(spec), MustRun(spec)
	if a.SearchesSuppressed != b.SearchesSuppressed {
		t.Fatalf("suppression counter nondeterministic: %d vs %d",
			a.SearchesSuppressed, b.SearchesSuppressed)
	}
	if a.SearchesSuppressed <= 0 {
		t.Fatalf("no suppression on a corrupted wheel start: %d", a.SearchesSuppressed)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(aj), `"searchesSuppressed"`) {
		t.Fatalf("suppression counter missing from Result JSON: %s", aj)
	}
	// The paper schedule must keep the counter out of the JSON entirely —
	// the omitempty half of the baseline byte-identity contract.
	off := MustRun(RunSpec{Graph: g, Start: StartCorrupt, Seed: 9})
	oj, _ := json.Marshal(off)
	if strings.Contains(string(oj), "searchesSuppressed") {
		t.Fatalf("suppression field serialized with the knob off: %s", oj)
	}
}

// Satellite: Tuning fields are validated loudly with a named error
// instead of hanging a ticker or silently substituting defaults for
// negative values.
func TestTuningValidation(t *testing.T) {
	g := graph.Ring(6)
	bad := []BackendTuning{
		{Tick: -time.Millisecond},
		{Probe: -time.Millisecond},
		{Deadline: -time.Second},
		{Budget: -1},
		{BatchSize: -1},
		{BatchMaxWait: -time.Millisecond},
	}
	for _, backend := range []Backend{BackendLive, BackendTCP} {
		for i, tn := range bad {
			_, err := Run(RunSpec{Graph: g, Backend: backend, Tuning: tn})
			if err == nil {
				t.Fatalf("%s case %d: bad tuning %+v accepted", backend, i, tn)
			}
			if !errors.Is(err, ErrTuning) {
				t.Fatalf("%s case %d: error %v does not wrap ErrTuning", backend, i, err)
			}
		}
	}
	// Zero values stay the documented "use the per-backend default".
	if err := (BackendTuning{}).Validate(); err != nil {
		t.Fatalf("zero tuning rejected: %v", err)
	}
	// The sim backend ignores tuning entirely, so it is not validated
	// there — a deterministic spec cannot start failing because of a
	// field the backend never reads.
	if err := (RunSpec{Graph: g, Tuning: BackendTuning{Tick: -1}}).Validate(); err != nil {
		t.Fatalf("sim spec rejected over ignored tuning: %v", err)
	}
}

// Tuning.Budget sizes the wall-clock deadline from the paired
// deterministic sim run instead of the one-size-fits-all 30s default.
func TestBackendBudgetDeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock budget run")
	}
	g := graph.Wheel(8)
	res, err := Run(RunSpec{
		Graph:   g,
		Start:   StartCorrupt,
		Seed:    11,
		Backend: BackendLive,
		Tuning:  BackendTuning{Budget: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	smokeCheck(t, res, BackendLive)
	if res.Deadline <= 0 || res.Deadline >= 30*time.Second {
		t.Fatalf("budget deadline %v not derived from the paired sim run", res.Deadline)
	}
	// An explicit deadline takes precedence over the budget.
	res2, err := Run(RunSpec{
		Graph:   g,
		Start:   StartCorrupt,
		Seed:    11,
		Backend: BackendLive,
		Tuning:  BackendTuning{Budget: 200, Deadline: 17 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Deadline != 17*time.Second {
		t.Fatalf("explicit deadline overridden by budget: %v", res2.Deadline)
	}
}

func TestParseBackend(t *testing.T) {
	for _, b := range Backends() {
		got, err := ParseBackend(string(b))
		if err != nil || got != b {
			t.Fatalf("ParseBackend(%q) = %q, %v", b, got, err)
		}
	}
	if b, err := ParseBackend(""); err != nil || b != BackendSim {
		t.Fatalf("empty backend = %q, %v (want sim default)", b, err)
	}
	if _, err := ParseBackend("udp"); err == nil {
		t.Fatal("bogus backend accepted")
	}
}

// Satellite: Result records its backend and serializes deterministically —
// wall time (the only cross-run-varying field) is json:"-", so two
// identical sim runs must produce byte-identical JSON even though their
// WallTime differs.
func TestResultJSONDeterministicModuloWallTime(t *testing.T) {
	g := graph.Wheel(8)
	spec := RunSpec{Graph: g, Start: StartCorrupt, Seed: 5}
	a := MustRun(spec)
	b := MustRun(spec)
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("sim Result JSON differs between identical runs:\n%s\n%s", aj, bj)
	}
	if !strings.Contains(string(aj), `"backend":"sim"`) {
		t.Fatalf("Result JSON does not record the backend: %s", aj)
	}
	if strings.Contains(strings.ToLower(string(aj)), "walltime") {
		t.Fatalf("WallTime leaked into Result JSON: %s", aj)
	}
	if a.WallTime <= 0 {
		t.Fatal("WallTime not recorded on the struct")
	}
}
