package scenario

import (
	"bytes"
	"os"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/harness"
)

// Satellite: the sim backend's default 108-run matrix JSON must stay
// byte-identical to the committed PR-2 baseline — the refactor onto
// pluggable backends (and the backend axis itself, via its omitempty
// label) must be invisible to the deterministic simulator's output.
func TestSimMatrixByteIdenticalToCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full 108-run matrix")
	}
	want, err := os.ReadFile("testdata/default_matrix_pr2.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Engine{}.Execute(defaultMatrixSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("default matrix JSON diverged from the committed PR-2 baseline (len %d vs %d)",
			len(got), len(want))
	}
}

// Satellite: cross-backend differential. One declarative spec expands
// over the backend axis; the deterministic simulator, the goroutine
// runtime and the loopback TCP cluster all run the SAME drawn instances
// (run seeds exclude the backend axis) with the SAME corrupted initial
// configurations, and every backend must converge to a legitimate
// spanning tree within the assertable Δ*+1 bracket. Tie-breaking (and
// hence the exact tree) may differ across backends; the guarantee may
// not. Each case runs in two passes over one spec: sim and live on the
// default workers, then tcp alone on one worker, because a medium-n
// cluster saturates the socket layer by itself.
func TestCrossBackendDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock live/tcp backends")
	}
	backends := []harness.Backend{harness.BackendSim, harness.BackendLive, harness.BackendTCP}
	for _, tc := range []struct {
		name        string
		spec        Spec
		runs, cells int // over all three backends
	}{
		{"small", Spec{
			Families:     []string{"ring+chords", "wheel"},
			Sizes:        []int{8},
			SeedsPerCell: 2,
			BaseSeed:     5,
			Tuning:       harness.BackendTuning{Deadline: 60 * time.Second},
		}, 2 * 2 * 3, 2 * 3},
		// The medium-n ladder under the suppress policy. tcp keeps its
		// 2ms default tick by coalescing up to 32 messages per frame,
		// held for at most 12ms; the live runtime ignores both.
		{"medium", Spec{
			Families:     []string{"ring+chords"},
			Sizes:        []int{64, 96},
			Starts:       []harness.StartMode{harness.StartCorrupt},
			Retry:        []core.RetryPolicy{core.RetrySuppress},
			SeedsPerCell: 1,
			BaseSeed:     1,
			Tuning: harness.BackendTuning{
				Deadline:     600 * time.Second,
				BatchSize:    32,
				BatchMaxWait: 12 * time.Millisecond,
			},
		}, 2 * 3, 2 * 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			simLive, tcp := tc.spec, tc.spec
			simLive.Backends, tcp.Backends = backends[:2], backends[2:]
			m1, err := Engine{}.Execute(simLive)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := Engine{Workers: 1}.Execute(tcp)
			if err != nil {
				t.Fatal(err)
			}
			if runs, cells := m1.TotalRuns+m2.TotalRuns, len(m1.Cells)+len(m2.Cells); runs != tc.runs || cells != tc.cells {
				t.Fatalf("expanded to %d runs in %d cells, want %d in %d", runs, cells, tc.runs, tc.cells)
			}

			// Paired workloads: the same (family, size, seed index) run
			// draws the same seed — and therefore the same graph and
			// corruptions — on every backend, so edge count and degree
			// bound match the sim twin's.
			type inst struct {
				family string
				n, idx int
			}
			twin := map[inst]RunResult{}
			perBackend := map[string]int{}
			for _, rr := range append(m1.Runs, m2.Runs...) {
				perBackend[rr.BackendName()]++
				if rr.Err != "" {
					t.Fatalf("%s seed[%d]: %s", rr.Cell, rr.SeedIndex, rr.Err)
				}
				if !rr.Converged || !rr.Legitimate || !rr.TreeValid {
					t.Fatalf("%s seed[%d] backend %q: converged=%v legit=%v tree=%v",
						rr.Cell, rr.SeedIndex, rr.BackendName(), rr.Converged, rr.Legitimate, rr.TreeValid)
				}
				if !rr.WithinBound {
					t.Fatalf("%s seed[%d] backend %q: degree %d violates bound %d",
						rr.Cell, rr.SeedIndex, rr.BackendName(), rr.MaxDegree, rr.DegreeBound)
				}
				key := inst{rr.Family, rr.N, rr.SeedIndex}
				if rr.BackendName() == string(harness.BackendSim) {
					twin[key] = rr
					continue
				}
				want, ok := twin[key]
				if !ok {
					t.Fatalf("no sim twin for %s seed[%d]", rr.Cell, rr.SeedIndex)
				}
				if rr.Seed != want.Seed || rr.Edges != want.Edges || rr.DegreeBound != want.DegreeBound {
					t.Fatalf("%s seed[%d] backend %q: seed %d, %d edges, bound %d; sim twin: seed %d, %d edges, bound %d",
						rr.Cell, rr.SeedIndex, rr.BackendName(), rr.Seed, rr.Edges, rr.DegreeBound,
						want.Seed, want.Edges, want.DegreeBound)
				}
			}
			for _, b := range backends {
				if perBackend[string(b)] != tc.runs/len(backends) {
					t.Fatalf("backend %s ran %d runs, want %d", b, perBackend[string(b)], tc.runs/len(backends))
				}
			}

			// Every backend's wall-clock cells must aggregate separately
			// and the degree guarantee must hold per cell.
			for _, c := range append(m1.Cells, m2.Cells...) {
				if !c.WithinBound {
					t.Fatalf("cell %s (backend %s): outside the Δ*+1 bracket", c.Cell, c.BackendName())
				}
			}
		})
	}
}

// Satellite: cross-backend certificate agreement. From a preloaded
// legitimate start the protocol is silent — no register ever changes —
// so all three backends quiesce on the IDENTICAL configuration (paired
// instances: run seeds exclude the backend axis, and the preload is
// deterministic). The quiescence certificates issued by the live
// in-process probe and the tcp control-channel probe must therefore
// carry exactly the sim backend's quiesced fingerprint: one shared
// combine over one shared per-node state hash, end to end through
// three completely different observation paths.
func TestCrossBackendCertificateAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock live/tcp backends")
	}
	spec := Spec{
		Families:     []string{"wheel", "ring+chords"},
		Sizes:        []int{8},
		Starts:       []harness.StartMode{harness.StartLegitimate},
		Backends:     []harness.Backend{harness.BackendSim, harness.BackendLive, harness.BackendTCP},
		SeedsPerCell: 2,
		BaseSeed:     13,
		Tuning:       harness.BackendTuning{Deadline: 60 * time.Second},
	}
	m, err := Engine{}.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Index the sim certificates by paired instance.
	type inst struct {
		family string
		idx    int
	}
	simFP := map[inst]uint64{}
	for _, rr := range m.Runs {
		if rr.Err != "" {
			t.Fatalf("%s seed[%d]: %s", rr.Cell, rr.SeedIndex, rr.Err)
		}
		if rr.Cert == nil {
			t.Fatalf("%s seed[%d] backend %q: converged=%v without a certificate",
				rr.Cell, rr.SeedIndex, rr.BackendName(), rr.Converged)
		}
		if rr.BackendName() == string(harness.BackendSim) {
			simFP[inst{rr.Family, rr.SeedIndex}] = rr.Cert.Fingerprint
		}
	}
	for _, rr := range m.Runs {
		if rr.BackendName() == string(harness.BackendSim) {
			continue
		}
		want, ok := simFP[inst{rr.Family, rr.SeedIndex}]
		if !ok {
			t.Fatalf("no paired sim run for %s seed[%d]", rr.Cell, rr.SeedIndex)
		}
		if rr.Cert.Fingerprint != want {
			t.Fatalf("%s seed[%d] backend %q: certificate fingerprint %x != sim quiesced fingerprint %x",
				rr.Cell, rr.SeedIndex, rr.BackendName(), rr.Cert.Fingerprint, want)
		}
		if rr.Cert.Backend != rr.BackendName() {
			t.Fatalf("certificate backend %q on a %q run", rr.Cert.Backend, rr.BackendName())
		}
		if rr.Restarts != 0 {
			t.Fatalf("%s seed[%d] backend %q: %d restarts from a legitimate start",
				rr.Cell, rr.SeedIndex, rr.BackendName(), rr.Restarts)
		}
	}
}

// The wall-clock backends reject sim-only features loudly instead of
// silently running a different experiment than the cell label claims.
func TestBackendSimOnlyFeaturesSurfaceAsRunErrors(t *testing.T) {
	m, err := Engine{}.Execute(Spec{
		Families:     []string{"wheel"},
		Sizes:        []int{8},
		Backends:     []harness.Backend{harness.BackendLive},
		Faults:       []FaultModel{Lossy{Rate: 0.1}},
		SeedsPerCell: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range m.Runs {
		if rr.Err == "" {
			t.Fatalf("lossy fault executed on the live backend: %+v", rr)
		}
	}
	m, err = Engine{}.Execute(Spec{
		Families:     []string{"wheel"},
		Sizes:        []int{8},
		Backends:     []harness.Backend{harness.BackendTCP},
		Faults:       []FaultModel{Churn{Op: harness.ChurnOps()[0]}},
		SeedsPerCell: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range m.Runs {
		if rr.Err == "" && !rr.Skipped {
			t.Fatalf("churn executed on the tcp backend: %+v", rr)
		}
	}
}

// The backend axis itself is validated at expansion time.
func TestSpecRejectsBadBackends(t *testing.T) {
	if _, err := (Spec{Families: []string{"wheel"}, Sizes: []int{8},
		Backends: []harness.Backend{"quantum"}}).Expand(); err == nil {
		t.Fatal("unknown backend accepted")
	}
	if _, err := (Spec{Families: []string{"wheel"}, Sizes: []int{8},
		Backends: []harness.Backend{harness.BackendSim, harness.BackendSim}}).Expand(); err == nil {
		t.Fatal("duplicate backend accepted")
	}
}
