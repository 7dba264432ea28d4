package scenario

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"mdst/internal/harness"
	"mdst/internal/sim"
)

// defaultMatrixSpec mirrors cmd/mdstmatrix's default 108-run matrix
// (3 families × 3 sizes × 2 schedulers × 6 seeds).
func defaultMatrixSpec() Spec {
	return Spec{
		Families:     []string{"ring+chords", "gnp", "geometric"},
		Sizes:        []int{16, 24, 32},
		Schedulers:   []harness.SchedulerKind{harness.SchedSync, harness.SchedAsync},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		SeedsPerCell: 6,
		BaseSeed:     1,
	}
}

// executeWithMode runs a spec with the simulator's fingerprint mode
// pinned for the whole execution.
func executeWithMode(t *testing.T, spec Spec, fullRehash bool) []byte {
	t.Helper()
	sim.SetFullFingerprintRehash(fullRehash)
	defer sim.SetFullFingerprintRehash(false)
	m, err := Engine{}.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The incremental fingerprint cache must be invisible in results: the
// full-rehash reference mode is the seed implementation's behavior
// (hash every node, every round), so the aggregated JSON — rounds,
// messages, degrees, every per-run record — must be byte-identical
// between the two modes on the default matrix. The incremental run of
// that matrix is already pinned to the committed baseline by
// TestSimMatrixByteIdenticalToCommittedBaseline, so the full mode
// compares the full-rehash run with the same baseline; -short compares
// the two modes on a reduced matrix.
func TestIncrementalMatrixJSONMatchesFullRehash(t *testing.T) {
	if testing.Short() {
		spec := defaultMatrixSpec()
		spec.Sizes = []int{16}
		spec.SeedsPerCell = 2
		if !bytes.Equal(executeWithMode(t, spec, false), executeWithMode(t, spec, true)) {
			t.Fatal("matrix JSON differs between incremental and full-rehash fingerprinting")
		}
		return
	}
	want, err := os.ReadFile("testdata/default_matrix_pr2.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(executeWithMode(t, defaultMatrixSpec(), true), want) {
		t.Fatal("full-rehash matrix JSON diverged from the committed baseline")
	}
}

// Same oracle across the axes the default matrix does not cover: the
// literal protocol variant (its own version-bump sites) and lossy links
// (the drop path of the round accounting).
func TestIncrementalMatrixMatchesFullRehashVariantsAndFaults(t *testing.T) {
	spec := Spec{
		Families:     []string{"gnp"},
		Sizes:        []int{14},
		Schedulers:   []harness.SchedulerKind{harness.SchedSync, harness.SchedAsync},
		Starts:       []harness.StartMode{harness.StartCorrupt},
		Variants:     []harness.Variant{harness.VariantCore, harness.VariantLiteral},
		Faults:       []FaultModel{NoFault{}, Lossy{Rate: 0.2}},
		SeedsPerCell: 3,
		BaseSeed:     9,
	}
	inc := executeWithMode(t, spec, false)
	full := executeWithMode(t, spec, true)
	if !bytes.Equal(inc, full) {
		t.Fatal("variant/fault matrix JSON differs between incremental and full-rehash fingerprinting")
	}
}

// A bad drop rate must surface as the run's Err (and poison the cell's
// quality flags) instead of panicking inside a scenario worker.
func TestInvalidDropRateSurfacesAsRunError(t *testing.T) {
	m, err := Engine{}.Execute(Spec{
		Families:     []string{"gnp"},
		Sizes:        []int{10},
		Faults:       []FaultModel{badDrop{}},
		SeedsPerCell: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range m.Runs {
		if rr.Err == "" {
			t.Fatalf("run %s executed with drop rate 1.5", rr.Cell)
		}
	}
	if c := m.Cells[0]; c.Errors != 2 || c.Converged || c.Legitimate {
		t.Fatalf("cell did not report the failure: %+v", c)
	}
}

// badDrop bypasses Lossy's own validation to prove the harness-level
// guard catches it.
type badDrop struct{}

func (badDrop) Name() string { return "bad-drop" }
func (badDrop) Apply(spec harness.RunSpec, _ *rand.Rand) (harness.RunSpec, error) {
	spec.DropRate = 1.5
	return spec, nil
}
