package scenario

import (
	"math/rand"
	"testing"

	"mdst/internal/harness"
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
