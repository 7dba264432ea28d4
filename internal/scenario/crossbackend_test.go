package scenario

import (
	"encoding/json"
	"os"
	"testing"

	"mdst/internal/harness"
)

// loadCrossBackendTable reads the committed medium-n table.
func loadCrossBackendTable(t *testing.T) []CrossBackendRow {
	t.Helper()
	b, err := os.ReadFile("testdata/crossbackend_medium.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep CrossBackendReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Rows
}

// The committed table's shape and claims: every (size × backend) pair of
// the default preset present exactly once, suppression on everywhere,
// and every invariant column true — a row that ever shipped with
// converged=false would commit a broken claim.
func TestCrossBackendTableShape(t *testing.T) {
	rows := loadCrossBackendTable(t)
	def := CrossBackendSpec{}.normalized()
	want := len(def.Sizes) * len(harness.Backends())
	if len(rows) != want {
		t.Fatalf("committed table has %d rows, want %d", len(rows), want)
	}
	i := 0
	for _, n := range def.Sizes {
		for _, b := range harness.Backends() {
			row := rows[i]
			i++
			if row.N != n || row.Backend != string(b) {
				t.Fatalf("row %d is (n=%d, %s), want (n=%d, %s)", i-1, row.N, row.Backend, n, b)
			}
			if row.Family != crossBackendFamily || row.Suppress != "on" {
				t.Fatalf("row %d: family=%q suppress=%q", i-1, row.Family, row.Suppress)
			}
			if !row.Converged || !row.Legitimate || !row.WithinBound {
				t.Fatalf("row %d commits a broken claim: %+v", i-1, row)
			}
			if row.Edges <= 0 || row.DegreeBound <= 0 {
				t.Fatalf("row %d: missing instance columns: %+v", i-1, row)
			}
		}
	}
}

// Regenerating the preset must reproduce the committed rows. The full
// ladder's tcp n=128 cell alone costs ~30-60s of wall clock, so the
// regression re-executes the n=64..96 slice (still all three backends,
// still the identical instances — run seeds exclude both wall-clock
// axes) and compares those rows byte-for-byte with the committed file;
// `mdstmatrix -xbackend` regenerates the full table.
func TestCrossBackendTableReproduces(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock live/tcp backends at medium n")
	}
	committed := loadCrossBackendTable(t)
	rep, err := CrossBackendSweep(CrossBackendSpec{Sizes: []int{64, 96}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) > len(committed) {
		t.Fatalf("slice produced %d rows, committed table has %d", len(rep.Rows), len(committed))
	}
	for i, got := range rep.Rows {
		if got != committed[i] {
			t.Fatalf("row %d diverged from the committed table:\n got %+v\nwant %+v", i, got, committed[i])
		}
	}
}
