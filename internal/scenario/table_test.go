package scenario

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   []string{"n1"},
	}
	out := tab.Render()
	for _, want := range []string{"== demo ==", "a    bb", "333  4", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Errorf("csv wrong:\n%s", csv)
	}
	// Without a title the table starts at its header row, as the matrix
	// cell table does.
	tab.Title = ""
	if out := tab.Render(); !strings.HasPrefix(out, "a    bb\n") {
		t.Errorf("untitled table does not start at its header:\n%s", out)
	}
}
