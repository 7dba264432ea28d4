package trace

import (
	"strings"
	"testing"
)

func TestSeriesAppendAndColumns(t *testing.T) {
	s := NewSeries("demo", "round", "deg")
	s.Append(0, 5)
	s.Append(1, 3)
	s.Append(2, 2)
	if s.Len() != 3 {
		t.Fatalf("len=%d", s.Len())
	}
	col := s.Column("deg")
	if len(col) != 3 || col[0] != 5 || col[2] != 2 {
		t.Fatalf("column %v", col)
	}
	if s.Last("deg") != 2 || s.Max("deg") != 5 {
		t.Fatal("last/max wrong")
	}
	if col[1] != 3 {
		t.Fatal("column access")
	}
}

func TestSeriesAppendArityPanics(t *testing.T) {
	s := NewSeries("demo", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Append(1)
}

func TestSeriesUnknownColumnPanics(t *testing.T) {
	s := NewSeries("demo", "a")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Column("zzz")
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("demo", "round", "x")
	s.Append(0, 1.5)
	s.Append(1, 2)
	csv := s.CSV()
	want := "round,x\n0,1.5000\n1,2\n"
	if csv != want {
		t.Fatalf("csv:\n%q\nwant:\n%q", csv, want)
	}
}

func TestSeriesEmptyAccessors(t *testing.T) {
	s := NewSeries("demo", "x")
	if s.Last("x") != 0 || s.Max("x") != 0 {
		t.Fatal("empty accessors should return 0")
	}
	if s.CSV() != "x\n" {
		t.Fatal("empty csv")
	}
}

func TestSparkline(t *testing.T) {
	s := NewSeries("demo", "v")
	for i := 0; i < 40; i++ {
		s.Append(float64(i % 10))
	}
	sp := s.Sparkline("v", 8)
	if len([]rune(sp)) != 8 {
		t.Fatalf("sparkline width %d: %q", len([]rune(sp)), sp)
	}
	if !strings.ContainsRune(sp, '█') {
		t.Fatalf("no full block in %q", sp)
	}
	if s.Sparkline("v", 0) != "" {
		t.Fatal("zero width should be empty")
	}
	empty := NewSeries("e", "v")
	if empty.Sparkline("v", 5) != "" {
		t.Fatal("empty series sparkline")
	}
}

func TestSparklineFlatZero(t *testing.T) {
	s := NewSeries("demo", "v")
	s.Append(0)
	s.Append(0)
	sp := s.Sparkline("v", 4)
	if len([]rune(sp)) != 4 {
		t.Fatalf("flat sparkline %q", sp)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := NewSeries("metrics", "round", "sent", "fill")
	s.Append(0, 12, 0.25)
	s.Append(5, 40, 1)
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || got.Len() != s.Len() {
		t.Fatalf("round-trip shape: name=%q len=%d", got.Name, got.Len())
	}
	for _, c := range s.Columns {
		a, bCol := s.Column(c), got.Column(c)
		for i := range a {
			if a[i] != bCol[i] {
				t.Fatalf("row %d col %s: %v != %v", i, c, a[i], bCol[i])
			}
		}
	}
	if got.Last("fill") != 1 {
		t.Fatalf("Last(fill)=%v", got.Last("fill"))
	}
}

func TestJSONEmptySeries(t *testing.T) {
	s := NewSeries("empty", "round")
	got, err := ReadJSON(strings.NewReader(s.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || len(got.Columns) != 1 {
		t.Fatalf("empty round-trip: len=%d cols=%v", got.Len(), got.Columns)
	}
}

func TestJSONRejectsRaggedRows(t *testing.T) {
	bad := `{"name":"x","columns":["a","b"],"rows":[[1,2],[3]]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("ragged row must be rejected")
	}
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed JSON must be rejected")
	}
}
