package trace

import (
	"encoding/json"
	"reflect"
	"slices"
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
	if s.Last("deg") != 2 {
		t.Fatal("last wrong")
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
	if s.Last("x") != 0 || len(s.Column("x")) != 0 {
		t.Fatal("empty accessors should return 0 and no values")
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

// decodedSeries is the {name, columns, rows} JSON shape WriteJSON
// promises, decoded without the writer's own type.
type decodedSeries struct {
	Name    string      `json:"name"`
	Columns []string    `json:"columns"`
	Rows    [][]float64 `json:"rows"`
}

func decodeSeries(t *testing.T, js string) decodedSeries {
	t.Helper()
	var d decodedSeries
	if err := json.Unmarshal([]byte(js), &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestJSONRoundTrip(t *testing.T) {
	s := NewSeries("metrics", "round", "sent", "fill")
	rows := [][]float64{{0, 12, 0.25}, {5, 40, 1}}
	for _, r := range rows {
		s.Append(r...)
	}
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got := decodeSeries(t, b.String())
	if got.Name != s.Name || !slices.Equal(got.Columns, s.Columns) {
		t.Fatalf("round-trip shape: name=%q columns=%v", got.Name, got.Columns)
	}
	if !reflect.DeepEqual(got.Rows, rows) {
		t.Fatalf("round-trip rows %v, want %v", got.Rows, rows)
	}
}

func TestJSONEmptySeries(t *testing.T) {
	s := NewSeries("empty", "round")
	got := decodeSeries(t, s.JSON())
	if got.Rows == nil || len(got.Rows) != 0 || len(got.Columns) != 1 {
		t.Fatalf("empty round-trip: rows=%v cols=%v", got.Rows, got.Columns)
	}
}
