// Package trace records per-round time series of a protocol execution —
// the figure data behind the experiment tables: tree degree over time,
// dmax agreement, legitimacy components, traffic. A Series is a dense
// column-oriented table with CSV and JSON export; it is the
// serialization of the metrics collector (internal/metrics), which
// renders its snapshot stream as one Series.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Series is a column-oriented time series: one row per sampled round.
type Series struct {
	Name    string
	Columns []string
	rows    [][]float64
}

// NewSeries creates a series with the given column names. The first
// column is conventionally the observation index (the round, or the
// collector's epoch).
func NewSeries(name string, columns ...string) *Series {
	return &Series{Name: name, Columns: append([]string(nil), columns...)}
}

// Append adds one row; the number of values must match the columns.
func (s *Series) Append(values ...float64) {
	if len(values) != len(s.Columns) {
		panic(fmt.Sprintf("trace: %d values for %d columns", len(values), len(s.Columns)))
	}
	s.rows = append(s.rows, append([]float64(nil), values...))
}

// Len returns the number of rows.
func (s *Series) Len() int { return len(s.rows) }

// Column returns a copy of the named column's values.
func (s *Series) Column(name string) []float64 {
	idx := -1
	for i, c := range s.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx == -1 {
		panic("trace: unknown column " + name)
	}
	out := make([]float64, len(s.rows))
	for i, r := range s.rows {
		out[i] = r[idx]
	}
	return out
}

// Last returns the final value of the named column, or 0 on empty.
func (s *Series) Last(name string) float64 {
	col := s.Column(name)
	if len(col) == 0 {
		return 0
	}
	return col[len(col)-1]
}

// Max returns the maximum of the named column, or 0 on empty.
func (s *Series) Max(name string) float64 {
	max := 0.0
	for i, v := range s.Column(name) {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// WriteCSV writes the series as CSV.
func (s *Series) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(s.Columns, ",")); err != nil {
		return err
	}
	for _, r := range s.rows {
		cells := make([]string, len(r))
		for i, v := range r {
			if v == float64(int64(v)) {
				cells[i] = fmt.Sprintf("%d", int64(v))
			} else {
				cells[i] = fmt.Sprintf("%.4f", v)
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// CSV returns the series rendered as a CSV string.
func (s *Series) CSV() string {
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}

// seriesJSON is the stable JSON shape of a Series.
type seriesJSON struct {
	Name    string      `json:"name"`
	Columns []string    `json:"columns"`
	Rows    [][]float64 `json:"rows"`
}

// WriteJSON writes the series as deterministic indented JSON
// ({name, columns, rows}) — the export path of the metrics time series.
func (s *Series) WriteJSON(w io.Writer) error {
	rows := s.rows
	if rows == nil {
		rows = [][]float64{}
	}
	b, err := json.MarshalIndent(seriesJSON{Name: s.Name, Columns: s.Columns, Rows: rows}, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// JSON returns the series rendered as a JSON string.
func (s *Series) JSON() string {
	var b strings.Builder
	if err := s.WriteJSON(&b); err != nil {
		panic(err) // strings.Builder never errors
	}
	return b.String()
}

// ReadJSON parses a series previously written by WriteJSON. Rows with
// a value count different from the column count are rejected — the
// same invariant Append enforces.
func ReadJSON(r io.Reader) (*Series, error) {
	var sj seriesJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("trace: decode series: %w", err)
	}
	s := NewSeries(sj.Name, sj.Columns...)
	for i, row := range sj.Rows {
		if len(row) != len(sj.Columns) {
			return nil, fmt.Errorf("trace: row %d has %d values for %d columns", i, len(row), len(sj.Columns))
		}
		s.Append(row...)
	}
	return s, nil
}

// Sparkline renders one column as a coarse unicode sparkline (terminal
// figure): useful in example output and logs.
func (s *Series) Sparkline(name string, width int) string {
	col := s.Column(name)
	if len(col) == 0 || width <= 0 {
		return ""
	}
	// Downsample to width buckets by max.
	buckets := make([]float64, width)
	for i, v := range col {
		b := i * width / len(col)
		if v > buckets[b] {
			buckets[b] = v
		}
	}
	max := 0.0
	for _, v := range buckets {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range buckets {
		idx := int(v / max * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteRune(levels[idx])
	}
	return b.String()
}
