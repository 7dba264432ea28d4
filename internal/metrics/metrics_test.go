package metrics

import (
	"strings"
	"testing"

	"mdst/internal/trace"
)

func TestCollectorSeriesRoundTrip(t *testing.T) {
	c := &Collector{}
	c.Add(Snapshot{Epoch: 1, Nodes: 4, SentTotal: 10, MaxDegree: 3, VersionFill: 0.5, Stable: 0, Window: 8})
	c.Add(Snapshot{Epoch: 2, Nodes: 4, SentTotal: 24, MaxDegree: 2, VersionFill: 1, Stable: 3, Window: 8})
	if c.Len() != 2 {
		t.Fatalf("Len=%d", c.Len())
	}
	last, ok := c.Last()
	if !ok || last.Epoch != 2 {
		t.Fatalf("Last=%+v ok=%v", last, ok)
	}
	s := c.Series("m")
	if s.Len() != 2 || len(s.Columns) != len(SeriesColumns) {
		t.Fatalf("series shape: len=%d cols=%v", s.Len(), s.Columns)
	}
	if s.Last("versionFill") != 1 || s.Last("sentTotal") != 24 {
		t.Fatalf("series values: fill=%v sent=%v", s.Last("versionFill"), s.Last("sentTotal"))
	}
	// The series round-trips through the shared trace JSON path.
	got, err := trace.ReadJSON(strings.NewReader(s.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Last("maxDegree") != 2 {
		t.Fatalf("JSON round-trip: len=%d maxDegree=%v", got.Len(), got.Last("maxDegree"))
	}
}

func TestCollectorStride(t *testing.T) {
	c := &Collector{Every: 5}
	due := 0
	for i := 0; i < 20; i++ {
		if c.Due(i) {
			due++
		}
	}
	if due != 4 {
		t.Fatalf("stride 5 over 20: %d due", due)
	}
	var zero *Collector
	if zero.stride() != 1 {
		t.Fatal("nil collector stride must default to 1")
	}
	if !(&Collector{}).Due(0) {
		t.Fatal("index 0 must always be due")
	}
}

func TestCollectorCallback(t *testing.T) {
	fired := 0
	c := &Collector{OnSnapshot: func(s Snapshot) { fired++ }}
	c.Add(Snapshot{Epoch: 1})
	c.Add(Snapshot{Epoch: 2})
	if fired != 2 {
		t.Fatalf("OnSnapshot fired %d times", fired)
	}
}
