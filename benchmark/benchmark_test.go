package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics asserts that got carries exactly the declared metrics, with
// the declared units, under well-formed names.
func checkMetrics(t *testing.T, got map[string]metric, want []declaredMetric) {
	t.Helper()
	units := map[string]string{}
	for _, m := range want {
		units[m.Name] = m.Unit
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("declared metric %s not emitted", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, declared %q", m.Name, g.Unit, m.Unit)
		}
	}
	for name, m := range got {
		if _, ok := units[name]; !ok {
			t.Errorf("emitted metric %s is not declared", name)
		}
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("bad metric name %q", name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", name, m.Unit)
		}
	}
}

// TestWorkloads runs every workload at toy size, traced and untraced, with
// one seed: both runs must pass every correctness check, emit exactly the
// declared metrics, and (on the simulator) produce one digest — execute
// itself fails if the traced repetition does not replay the untraced one.
func TestWorkloads(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", names, workloadNames())
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var digests []string
			for _, trace := range []bool{false, true} {
				w, ok := newWorkload(name, toySize)
				if !ok {
					t.Fatalf("no workload %q", name)
				}
				rep, err := execute(w, options{seed: 3, trace: trace, log: io.Discard})
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if r := rep.result; !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, r.Correct, r.Attempted, r.Failed)
				}
				if trace {
					checkMetrics(t, rep.result.Metrics, d.PerLayer)
				} else {
					checkMetrics(t, rep.result.Metrics, d.EndToEnd)
				}
				digests = append(digests, rep.detail.Digest)
			}
			if w, _ := newWorkload(name, toySize); w.deterministic() && (digests[0] == "" || digests[0] != digests[1]) {
				t.Errorf("digests differ across invocations with one seed: %q vs %q", digests[0], digests[1])
			}
		})
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "recover", "--trace", "2"},
		{"--workload", "recover", "--seconds", "-1"},
		{"--workload", "recover", "--spans", "x.jsonl"},
		{"--workload", "recover", "extra"},
		{"--no-such-flag"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
