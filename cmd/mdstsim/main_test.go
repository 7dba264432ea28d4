package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWheelVerbose(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "ring+chords", "-n", "12", "-v"}, nil, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"legitimate: true", "tree degree:", "messages: total=", "degree profile:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, out.String())
		}
	}
}

func TestRunFromStdin(t *testing.T) {
	graphText := "n 4\ne 0 1\ne 1 2\ne 2 3\ne 3 0\n"
	var out, errOut bytes.Buffer
	code := run([]string{"-stdin"}, strings.NewReader(graphText), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "graph: n=4 m=4") {
		t.Fatalf("wrong graph:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "tree degree: 2") {
		t.Fatalf("ring must give a degree-2 path:\n%s", out.String())
	}
}

func TestRunBadStdin(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-stdin"}, strings.NewReader("garbage"), &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestRunBadStart(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-start", "weird"}, nil, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// -start takes the legitimate start under its full name and its short
// one, as harness.ParseStartMode does.
func TestRunLegitWithFaults(t *testing.T) {
	for _, name := range []string{"legit", "legitimate"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-family", "gnp", "-n", "14", "-start", name, "-faults", "3"}, nil, &out, &errOut)
		if code != 0 {
			t.Fatalf("-start %s: exit %d:\n%s%s", name, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), "legitimate: true") {
			t.Fatalf("-start %s: did not recover:\n%s", name, out.String())
		}
	}
}

func TestRunDOTOutput(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "grid", "-n", "9", "-dot"}, nil, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "[style=bold]") {
		t.Fatal("DOT tree edges missing")
	}
}

// -cpuprofile and -memprofile write two non-empty runtime/pprof files; an
// unwritable path is reported as an error before the run, not a panic.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	args := []string{"-cpuprofile", cpu, "-memprofile", mem}
	if code := run(append(args, "-family", "ring+chords", "-n", "12"), nil, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s not written: %v", f, err)
		}
	}
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		out.Reset()
		errOut.Reset()
		args := []string{flag, filepath.Join(dir, "missing", "x.pprof")}
		code := run(append(args, "-family", "ring+chords", "-n", "12"), nil, &out, &errOut)
		if code != 1 || !strings.Contains(errOut.String(), flag) {
			t.Fatalf("%s to an unwritable path: exit %d, stderr %q; want exit 1 naming the flag", flag, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%s to an unwritable path still ran:\n%s", flag, out.String())
		}
	}
}

// A bad flag value exits 2 with a message instead of panicking or
// running a different experiment.
func TestRunRejectsBadFlagValues(t *testing.T) {
	for _, args := range [][]string{
		{"-family", "bogus"},
		{"-n", "-5"},
		{"-n", "0"},
		{"-sched", "bogus"},
		{"-engine", "event", "-sched", "async"},
		{"-start", "legit", "-faults", "-3"},
		{"-start", "corrupt", "-faults", "3"},
		{"-start", "clean", "-faults", "5"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, nil, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Fatalf("%v: exit %d, stderr %q; want exit 2 with a message", args, code, errOut.String())
		}
	}
}

// The smallest sizes still run: one node, and a ring+chords count below
// three, which the family rounds up.
func TestRunTinySizes(t *testing.T) {
	for _, args := range [][]string{
		{"-family", "gnp", "-n", "1"},
		{"-family", "ring+chords", "-n", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, nil, &out, &errOut); code != 0 || !strings.Contains(out.String(), "legitimate: true") {
			t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errOut.String())
		}
	}
}

// Above the exact solver's n ≤ 20, a canonical-ring family prints the
// ring's path witness (Δ* = 2, exact at every n) instead of the
// Fürer–Raghavachari bracket, and a family without the ring keeps the
// bracket.
func TestRunCanonicalRingWitness(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-family", "ring+chords", "-n", "64"},
			"delta*: 2 (canonical ring witness) — bound delta*+1 = 3, within: true"},
		{[]string{"-family", "gnp", "-n", "24"}, "(FR bracket)"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, nil, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d\n%s%s", tc.args, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Fatalf("%v: missing %q in output:\n%s", tc.args, tc.want, out.String())
		}
	}
}
