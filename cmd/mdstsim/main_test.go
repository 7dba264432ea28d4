package main

import (
	"bytes"
	"fmt"
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
	checkProfiles(t, "sim")
}

// The profile flags are started before the backend is picked, so a tcp
// run writes the same two files and refuses the same unwritable paths.
func TestRunWritesProfilesOverTCP(t *testing.T) {
	checkProfiles(t, "tcp")
}

func checkProfiles(t *testing.T, backend string) {
	t.Helper()
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	args := []string{"-backend", backend, "-cpuprofile", cpu, "-memprofile", mem}
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
		args := []string{"-backend", backend, flag, filepath.Join(dir, "missing", "x.pprof")}
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
		{"-backend", "bogus"},
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

// The rounded-up ring+chords count also runs over tcp.
func TestRunTinyRingChordsOverTCP(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-backend", "tcp", "-family", "ring+chords", "-n", "2"}
	if code := run(args, nil, &out, &errOut); code != 0 || !strings.Contains(out.String(), "legitimate: true") {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
}

// An unknown flag exits 2 with a message.
func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, nil, &out, &errOut); code != 2 || errOut.Len() == 0 {
		t.Fatalf("exit %d, stderr %q; want exit 2 with a message", code, errOut.String())
	}
}

// An unknown -variant exits 2 on every backend, before any run.
func TestRunUnknownVariant(t *testing.T) {
	for _, backend := range []string{"sim", "live", "tcp"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-backend", backend, "-variant", "nope"}, nil, &out, &errOut)
		if code != 2 || errOut.Len() == 0 || out.Len() != 0 {
			t.Fatalf("%s: exit %d, stderr %q, stdout %q; want exit 2 with a message and no run",
				backend, code, errOut.String(), out.String())
		}
	}
}

// A bad graph or -layout value next to -svg exits 2 with a message and
// writes no image.
func TestRunRejectsBadSVGFlagValues(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.svg")
	for _, args := range [][]string{
		{"-family", "bogus"},
		{"-n", "-3"},
		{"-n", "0"},
		{"-layout", "bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(append([]string{"-svg", path}, args...), nil, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Fatalf("%v: exit %d, stderr %q; want exit 2 with a message", args, code, errOut.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%v: an image was written (stat: %v)", args, err)
		}
	}
}

// Above the exact solver's n ≤ 20, a canonical-ring family prints the
// ring's path witness (Δ* = 2, exact at every n), and a family without
// the ring the bracket [LowerBoundDelta, deg(T_FR)]. So does a graph of
// at most 20 nodes on which the exact search runs out of budget, such as
// K_{3,12}: it used to print no Δ* line at all.
func TestRunCanonicalRingWitness(t *testing.T) {
	var k312 strings.Builder
	fmt.Fprintln(&k312, "n 15")
	for i := 0; i < 3; i++ {
		for j := 3; j < 15; j++ {
			fmt.Fprintf(&k312, "e %d %d\n", i, j)
		}
	}
	for _, tc := range []struct {
		args  []string
		stdin string
		want  string
	}{
		{[]string{"-family", "ring+chords", "-n", "64"}, "",
			"delta*: 2 (canonical ring witness) — bound delta*+1 = 3, within: true"},
		{[]string{"-family", "gnp", "-n", "24"}, "", "(lower bound, F-R tree)"},
		{[]string{"-stdin"}, k312.String(), "delta*: in [2, 5] (lower bound, F-R tree)\n"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, strings.NewReader(tc.stdin), &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d\n%s%s", tc.args, code, out.String(), errOut.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Fatalf("%v: missing %q in output:\n%s", tc.args, tc.want, out.String())
		}
	}
}

// One wheel from a corrupt start on every backend: each run is
// legitimate, states Δ* in the same line, holds a quiescence certificate
// from its own backend, and -v prints what that backend measured (the
// simulator alone counts per message kind).
func TestRunBackendsAgree(t *testing.T) {
	var deltaLine string
	for _, backend := range []string{"sim", "live", "tcp"} {
		var out, errOut bytes.Buffer
		args := []string{"-backend", backend, "-family", "wheel", "-n", "8", "-start", "corrupt", "-v"}
		if code := run(args, nil, &out, &errOut); code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", backend, code, out.String(), errOut.String())
		}
		for _, want := range []string{"legitimate: true", "quiescence certificate: backend=" + backend,
			"messages: total=", "degree profile:"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: missing %q in output:\n%s", backend, want, out.String())
			}
		}
		if got := strings.Contains(out.String(), "  info "); got != (backend == "sim") {
			t.Errorf("%s: per-kind counts printed = %v:\n%s", backend, got, out.String())
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "delta*: ") {
				line = l
			}
		}
		if line == "" || (deltaLine != "" && line != deltaLine) {
			t.Errorf("%s: delta* line %q, want %q", backend, line, deltaLine)
		}
		deltaLine = line
	}
}

// A flag that the chosen backend does not read exits 2 before running and
// names the flag.
func TestRunRejectsUnreadFlags(t *testing.T) {
	for _, tc := range []struct {
		backend string
		flag    []string
	}{
		{"sim", []string{"-deadline", "5s"}},
		{"sim", []string{"-tick", "1ms"}},
		{"sim", []string{"-batch", "4"}},
		{"sim", []string{"-batchwait", "1ms"}},
		{"live", []string{"-batch", "4"}},
		{"live", []string{"-batchwait", "1ms"}},
		{"live", []string{"-sched", "async"}},
		{"tcp", []string{"-sched", "async"}},
		{"live", []string{"-engine", "event"}},
		{"tcp", []string{"-engine", "event"}},
	} {
		var out, errOut bytes.Buffer
		args := append([]string{"-backend", tc.backend, "-family", "wheel", "-n", "6"}, tc.flag...)
		code := run(args, nil, &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), tc.flag[0]) || out.Len() != 0 {
			t.Errorf("%v: exit %d, stderr %q, stdout %q; want exit 2 naming %s and no run",
				args, code, errOut.String(), out.String(), tc.flag[0])
		}
	}
}

// A bad tuning value exits 2 with a message instead of running on a
// substituted default.
func TestRunRejectsBadTuningFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-deadline", "0"},
		{"-deadline", "-1s"},
		{"-tick", "-1ms"},
		{"-batch", "-1"},
		{"-batchwait", "-1ms"},
		{"-retry", "bogus"},
		{"-retry", "on"},
		{"-suppress"},
	} {
		var out, errOut bytes.Buffer
		args = append([]string{"-backend", "tcp"}, args...)
		if code := run(args, nil, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Fatalf("%v: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}

func TestRunCoreOverTCP(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-backend", "tcp", "-family", "wheel", "-n", "8", "-start", "clean"}, nil, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"graph: n=8", "legitimate: true", "tree degree:",
		"quiescence certificate: backend=tcp", "restarts: 0", "frames/message"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, out.String())
		}
	}
}

func TestRunLiteralCorrupted(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-backend", "tcp", "-family", "ring+chords", "-n", "10", "-variant", "literal", "-start", "corrupt"}
	if code := run(args, nil, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "legitimate: true") {
		t.Fatalf("literal variant failed over TCP:\n%s", out.String())
	}
}

// -retry suppress runs the tcp backend with duplicate Search-token
// pruning: the run must still converge legitimately. Whether any token is
// actually pruned is wall-clock timing (a fast run may never see a
// duplicate), so only the outcome is asserted; deterministic suppression
// coverage lives in the sim-backed tests.
func TestRunSuppressedOverTCP(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-backend", "tcp", "-family", "ring+chords", "-n", "16", "-start", "corrupt", "-retry", "suppress"}
	if code := run(args, nil, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "legitimate: true") {
		t.Fatalf("suppressed tcp run failed:\n%s", out.String())
	}
}

// -metrics samples the stream over the control channel and dumps it as
// a JSON series alongside the audit chain head.
func TestRunMetricsOverTCP(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-backend", "tcp", "-family", "wheel", "-n", "8", "-start", "clean", "-metrics"}, nil, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"audit chain:", "metrics:", `"name": "tcp"`, `"columns"`, `"sentTotal"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in -metrics output:\n%s", want, out.String())
		}
	}
}

// -backend live -metrics streams each snapshot to stderr while the run
// stabilizes; the report, with the audit chain head, stays on stdout.
func TestRunLiveStreamsMetrics(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-backend", "live", "-family", "wheel", "-n", "10", "-metrics"}, nil, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"fill=", "stable="} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("missing %q in the stderr stream:\n%s", want, errOut.String())
		}
	}
	for _, want := range []string{"legitimate: true", "audit chain:", `"name": "live"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in the report:\n%s", want, out.String())
		}
	}
}

// -svg writes the graph with its stabilized tree (thick edges) and a
// deg(T) title to a file; stdout stays the report.
func TestRunRendersTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.svg")
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "ring+chords", "-n", "12", "-layout", "circle", "-svg", path}, nil, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "legitimate: true") {
		t.Fatalf("stdout is not the report:\n%s", out.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	svg := string(b)
	if !strings.HasPrefix(svg, "<svg ") {
		t.Fatal("not SVG")
	}
	if !strings.Contains(svg, "deg(T)=") {
		t.Fatal("title missing protocol result")
	}
	if !strings.Contains(svg, `stroke-width="3"`) {
		t.Fatal("no tree edges drawn")
	}
}
