package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCoreOverTCP(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "wheel", "-n", "8"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"graph: n=8", "legitimate: true", "tree degree:",
		"quiescence certificate:", "cluster restarts: 0"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in output:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadTuningFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-deadline", "0"},
		{"-n", "-5"},
		{"-n", "0"},
		{"-retry", "bogus"},
		{"-retry", "on"},
		{"-suppress"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Fatalf("%v: exit %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}

func TestRunLiteralCorrupted(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "ring+chords", "-n", "10", "-variant", "literal", "-corrupt"}, &out, &errOut)
	if code != 0 {
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
	code := run([]string{"-family", "ring+chords", "-n", "16", "-corrupt", "-retry", "suppress"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "legitimate: true") {
		t.Fatalf("suppressed tcp run failed:\n%s", out.String())
	}
}

func TestRunUnknownVariant(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-variant", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// -metrics samples the stream over the control channel and dumps it as
// a JSON series alongside the audit chain head.
func TestRunMetricsOverTCP(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "wheel", "-n", "8", "-metrics"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"audit chain:", "metrics:", `"name": "tcp"`, `"columns"`, `"sentTotal"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in -metrics output:\n%s", want, out.String())
		}
	}
}

// -cpuprofile and -memprofile write two non-empty runtime/pprof files; an
// unwritable path is reported as an error before the run, not a panic.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	args := []string{"-cpuprofile", cpu, "-memprofile", mem}
	if code := run(append(args, "-family", "wheel", "-n", "6"), &out, &errOut); code != 0 {
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
		code := run(append(args, "-family", "wheel", "-n", "6"), &out, &errOut)
		if code != 1 || !strings.Contains(errOut.String(), flag) {
			t.Fatalf("%s to an unwritable path: exit %d, stderr %q; want exit 1 naming the flag", flag, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%s to an unwritable path still ran:\n%s", flag, out.String())
		}
	}
}

// A ring+chords count below three is rounded up instead of panicking.
func TestRunTinyRingChords(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-family", "ring+chords", "-n", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
}
