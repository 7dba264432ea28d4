package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRendersTree(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "ring+chords", "-n", "12", "-layout", "circle"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	svg := out.String()
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

func TestRunGraphOnly(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "grid", "-n", "9", "-graph-only"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if strings.Contains(out.String(), `stroke-width="3"`) {
		t.Fatal("tree edges drawn in graph-only mode")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// -live runs on the goroutine-per-node runtime, streaming metrics
// snapshots to stderr while stabilizing; the SVG contract is unchanged.
func TestRunLiveStreamsMetrics(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-family", "wheel", "-n", "10", "-live"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.HasPrefix(out.String(), "<svg ") {
		t.Fatal("not SVG")
	}
	for _, want := range []string{"fill=", "stable=", "audit chain"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("missing %q in -live stderr stream:\n%s", want, errOut.String())
		}
	}
}

// A bad flag value exits 2 with a message instead of panicking.
func TestRunRejectsBadFlagValues(t *testing.T) {
	for _, args := range [][]string{
		{"-family", "bogus"},
		{"-n", "-3"},
		{"-n", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Fatalf("%v: exit %d, stderr %q; want exit 2 with a message", args, code, errOut.String())
		}
	}
}
