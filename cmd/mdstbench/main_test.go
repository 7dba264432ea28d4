package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunE1Tiny(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "E1", "-sizes", "10", "-seeds", "1",
		"-families", "ring+chords"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "E1: degree quality") {
		t.Fatalf("missing title:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "true") {
		t.Fatal("no withinBound column")
	}
}

func TestRunCSVMode(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "E3", "-sizes", "10", "-seeds", "1",
		"-families", "gnp", "-csv"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, "family,n,delta") {
		t.Fatalf("not CSV: %q", first)
	}
}

func TestRunSeriesConv(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-series", "conv", "-families", "gnp", "-sizes", "12"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.HasPrefix(out.String(), "epoch,treeDeg,roots") {
		t.Fatalf("series header wrong: %q", strings.SplitN(out.String(), "\n", 2)[0])
	}
}

func TestRunSeriesRecovery(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-series", "recovery", "-families", "gnp", "-sizes", "12",
		"-faults", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if len(strings.Split(out.String(), "\n")) < 3 {
		t.Fatal("series too short")
	}
}

func TestRunFit(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "fit", "-families", "ring+chords",
		"-sizes", "10,14,20", "-seeds", "1"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out.String(), "E2-fit") || !strings.Contains(out.String(), "m n^2 log n") {
		t.Fatalf("fit output wrong:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-exp", "E99"},
		{"-series", "bogus"},
		{"-sizes", "abc"},
		{"-definitely-not-a-flag"},
		{"-families", "bogus"},
		{"-sched", "bogus"},
		{"-sizes", "0"},
		{"-sizes", "12,-5"},
		{"-exp", "E5", "-sizes", "8", "-seeds", "0"},
		{"-workers", "-1"},
		{"-series", "recovery", "-faults", "-2"},
		{"-series", "conv", "-variant", "bogus"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || errOut.Len() == 0 {
			t.Errorf("args %v: exit %d, stderr %q; want exit 2 with a message", args, code, errOut.String())
		}
	}
}
