package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunTinyMatrixTable(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-families", "gnp", "-sizes", "10", "-seeds", "2",
		"-scheds", "sync", "-faults", "none,lossy:0.1", "-quiet"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{"family", "lossy:0.1", "gnp"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
}

func TestRunJSONParses(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-families", "gnp", "-sizes", "10", "-seeds", "2",
		"-scheds", "sync", "-faults", "none,targeted:root", "-format", "json",
		"-quiet"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var m struct {
		TotalRuns int `json:"totalRuns"`
		Cells     []struct {
			Fault      string `json:"fault"`
			Legitimate bool   `json:"legitimate"`
		} `json:"cells"`
		Runs []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if m.TotalRuns != 4 || len(m.Cells) != 2 || len(m.Runs) != 4 {
		t.Fatalf("runs=%d cells=%d perRun=%d", m.TotalRuns, len(m.Cells), len(m.Runs))
	}
	for _, c := range m.Cells {
		if !c.Legitimate {
			t.Fatalf("cell %q not legitimate", c.Fault)
		}
	}
}

// The event core runs only the sync scheduler: with -engines
// compat,event and no -scheds the default sync,async axis shrinks to
// sync, so the command header's paired line runs sync cells only, while
// an explicit non-sync scheduler next to the event engine exits 2 and
// names it before running.
func TestRunEventEngineSchedulers(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-engines", "compat,event", "-families", "ring+chords", "-sizes", "8",
		"-seeds", "1", "-format", "json", "-quiet"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var m struct {
		Cells []struct {
			Scheduler  string `json:"scheduler"`
			Engine     string `json:"engine"`
			Legitimate bool   `json:"legitimate"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(m.Cells) != 2 || m.Cells[0].Engine != "" || m.Cells[1].Engine != "event" {
		t.Fatalf("cells %+v, want one compat and one event cell", m.Cells)
	}
	for _, c := range m.Cells {
		if c.Scheduler != "sync" || !c.Legitimate {
			t.Fatalf("cell %+v, want a legitimate sync cell", c)
		}
	}
	out.Reset()
	errOut.Reset()
	code = run([]string{"-engines", "event", "-scheds", "async", "-families", "ring+chords",
		"-sizes", "8", "-seeds", "1", "-quiet"}, &out, &errOut)
	if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), `"async"`) {
		t.Fatalf("-engines event -scheds async: exit %d, stdout %d bytes, stderr %q; want exit 2 naming the scheduler",
			code, out.Len(), errOut.String())
	}
}

// The matrix must be byte-identical across worker counts: seeding is
// per-run, aggregation is in expansion order, and no timing leaks into
// the output.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	invoke := func(workers string) string {
		var out, errOut bytes.Buffer
		code := run([]string{"-families", "gnp,ring+chords", "-sizes", "10",
			"-scheds", "sync", "-seeds", "2", "-faults", "none,corrupt:3",
			"-format", "json", "-workers", workers, "-quiet"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, errOut.String())
		}
		return out.String()
	}
	serial := invoke("1")
	parallel := invoke("8")
	if serial != parallel {
		t.Fatal("matrix JSON differs between -workers 1 and -workers 8")
	}
}

// Acceptance: `-backend live` and `-backend tcp` complete a small
// matrix end to end through the same engine as the sim default.
func TestRunWallClockBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock backends")
	}
	for _, backend := range []string{"live", "tcp"} {
		var out, errOut bytes.Buffer
		// No -scheds: the default sync,async axis must shrink to sync for
		// a wall-clock backend instead of expanding rejected async cells.
		// No -quiet: the summary of a wall-clock matrix counts restarts.
		code := run([]string{"-backend", backend, "-families", "wheel",
			"-sizes", "8", "-seeds", "1",
			"-format", "json"}, &out, &errOut)
		if code != 0 {
			t.Fatalf("backend %s: exit %d: %s", backend, code, errOut.String())
		}
		if !regexp.MustCompile(`^mdstmatrix: 1 runs in 1 cells, .*, \d+ restarts\n$`).MatchString(errOut.String()) {
			t.Fatalf("backend %s: summary %q does not end in a restart count", backend, errOut.String())
		}
		var m struct {
			Cells []struct {
				Backend     string `json:"backend"`
				Converged   bool   `json:"converged"`
				Legitimate  bool   `json:"legitimate"`
				WithinBound bool   `json:"withinBound"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(out.Bytes(), &m); err != nil {
			t.Fatalf("backend %s: bad JSON: %v", backend, err)
		}
		if len(m.Cells) != 1 {
			t.Fatalf("backend %s: %d cells", backend, len(m.Cells))
		}
		c := m.Cells[0]
		if c.Backend != backend || !c.Converged || !c.Legitimate || !c.WithinBound {
			t.Fatalf("backend %s: cell %+v", backend, c)
		}
	}
}

// -retry paper,suppress,backoff expands the paired retry axis: same
// seeds, the suppress and backoff cells carry the suppression counters,
// the paper cell serializes without them (baseline byte-identity
// contract).
func TestRunSuppressionAxis(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-families", "gnp", "-sizes", "12", "-seeds", "2",
		"-scheds", "sync", "-retry", "paper,suppress,backoff", "-format", "json",
		"-quiet"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	type cell struct {
		Suppress      string  `json:"suppress"`
		Backoff       string  `json:"backoff"`
		Legitimate    bool    `json:"legitimate"`
		WithinBound   bool    `json:"withinBound"`
		SuppressedAvg float64 `json:"searchesSuppressedAvg"`
	}
	var m struct {
		Cells []cell `json:"cells"`
		Runs  []struct {
			Seed int64 `json:"seed"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(m.Cells) != 3 || len(m.Runs) != 6 {
		t.Fatalf("cells=%d runs=%d, want paper+suppress+backoff over 2 seeds", len(m.Cells), len(m.Runs))
	}
	labels := [][2]string{{"", ""}, {"on", ""}, {"", "on"}}
	for i, c := range m.Cells {
		if got := [2]string{c.Suppress, c.Backoff}; got != labels[i] {
			t.Fatalf("cell %d labels %q, want %q", i, got, labels[i])
		}
		if !c.Legitimate || !c.WithinBound {
			t.Fatalf("paired cell %d broke the guarantee: %+v", i, c)
		}
		if pruned := c.SuppressedAvg > 0; pruned != (i > 0) {
			t.Fatalf("cell %d (labels %q) suppressed average %v", i, labels[i], c.SuppressedAvg)
		}
	}
	if m.Runs[0].Seed != m.Runs[2].Seed || m.Runs[0].Seed != m.Runs[4].Seed {
		t.Fatalf("retry axis changed run seeds: %d, %d, %d", m.Runs[0].Seed, m.Runs[2].Seed, m.Runs[4].Seed)
	}
}

func TestRunBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "lossy:2"},
		{"-faults", "bogus"},
		{"-starts", "bogus"},
		{"-sizes", "x"},
		{"-families", "no-such-family", "-quiet"},
		{"-format", "bogus", "-families", "gnp", "-sizes", "8", "-seeds", "1"},
		{"-backend", "quantum"},
		{"-deadline", "-5s"},
		{"-retry", "bogus"},
		{"-retry", "paper,paper", "-families", "gnp", "-sizes", "8"},
		{"-suppress", "on"},
		{"-seeds", "-1"},
		{"-seeds", "0"},
		{"-workers", "-3"},
		{"-maxrounds", "-5"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
	}
	// -scale reads only -sizes, -workers, -quiet and the profile flags,
	// a matrix reads -deadline only with a live or tcp backend, and
	// -batch and -batchwait only with a tcp backend: any other set flag
	// is named and rejected before anything runs.
	for _, c := range []struct {
		args []string
		flag string
	}{
		{[]string{"-scale", "-sizes", "8", "-retry", "bogus"}, "-retry"},
		{[]string{"-scale", "-sizes", "8", "-retry", "paper"}, "-retry"},
		{[]string{"-scale", "-families", "gnp"}, "-families"},
		{[]string{"-scale", "-seeds", "3"}, "-seeds"},
		{[]string{"-scale", "-batch", "8"}, "-batch"},
		{[]string{"-batch", "16", "-families", "gnp", "-sizes", "8", "-seeds", "1"}, "-batch"},
		{[]string{"-deadline", "5s", "-families", "gnp", "-sizes", "8", "-seeds", "1"}, "-deadline"},
		{[]string{"-backend", "sim", "-batchwait", "1ms", "-families", "gnp", "-sizes", "8", "-seeds", "1"}, "-batchwait"},
		{[]string{"-backend", "live", "-batch", "16", "-families", "gnp", "-sizes", "8", "-seeds", "1"}, "-batch"},
		{[]string{"-backend", "sim,live", "-deadline", "5s", "-batchwait", "1ms", "-families", "gnp", "-sizes", "8", "-seeds", "1"}, "-batchwait"},
	} {
		var out, errOut bytes.Buffer
		code := run(c.args, &out, &errOut)
		if code != 2 || out.Len() != 0 || !strings.Contains(errOut.String(), c.flag) {
			t.Fatalf("args %v: exit %d, stdout %d bytes, stderr %q; want exit 2 naming %s before running",
				c.args, code, out.Len(), errOut.String(), c.flag)
		}
	}
}

// -scale emits the deterministic scale report; the reduced ladder keeps
// test runtime low while covering the fingerprint-work comparison inside
// ScaleSweep.
func TestRunScaleReport(t *testing.T) {
	if testing.Short() {
		t.Skip("scale sweep")
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-scale", "-sizes", "32,48", "-quiet"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var rep struct {
		Cells []struct {
			N         int  `json:"n"`
			Converged bool `json:"converged"`
		} `json:"cells"`
		BaselineN             int   `json:"baselineN"`
		FullRehashRecomputes  int64 `json:"fullRehashRecomputes"`
		IncrementalRecomputes int64 `json:"incrementalRecomputes"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rep.Cells) != 2 || rep.BaselineN != 32 {
		t.Fatalf("cells=%d baselineN=%d", len(rep.Cells), rep.BaselineN)
	}
	for _, c := range rep.Cells {
		if !c.Converged {
			t.Fatalf("n=%d did not converge", c.N)
		}
	}
	if rep.FullRehashRecomputes <= rep.IncrementalRecomputes {
		t.Fatalf("no fingerprint savings: full=%d incremental=%d",
			rep.FullRehashRecomputes, rep.IncrementalRecomputes)
	}
}

// The default invocation is the acceptance-scale matrix: >= 100 runs,
// verified by dry-run expansion (no execution).
func TestDefaultMatrixIsAtLeast100Runs(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-expand", "-quiet"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Count(out.String(), "\n")
	if lines < 100 {
		t.Fatalf("default matrix expands to only %d runs, want >= 100", lines)
	}
}

// -metrics threads the observability plane through the matrix: per-run
// JSON gains metrics time series and audit chain heads, while the
// default (metrics-off) output keeps the committed baselines
// byte-identical — asserted directly by the drift tests.
func TestRunMetricsFlagJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-families", "gnp", "-sizes", "10", "-seeds", "1",
		"-metrics", "-format", "json", "-quiet"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, want := range []string{`"auditChain"`, `"metrics"`, `"versionFill"`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in -metrics JSON", want)
		}
	}
	var off bytes.Buffer
	if code := run([]string{"-families", "gnp", "-sizes", "10", "-seeds", "1",
		"-format", "json", "-quiet"}, &off, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if strings.Contains(off.String(), `"auditChain"`) {
		t.Error("metrics-off JSON contains auditChain")
	}
}

// -cpuprofile and -memprofile write two non-empty runtime/pprof files; an
// unwritable path is reported as an error before the run, not a panic.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	args := []string{"-cpuprofile", cpu, "-memprofile", mem}
	if code := run(append(args, "-families", "gnp", "-sizes", "8", "-seeds", "1", "-scheds", "sync", "-quiet"), &out, &errOut); code != 0 {
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
		code := run(append(args, "-families", "gnp", "-sizes", "8", "-seeds", "1", "-scheds", "sync", "-quiet"), &out, &errOut)
		if code != 1 || !strings.Contains(errOut.String(), flag) {
			t.Fatalf("%s to an unwritable path: exit %d, stderr %q; want exit 1 naming the flag", flag, code, errOut.String())
		}
		if out.Len() != 0 {
			t.Fatalf("%s to an unwritable path still ran:\n%s", flag, out.String())
		}
	}
}

// A ring+chords size below three is rounded up instead of killing the
// worker that builds it.
func TestRunTinyRingChords(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-families", "ring+chords", "-sizes", "2", "-seeds", "1", "-scheds", "sync", "-quiet"}, &out, &errOut)
	if code != 0 || !strings.Contains(out.String(), "ring+chords  3") {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errOut.String())
	}
}
