// Command mdstmatrix expands and executes a declarative scenario matrix
// (graph families × sizes × schedulers × start modes × variants × fault
// models × seeds) across all CPUs and prints the aggregated per-cell
// result table. Results are bit-reproducible: every run is seeded from
// a hash of its matrix coordinates, so the same invocation produces
// byte-identical output regardless of worker count.
//
// Usage:
//
//	mdstmatrix                            # default 108-run matrix, text table
//	mdstmatrix -format json               # full matrix incl. per-run results
//	mdstmatrix -families gnp -sizes 16,24 -faults none,lossy:0.05,targeted:root,churn:add-edge
//	mdstmatrix -scheds sync,async,adversarial -starts clean,corrupt -seeds 5
//	mdstmatrix -engines compat,event       # paired full-sweep vs discrete-event cells (sync only)
//	mdstmatrix -workers 1                 # serial execution (same results)
//	mdstmatrix -scale                     # n=256/512/1024 scale sweep -> BENCH_scale.json content
//	mdstmatrix -backend live -sizes 8 -seeds 1   # goroutine-per-node runtime
//	mdstmatrix -backend sim,live,tcp      # cross-backend comparison matrix
//	mdstmatrix -retry paper,suppress,backoff   # paired cycle-search retry policies
//	mdstmatrix -backend tcp -batch 16 -batchwait 1ms   # coalesced tcp frames
//	mdstmatrix -families ring+chords -sizes 64,96,128,256 -retry suppress -seeds 1 -backend sim,live,tcp -batch 32 -batchwait 12ms -deadline 600s -workers 1   # medium-n cross-backend ladder
//	mdstsim -backend tcp -family ring+chords -n 128 -start corrupt -retry suppress -seed 5812272425470856561 -tick 2ms -batch B -batchwait 6ms -deadline 150s   # one tcp instance at batch B (mdstsim prints frames per message and restarts)
//	mdstmatrix -metrics -format json      # per-run metrics time series + audit chain heads
//	mdstmatrix -cpuprofile cpu.pprof -memprofile mem.pprof   # runtime/pprof profiles of the run
//
// The sim backend (default) is bit-reproducible; the live and tcp
// backends execute on the wall clock, so their rounds/messages columns
// vary across repeats while the legitimacy and degree-bound claims must
// not. Run seeds exclude the backend and retry axes, so -expand prints
// the instances every backend of a cross-backend matrix runs; the
// stderr summary counts the wall-clock drivers' restarts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"mdst/internal/core"
	"mdst/internal/harness"
	"mdst/internal/profflag"
	"mdst/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mdstmatrix", flag.ContinueOnError)
	fs.SetOutput(stderr)
	families := fs.String("families", "ring+chords,gnp,geometric", "comma-separated graph families")
	sizes := fs.String("sizes", "16,24,32", "comma-separated node counts")
	scheds := fs.String("scheds", "sync,async", "comma-separated schedulers: sync|async|adversarial (sim backend and compat engine only; defaults to sync when a wall-clock backend or the event engine is requested)")
	starts := fs.String("starts", "corrupt", "comma-separated start modes: clean|corrupt|legitimate|path")
	variants := fs.String("variants", "core", "comma-separated protocol variants: core|literal")
	engines := fs.String("engines", "compat", "comma-separated simulator cores: compat|event (sim backend only; event is the frontier-only discrete-event loop under the sync scheduler, excluded from seed hashing so cells pair with compat)")
	backends := fs.String("backend", "sim", "comma-separated execution backends: sim|live|tcp (sim is deterministic; live/tcp are wall-clock)")
	deadline := fs.Duration("deadline", 0, "per-run wall-clock budget for the live/tcp backends (0: 30s default; a sim-only matrix rejects it)")
	faults := fs.String("faults", "none", "comma-separated fault models: none|lossy:RATE|corrupt:K|targeted:ROLE|churn:OP")
	seeds := fs.Int("seeds", 6, "seeds (runs) per matrix cell")
	baseSeed := fs.Int64("baseseed", 1, "base seed perturbing every derived run seed")
	maxRounds := fs.Int("maxrounds", 0, "per-run round bound (0: harness default)")
	workers := fs.Int("workers", 0, "concurrent run executors (0: GOMAXPROCS)")
	format := fs.String("format", "table", "output format: table|csv|json")
	expand := fs.Bool("expand", false, "dry run: print the expanded run matrix without executing")
	quiet := fs.Bool("quiet", false, "suppress the execution summary on stderr")
	scale := fs.Bool("scale", false, "run the large-n scale sweep and print the deterministic BENCH_scale.json report (uses -sizes when given, else 256,512,1024; reads only -sizes, -workers, -quiet and the profile flags)")
	retry := fs.String("retry", "paper", "comma-separated cycle-search retry policies: paper|suppress|backoff (suppress prunes duplicate Search tokens; backoff also doubles the pruning window each full unchanged window, resetting on any neighborhood change; seeds pair cells on identical workloads)")
	batch := fs.Int("batch", 0, "tcp frame coalescing: messages per wire frame (0/1: one message per frame; a matrix without a tcp backend rejects it)")
	batchwait := fs.Duration("batchwait", 0, "tcp frame coalescing: max time a partially filled frame is held open (0: flush immediately; a matrix without a tcp backend rejects it)")
	metricsOn := fs.Bool("metrics", false, "enable the observability plane on every run: sampled metrics time series and hash-chained audit heads in per-run JSON output (off keeps committed baselines byte-identical)")
	profiles := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// -scale names and rejects every set flag it would not read, so
	// nothing runs with a flag the caller believed took effect.
	scaleReads := []string{"scale", "sizes", "workers", "quiet", "cpuprofile", "memprofile"}
	explicit := map[string]bool{}
	var scaleIgnores []string
	fs.Visit(func(f *flag.Flag) {
		explicit[f.Name] = true
		if !slices.Contains(scaleReads, f.Name) {
			scaleIgnores = append(scaleIgnores, "-"+f.Name)
		}
	})
	if *scale && len(scaleIgnores) > 0 {
		fmt.Fprintln(stderr, "mdstmatrix: -scale does not read", strings.Join(scaleIgnores, ", "))
		return 2
	}
	// Out-of-range counts would otherwise fall back to defaults silently
	// (one seed per cell, GOMAXPROCS workers, the harness round budget).
	if *seeds < 1 || *workers < 0 || *maxRounds < 0 {
		fmt.Fprintln(stderr, "mdstmatrix: -seeds must be at least 1, -workers and -maxrounds non-negative")
		return 2
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(stderr, "mdstmatrix:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "mdstmatrix:", err)
			code = 1
		}
	}()

	spec := scenario.Spec{
		SeedsPerCell: *seeds,
		BaseSeed:     *baseSeed,
		MaxRounds:    *maxRounds,
		Metrics:      *metricsOn,
	}
	spec.Families = splitList(*families)
	for _, s := range splitList(*sizes) {
		v, err := strconv.Atoi(s)
		if err != nil {
			fmt.Fprintln(stderr, "mdstmatrix: bad -sizes:", err)
			return 2
		}
		spec.Sizes = append(spec.Sizes, v)
	}
	if *scale {
		sweep := scenario.ScaleSpec{Workers: *workers}
		// -sizes overrides the default 256,512,1024 ladder only when the
		// caller sets it explicitly (the matrix default would shrink it).
		if explicit["sizes"] {
			sweep.Sizes = spec.Sizes
		}
		return runScale(sweep, *quiet, stdout, stderr)
	}
	for _, s := range splitList(*backends) {
		b, err := harness.ParseBackend(s)
		if err != nil {
			fmt.Fprintln(stderr, "mdstmatrix:", err)
			return 2
		}
		spec.Backends = append(spec.Backends, b)
	}
	// The deadline is read by the live and tcp drivers only, the frame
	// knobs by the tcp transport alone; a matrix that would not read one
	// rejects it by name too.
	wall := slices.ContainsFunc(spec.Backends, func(b harness.Backend) bool { return b != harness.BackendSim })
	tcp := slices.Contains(spec.Backends, harness.BackendTCP)
	for _, f := range []struct {
		name string
		read bool
	}{{"deadline", wall}, {"batch", tcp}, {"batchwait", tcp}} {
		if explicit[f.name] && !f.read {
			fmt.Fprintf(stderr, "mdstmatrix: -backend %s does not read -%s\n", *backends, f.name)
			return 2
		}
	}
	if *deadline < 0 {
		// A negative deadline would silently fall back to the harness's
		// 30s default; reject it like every other bad flag.
		fmt.Fprintln(stderr, "mdstmatrix: -deadline must be non-negative")
		return 2
	}
	spec.Tuning.Deadline = *deadline
	spec.Tuning.BatchSize = *batch
	spec.Tuning.BatchMaxWait = *batchwait
	if err := spec.Tuning.Validate(); err != nil {
		fmt.Fprintln(stderr, "mdstmatrix:", err)
		return 2
	}
	for _, s := range splitList(*engines) {
		e, err := harness.ParseEngine(s)
		if err != nil {
			fmt.Fprintln(stderr, "mdstmatrix:", err)
			return 2
		}
		spec.Engines = append(spec.Engines, e)
	}
	// The scheduler axis only exists on the compat core of the
	// deterministic simulator; when a wall-clock backend or the event
	// engine is requested and -scheds was left at its default, shrink the
	// axis to the sync label instead of expanding cells the spec
	// validation would (correctly, loudly) reject.
	if !explicit["scheds"] && (wall || slices.Contains(spec.Engines, harness.EngineEvent)) {
		*scheds = "sync"
	}
	for _, s := range splitList(*scheds) {
		spec.Schedulers = append(spec.Schedulers, harness.SchedulerKind(s))
	}
	for _, s := range splitList(*starts) {
		mode, err := harness.ParseStartMode(s)
		if err != nil {
			fmt.Fprintln(stderr, "mdstmatrix:", err)
			return 2
		}
		spec.Starts = append(spec.Starts, mode)
	}
	for _, s := range splitList(*variants) {
		spec.Variants = append(spec.Variants, harness.Variant(s))
	}
	for _, s := range splitList(*retry) {
		p, err := core.ParseRetryPolicy(s)
		if err != nil {
			fmt.Fprintln(stderr, "mdstmatrix:", err)
			return 2
		}
		spec.Retry = append(spec.Retry, p)
	}
	models, err := scenario.ParseFaults(*faults)
	if err != nil {
		fmt.Fprintln(stderr, "mdstmatrix:", err)
		return 2
	}
	spec.Faults = models

	switch *format {
	case "table", "csv", "json":
	default:
		// Reject before executing: a typo must not cost a full matrix.
		fmt.Fprintln(stderr, "mdstmatrix: unknown -format", *format)
		return 2
	}

	if *expand {
		runs, err := spec.Expand()
		if err != nil {
			fmt.Fprintln(stderr, "mdstmatrix:", err)
			return 2
		}
		for _, r := range runs {
			fmt.Fprintf(stdout, "%s seed[%d]=%d\n", r.Cell, r.SeedIndex, r.Seed)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "mdstmatrix: %d runs (dry run)\n", len(runs))
		}
		return 0
	}

	m, err := scenario.Engine{Workers: *workers}.Execute(spec)
	if err != nil {
		fmt.Fprintln(stderr, "mdstmatrix:", err)
		return 2
	}

	switch *format {
	case "table":
		fmt.Fprint(stdout, m.RenderTable())
	case "csv":
		fmt.Fprint(stdout, m.CSV())
	case "json":
		b, err := m.JSON()
		if err != nil {
			fmt.Fprintln(stderr, "mdstmatrix:", err)
			return 1
		}
		stdout.Write(b)
	}
	if !*quiet {
		summary := fmt.Sprintf("mdstmatrix: %d runs in %d cells, %d workers, %s",
			m.TotalRuns, len(m.Cells), m.Workers, m.Elapsed.Round(1e6))
		if wall {
			// Restarts (a certified stop that was not legitimate) are
			// json:"-", so a wall-clock matrix reports them here.
			restarts := 0
			for _, rr := range m.Runs {
				restarts += rr.Restarts
			}
			summary += fmt.Sprintf(", %d restarts", restarts)
		}
		fmt.Fprintln(stderr, summary)
	}
	return 0
}

// runScale executes the deterministic large-n scale sweep (make bench
// writes its output to BENCH_scale.json).
func runScale(spec scenario.ScaleSpec, quiet bool, stdout, stderr io.Writer) int {
	rep, err := scenario.ScaleSweep(spec)
	if err != nil {
		fmt.Fprintln(stderr, "mdstmatrix:", err)
		return 1
	}
	b, err := rep.JSON()
	if err != nil {
		fmt.Fprintln(stderr, "mdstmatrix:", err)
		return 1
	}
	stdout.Write(b)
	if !quiet {
		fmt.Fprintf(stderr, "mdstmatrix: scale sweep %d cells, fingerprint overhead reduced %.1fx at n=%d\n",
			len(rep.Cells), rep.OverheadReduction, rep.BaselineN)
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
