// Command benchmark is the repository's end-to-end benchmark. One process
// runs one workload: it builds the workload's inputs from --seed, repeats
// the workload closed-loop for --seconds, checks every run for
// correctness, and prints the end-to-end metrics as the last line of
// standard output. With --trace 1 it then performs one extra traced
// repetition, with timing shims around every layer boundary, and prints
// the per-layer metrics instead.
//
// It drives the system only through public entry points (harness.Run,
// scenario.Engine.Execute, graph.Family.Build, netrun.Cluster,
// detect.Detector, mdstseq.Approximate, the harness preloads and the
// core/paperproto legitimacy checks). See README.md for the workloads,
// the metrics and how to compare two commits.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mdst/internal/graph"
	"mdst/internal/mdstseq"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point. Exit codes: 0 with a result printed,
// 1 on a benchmark error (a trace that does not reproduce the untraced
// counts, an I/O failure, a panic), 2 on a bad flag.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", 1, "seed every input of the workload is derived from")
	seconds := fs.Float64("seconds", 24, "length of the timed section in seconds (at least one repetition runs)")
	traceFlag := fs.Int("trace", 0, "1: after the timed section, run one traced repetition and print the per-layer metrics")
	spansPath := fs.String("spans", "", "with --trace 1: write the traced repetition's spans to this file as JSON lines")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the untraced timed section to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}
	w, ok := newWorkload(*name, fullSize)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown --workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "benchmark: --seconds must be non-negative\n")
		return 2
	}
	if *spansPath != "" && *traceFlag == 0 {
		fmt.Fprintf(stderr, "benchmark: --spans requires --trace 1\n")
		return 2
	}

	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "benchmark: panic: %v\n", r)
			code = 1
		}
	}()
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		log:     stderr,
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		opts.cpuprofile = f
	}
	rep, err := execute(w, opts)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, rep.spans, rep.result); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	detail, err := json.Marshal(rep.detail)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	result, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, result)
	return 0
}

// options are one invocation's settings.
type options struct {
	seed       int64
	seconds    time.Duration
	trace      bool
	cpuprofile io.Writer // nil: no profile
	log        io.Writer // failing runs are reported here
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result: what the numbers rest
// on, for a reader comparing two runs.
type detail struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Digest is a sha256 over every run's (rounds, messages, maxDegree,
	// legitimate) in order; sim workloads only. A change that should not
	// alter protocol behaviour must leave it unchanged.
	Digest     string `json:"digest,omitempty"`
	Reps       int    `json:"reps"`
	RunsPerRep int    `json:"runsPerRep"`
	// Setups counts every timed set-up; setup_s is the median of the
	// fastest set-up of each slot (see setupSlot).
	Setups    int     `json:"setups"`
	FailRatio float64 `json:"failRatio"`
	// CertTail is the highest percentile of the per-run times behind
	// cert_s that has at least ten samples beyond it.
	CertTail    tail `json:"certTail"`
	CertSamples int  `json:"certSamples"`
	// Quartiles are taken across repetitions for every end-to-end metric,
	// and for the repetition's wall time as measured (measured_wall_s) and
	// the speed factor its CPU time, and off tcp its wall time, was
	// rescaled by (speed).
	Quartiles map[string][3]float64 `json:"quartiles"`
}

// tail is one percentile of a timing distribution.
type tail struct {
	Percentile int     `json:"percentile"`
	Value      float64 `json:"value"`
}

// report is everything one execution produced.
type report struct {
	result result
	detail detail
	spans  []span
}

// repSample is what one untraced repetition cost.
type repSample struct {
	wall      time.Duration // as measured
	cpu       time.Duration // as measured
	speed     float64       // the factor cpu is rescaled by (1: not rescaled)
	wallSpeed float64       // the factor wall is rescaled by: speed, or 1 for paced runs
	alloc     uint64        // heap bytes allocated
	mallocs   uint64        // heap objects allocated
	peakRSS   int64         // peak resident set size, bytes
	messages  int64
	rounds    int64
	runWall   time.Duration // Σ run times reported by the harness
	outcomes  []outcome
}

// Set-up is timed in a slot before every repetition, so the samples span
// the same host conditions as the repetitions rather than one instant
// before them. A set-up takes milliseconds, and on a shared host a vCPU
// can run this allocation-heavy code at half speed for a fraction of a
// second to several seconds at a time; so a slot repeats the set-up,
// pinned to each allowed CPU in turn (at least once per CPU, then while
// the CPU's share of setupSlot lasts, at most setupsPerSlot times), and
// contributes its fastest set-up as the slot's sample. setup_s is the
// median of the slots' samples.
const (
	setupSlot     = 200 * time.Millisecond
	setupsPerSlot = 20
)

// setupTimer times a workload's set-up slot by slot.
type setupTimer struct {
	cpus    []int
	samples []float64 // fastest set-up seconds of each slot
	builds  []float64 // graph-generation seconds inside each set-up
}

// slot runs w's set-up on every CPU in turn, replacing its inputs.
func (s *setupTimer) slot(w workload, seed int64) error {
	if s.cpus == nil {
		s.cpus = allowedCPUs()
	}
	perCPU := setupSlot / time.Duration(len(s.cpus))
	best := math.Inf(1)
	var err error
	for _, cpu := range s.cpus {
		onCPU(cpu, func() {
			for begin, k := time.Now(), 0; k == 0 || (k < setupsPerSlot && time.Since(begin) < perCPU); k++ {
				// Each set-up starts from a collected heap, so its own
				// allocation decides when the collector runs during it.
				runtime.GC()
				t := time.Now()
				gb, e := w.setup(seed)
				d := time.Since(t)
				if e != nil {
					err = fmt.Errorf("setup: %w", e)
					return
				}
				best = math.Min(best, d.Seconds())
				s.builds = append(s.builds, gb.Seconds())
			}
		})
		if err != nil {
			return err
		}
	}
	s.samples = append(s.samples, best)
	return nil
}

// execute runs workload w under opts: set-up, the timed repetitions, the
// correctness checks and, with opts.trace, one traced repetition.
func execute(w workload, o options) (report, error) {
	if o.cpuprofile != nil {
		if err := pprof.StartCPUProfile(o.cpuprofile); err != nil {
			return report{}, fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var st setupTimer
	var reps []repSample
	var rt runtimeReading
	for begin := time.Now(); len(reps) == 0 || time.Since(begin) < o.seconds; {
		if err := st.slot(w, o.seed); err != nil {
			return report{}, err
		}
		rt0 := readRuntime()
		s, err := timeRep(w)
		if err != nil {
			return report{}, err
		}
		rt = rt.plus(readRuntime().since(rt0))
		reps = append(reps, s)
	}
	if o.cpuprofile != nil {
		pprof.StopCPUProfile()
	}

	// Correctness: every run of every repetition is judged; a sim
	// workload must also repeat itself exactly.
	bounds := bracketCache{}
	res := result{Correct: true}
	var digest string
	for i := range reps {
		for j := range reps[i].outcomes {
			oc := &reps[i].outcomes[j]
			bounds.fill(oc)
			res.Attempted++
			if why := oc.failure(); why != "" {
				res.Failed++
				fmt.Fprintf(o.log, "benchmark: FAIL %s: %s\n", oc.label, why)
			}
		}
		if w.deterministic() {
			d := digestOf(reps[i].outcomes)
			if i == 0 {
				digest = d
			} else if d != digest {
				res.Correct = false
				fmt.Fprintf(o.log, "benchmark: repetition %d is not a replay of repetition 0 (digest %s vs %s)\n", i, d, digest)
			}
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	det := detail{
		Workload:   w.name(),
		Seed:       o.seed,
		Digest:     digest,
		Reps:       len(reps),
		RunsPerRep: len(reps[0].outcomes),
		Setups:     len(st.builds),
		Quartiles:  map[string][3]float64{},
	}
	// Timings are rescaled to the reference speed (speed.go); rawWalls and
	// speeds keep what was measured.
	var walls, rates, cpus, msgs, rounds, allocs, rss []float64
	var runWalls, rawWalls, speeds []float64
	for _, s := range reps {
		wall := s.wall.Seconds() * s.wallSpeed
		walls = append(walls, wall)
		rawWalls = append(rawWalls, s.wall.Seconds())
		speeds = append(speeds, s.speed)
		rss = append(rss, float64(s.peakRSS)/1e6)
		rates = append(rates, float64(s.messages)/wall)
		cpus = append(cpus, s.cpu.Seconds()*s.speed*1e6/float64(s.messages))
		msgs = append(msgs, float64(s.messages))
		rounds = append(rounds, float64(s.rounds))
		allocs = append(allocs, float64(s.alloc)/1e6)
		for _, oc := range s.outcomes {
			if oc.wall > 0 {
				runWalls = append(runWalls, oc.wallAtRef().Seconds())
			}
		}
	}
	det.CertSamples = len(runWalls)
	det.CertTail = tailOf(runWalls)
	e2e := map[string]metric{
		"wall_s":         {median(walls), "s"},
		"setup_s":        {median(st.samples), "s"},
		"msgs_per_s":     {median(rates), "msg/s"},
		"cpu_us_per_msg": {median(cpus), "us"},
		"cert_s":         {median(runWalls), "s"},
		"messages":       {median(msgs), "count"},
		"rounds":         {median(rounds), "count"},
		"alloc_mb":       {median(allocs), "MB"},
		"peak_rss_mb":    {slices.Min(rss), "MB"},
	}
	for name, xs := range map[string][]float64{
		"wall_s": walls, "setup_s": st.samples, "msgs_per_s": rates, "cpu_us_per_msg": cpus,
		"cert_s": runWalls, "messages": msgs, "rounds": rounds, "alloc_mb": allocs, "peak_rss_mb": rss,
		"measured_wall_s": rawWalls, "speed": speeds,
	} {
		det.Quartiles[name] = quartiles(xs)
	}
	if res.Attempted > 0 {
		det.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	if !o.trace {
		res.Metrics = e2e
		return report{result: res, detail: det}, nil
	}

	// The traced repetition: per-layer numbers come from here, and it must
	// reproduce the untraced counts of every deterministic run.
	runtime.GC()
	tr := newTracer()
	cpu0, gc0 := cpuTime(), gcCPU()
	t0 := time.Now()
	traced, err := w.traced(tr)
	if err != nil {
		return report{}, fmt.Errorf("traced repetition: %w", err)
	}
	tr.wall = time.Since(t0)
	tr.cpu = cpuTime() - cpu0
	tr.gcCPU = gcCPU() - gc0
	for i := range traced {
		oc := &traced[i]
		bounds.fill(oc)
		res.Attempted++
		if why := oc.failure(); why != "" {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(o.log, "benchmark: FAIL (traced) %s: %s\n", oc.label, why)
		}
	}
	if w.deterministic() {
		if err := sameCounts(reps[0].outcomes, traced); err != nil {
			return report{}, err
		}
	}
	res.Metrics = perLayer(tr, reps, rt, st.builds, median(rawWalls), w.workers())
	return report{result: res, detail: det, spans: tr.spans}, nil
}

// timeRep runs one untraced repetition and measures it.
func timeRep(w workload) (repSample, error) {
	runtime.GC() // every repetition starts from the same heap state
	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	outs, err := w.rep()
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	if err != nil {
		return repSample{}, err
	}
	s := repSample{
		wall:     wall,
		cpu:      cpu,
		alloc:    m1.TotalAlloc - m0.TotalAlloc,
		mallocs:  m1.Mallocs - m0.Mallocs,
		peakRSS:  peakRSSBytes() - refResident(),
		outcomes: outs,
	}
	// The repetition's speed factor is its rescaled run time over its run
	// time as measured, each run rescaled by its own reference readings:
	// the host's speed changes within a fraction of a second, so a factor
	// for the whole repetition would follow it less closely.
	var measured, rescaled, wallAtRef time.Duration
	for _, oc := range outs {
		s.messages += oc.messages
		s.rounds += int64(oc.rounds)
		s.runWall += oc.wall
		if oc.ref > 0 {
			measured += oc.wall
			rescaled += rescale(oc.wall, oc.ref)
			wallAtRef += oc.wallAtRef()
		}
	}
	s.speed, s.wallSpeed = 1, 1
	if measured > 0 {
		s.speed = float64(rescaled) / float64(measured)
		s.wallSpeed = float64(wallAtRef) / float64(measured)
	}
	if s.messages == 0 {
		return repSample{}, errors.New("repetition sent no messages")
	}
	return s, nil
}

// outcome is one run's result as the benchmark judges it.
type outcome struct {
	label     string // the run's spec, printed when it fails
	err       string
	skipped   bool // the fault model did not apply to the drawn instance
	lossy     bool // lossy runs are judged on err and the bracket only
	converged bool // converged, and certified on the wall-clock backend
	legit     bool
	maxDeg    int // deg(T), -1 without a valid tree
	bound     int // the Δ*+1 bracket; 0 until bracketCache.fill
	rounds    int
	messages  int64
	wall      time.Duration // run time reported by the harness; 0 if none
	ref       time.Duration // the reference kernel's time around the run; 0: not rescaled
	paced     bool          // timers set the run's wall time, so only its CPU time is rescaled
	// g is the instance the bracket is computed on when the run path does
	// not report one (nil otherwise).
	g *graph.Graph
}

// failure says why the run failed, or "" when it passed.
func (o outcome) failure() string {
	switch {
	case o.err != "":
		return "error: " + o.err
	case o.skipped:
		return ""
	case o.maxDeg < 0:
		return "no spanning tree"
	case o.maxDeg > o.bound:
		return fmt.Sprintf("deg(T)=%d outside the Δ*+1 bracket %d", o.maxDeg, o.bound)
	case o.lossy:
		return ""
	case !o.converged:
		return "did not converge"
	case !o.legit:
		return "not legitimate"
	}
	return ""
}

// wallAtRef is the run's time at the reference speed, or as measured for a
// paced run.
func (o outcome) wallAtRef() time.Duration {
	if o.paced {
		return o.wall
	}
	return rescale(o.wall, o.ref)
}

// canonicalRingMinN is the size above which the bracket comes from the
// canonical-ring witness (Δ* = 2) instead of the sequential oracle, as in
// the scenario engine.
const canonicalRingMinN = 2048

// bracketCache computes each instance's Δ*+1 bracket once: deg(T_FR)+1
// from mdstseq.Approximate, or 3 on ring+chords instances above
// canonicalRingMinN, where every instance holds a Hamiltonian ring.
type bracketCache map[*graph.Graph]int

func (c bracketCache) fill(o *outcome) {
	if o.bound > 0 || o.g == nil {
		return
	}
	b, ok := c[o.g]
	if !ok {
		if o.g.N() > canonicalRingMinN {
			b = 3
		} else {
			b = mdstseq.Approximate(o.g).MaxDegree() + 1
		}
		c[o.g] = b
	}
	o.bound = b
}

// digestOf hashes the ordered per-run behaviour of a repetition.
func digestOf(outs []outcome) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, o := range outs {
		legit := int64(0)
		if o.legit {
			legit = 1
		}
		put(int64(o.rounds))
		put(o.messages)
		put(int64(o.maxDeg))
		put(legit)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameCounts checks that a traced repetition replayed the untraced one.
func sameCounts(want, got []outcome) error {
	if len(want) != len(got) {
		return fmt.Errorf("trace mismatch: %d traced runs, %d untraced", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.rounds != g.rounds || w.messages != g.messages || w.maxDeg != g.maxDeg || w.legit != g.legit {
			return fmt.Errorf("trace mismatch on %s: traced rounds=%d messages=%d deg=%d legit=%v, untraced rounds=%d messages=%d deg=%d legit=%v",
				w.label, g.rounds, g.messages, g.maxDeg, g.legit, w.rounds, w.messages, w.maxDeg, w.legit)
		}
	}
	return nil
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size (Linux clear_refs 5), so that each repetition's peak
// is its own. peak_rss_mb is the lowest of them: when the host stalls the
// vCPU running the collector, the other worker's allocation overshoots
// the heap goal by up to 15 MB in a repetition, which the process-wide
// peak (and on a noisy host even the median) reports instead of what the
// workload needs. Where the reset is not available the peak is the
// process's so far.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSBytes is the peak resident set size since the last reset
// (VmHWM), or the process's getrusage maxrss where /proc is unavailable.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	return int64(rusage().Maxrss) * 1024 // KiB on Linux
}

// Go runtime counters, read through runtime/metrics.
const (
	rmGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rmIdleCPU  = "/cpu/classes/idle:cpu-seconds"
	rmTotalCPU = "/cpu/classes/total:cpu-seconds"
	rmSchedLat = "/sched/latencies:seconds"
)

// runtimeReading is one snapshot of the runtime counters the per-layer
// metrics use. The CPU classes are the runtime's own estimates; total is
// GOMAXPROCS integrated over wall time, idle included.
type runtimeReading struct {
	gcCPU, idleCPU, totalCPU float64
	sched                    *metrics.Float64Histogram
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: rmGCCPU}, {Name: rmIdleCPU}, {Name: rmTotalCPU}, {Name: rmSchedLat}}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	r := runtimeReading{gcCPU: f(0), idleCPU: f(1), totalCPU: f(2)}
	if s[3].Value.Kind() == metrics.KindFloat64Histogram {
		r.sched = s[3].Value.Float64Histogram()
	}
	return r
}

// since returns the counters accumulated between r0 and r.
func (r runtimeReading) since(r0 runtimeReading) runtimeReading {
	d := runtimeReading{gcCPU: r.gcCPU - r0.gcCPU, idleCPU: r.idleCPU - r0.idleCPU, totalCPU: r.totalCPU - r0.totalCPU}
	if r.sched != nil && r0.sched != nil && len(r.sched.Counts) == len(r0.sched.Counts) {
		h := &metrics.Float64Histogram{Buckets: r.sched.Buckets, Counts: make([]uint64, len(r.sched.Counts))}
		for i := range h.Counts {
			h.Counts[i] = r.sched.Counts[i] - r0.sched.Counts[i]
		}
		d.sched = h
	}
	return d
}

// plus adds the counters accumulated in d to r.
func (r runtimeReading) plus(d runtimeReading) runtimeReading {
	out := runtimeReading{gcCPU: r.gcCPU + d.gcCPU, idleCPU: r.idleCPU + d.idleCPU, totalCPU: r.totalCPU + d.totalCPU, sched: d.sched}
	if r.sched != nil && d.sched != nil && len(r.sched.Counts) == len(d.sched.Counts) {
		h := &metrics.Float64Histogram{Buckets: d.sched.Buckets, Counts: make([]uint64, len(d.sched.Counts))}
		for i := range h.Counts {
			h.Counts[i] = r.sched.Counts[i] + d.sched.Counts[i]
		}
		out.sched = h
	}
	return out
}

// gcCPU is the runtime's estimate of GC CPU time so far.
func gcCPU() time.Duration {
	return time.Duration(readRuntime().gcCPU * float64(time.Second))
}

// histQuantile interpolates quantile q (0..1) of a runtime histogram
// linearly inside the bucket holding it.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 || hi > 1e300 { // the open-ended edge buckets
				return max(lo, 0)
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return h.Buckets[len(h.Buckets)-1]
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// quartiles returns the first, second and third quartile of xs.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	return [3]float64{quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)}
}

// tailOf returns the highest of p99, p90 and p50 with at least ten
// samples beyond it.
func tailOf(xs []float64) tail {
	for _, p := range []int{99, 90, 50} {
		if float64(len(xs))*float64(100-p)/100 >= 10 {
			return tail{Percentile: p, Value: quantile(xs, float64(p)/100)}
		}
	}
	return tail{Percentile: 50, Value: median(xs)}
}
