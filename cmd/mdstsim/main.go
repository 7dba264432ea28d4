// Command mdstsim runs the self-stabilizing MDST protocol on one graph
// and reports the outcome: the stabilized tree, its degree, the Δ*
// bracket, the quiescence certificate and the message counts.
//
// -backend picks who drives the nodes: the deterministic seeded
// simulator (sim, the default), one goroutine per node over Go channels
// (live), or one goroutine per node over loopback TCP with one socket
// per edge (tcp) — the paper's asynchronous reliable-FIFO message
// passing on an actual network stack. Every flag maps onto one
// harness.RunSpec, so a run here is the run `mdstmatrix -backend` makes;
// a flag the chosen backend does not read exits 2 and names the flag.
// The wall-clock backends stop on a quiescence certificate from
// internal/detect and report how often a certified stop was not
// legitimate and the run had to resume (restarts).
//
// Usage:
//
//	mdstsim -family geometric -n 32 -start corrupt -sched sync -v
//	graphgen -family gnp -n 24 | mdstsim -stdin
//	mdstsim -family ring+chords -n 16384 -start path -engine event -cpuprofile cpu.pprof
//	mdstsim -family geometric -n 32 -layout spring -svg tree.svg   # thick blue edges: the tree; node color: tree degree
//	mdstsim -backend live -family gnp -n 24 -metrics -svg tree.svg   # watch the snapshot stream on stderr
//	mdstsim -backend tcp -family wheel -n 12 -start clean
//	mdstsim -backend tcp -family gnp -n 24 -variant literal -start corrupt
//	mdstsim -backend tcp -family gnp -n 64 -start clean -retry suppress   # duplicate Search-token pruning
//	mdstsim -backend tcp -family gnp -n 128 -start clean -batch 16 -batchwait 1ms   # coalesced wire frames
//	mdstsim -backend tcp -family wheel -n 12 -start clean -metrics   # metrics series (JSON) + audit chain head
//	mdstsim -backend tcp -family gnp -n 64 -start clean -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
	"mdst/internal/metrics"
	"mdst/internal/profflag"
	"mdst/internal/viz"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// readers names, for each flag that only some backends read, the
// backends that read it.
var readers = map[string][]harness.Backend{
	"sched":     {harness.BackendSim},
	"engine":    {harness.BackendSim},
	"tick":      {harness.BackendLive, harness.BackendTCP},
	"deadline":  {harness.BackendLive, harness.BackendTCP},
	"batch":     {harness.BackendTCP},
	"batchwait": {harness.BackendTCP},
}

// run is the testable entry point.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mdstsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	backendName := fs.String("backend", "sim", "who drives the nodes: sim (deterministic simulator)|live (goroutines over channels)|tcp (loopback sockets, one per edge)")
	family := fs.String("family", "gnp", "workload family (see graphgen -list)")
	n := fs.Int("n", 24, "approximate node count")
	useStdin := fs.Bool("stdin", false, "read the graph from stdin (edge-list format)")
	seed := fs.Int64("seed", 1, "seed for generation, corruption and scheduling")
	start := fs.String("start", "corrupt", "initial configuration: clean|corrupt|legitimate (or legit)|path")
	faults := fs.Int("faults", 0, "with -start legitimate/path: number of nodes to corrupt")
	variant := fs.String("variant", "core", "edge exchange: core (chain of single-parent moves)|literal (the paper's Remove/Back choreography)")
	retry := fs.String("retry", "paper", "cycle-search retry policy: paper|suppress|backoff (suppress prunes duplicate Search tokens and batches launches; backoff also doubles the pruning window each full unchanged window, resetting on any neighborhood change, and the stability window takes its conservative cap)")
	sched := fs.String("sched", "sync", "scheduler: sync|async|adversarial (sim only)")
	engine := fs.String("engine", "compat", "simulator core: compat (full-sweep rounds)|event (frontier-only) (sim only)")
	tick := fs.Duration("tick", 0, "gossip period (0 = backend default; live and tcp only)")
	deadline := fs.Duration("deadline", 10*time.Second, "total wall-clock budget (live and tcp only)")
	batch := fs.Int("batch", 0, "messages coalesced per wire frame (0/1 = one message per frame; tcp only)")
	batchwait := fs.Duration("batchwait", 0, "max time a partially filled frame is held open (0 = flush immediately; tcp only)")
	metricsOn := fs.Bool("metrics", false, "stream every metrics snapshot to stderr while the run executes, then print the audit chain head and the series as JSON")
	verbose := fs.Bool("v", false, "print message counts and the degree profile")
	dot := fs.Bool("dot", false, "print the stabilized tree as Graphviz DOT")
	svgPath := fs.String("svg", "", "write the graph with its stabilized tree as an SVG image to `FILE`")
	layout := fs.String("layout", "spring", "SVG node layout: circle|spring")
	profiles := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	backend, err := harness.ParseBackend(*backendName)
	if err != nil {
		fmt.Fprintln(stderr, "mdstsim:", err)
		return 2
	}
	// A flag the backend would not read is named and rejected, so nothing
	// runs with a flag the caller believed took effect.
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if r, ok := readers[f.Name]; ok && !slices.Contains(r, backend) {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		fmt.Fprintf(stderr, "mdstsim: -backend %s does not read %s\n", backend, strings.Join(unread, ", "))
		return 2
	}
	if *n < 1 {
		fmt.Fprintln(stderr, "mdstsim: -n must be at least 1")
		return 2
	}
	if *deadline <= 0 {
		// The harness would silently substitute its 30s default for zero.
		fmt.Fprintln(stderr, "mdstsim: -deadline must be positive")
		return 2
	}
	if *layout != "circle" && *layout != "spring" {
		fmt.Fprintln(stderr, "mdstsim: unknown -layout", *layout)
		return 2
	}
	policy, err := core.ParseRetryPolicy(*retry)
	if err != nil {
		fmt.Fprintln(stderr, "mdstsim:", err)
		return 2
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(stderr, "mdstsim:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "mdstsim:", err)
			code = 1
		}
	}()

	var g *graph.Graph
	name, canonicalRing := *family, false
	if *useStdin {
		name = "stdin"
		g, err = graph.Read(stdin)
		if err != nil {
			fmt.Fprintln(stderr, "mdstsim:", err)
			return 1
		}
	} else {
		fam, ok := graph.LookupFamily(*family)
		if !ok {
			fmt.Fprintln(stderr, "mdstsim: unknown -family", *family)
			return 2
		}
		g = fam.Build(*n, rand.New(rand.NewSource(*seed)))
		canonicalRing = fam.CanonicalRing
	}

	mode, err := harness.ParseStartMode(*start)
	if err != nil {
		fmt.Fprintln(stderr, "mdstsim:", err)
		return 2
	}
	eng, err := harness.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(stderr, "mdstsim:", err)
		return 2
	}
	var coll *metrics.Collector
	if *metricsOn {
		coll = &metrics.Collector{OnSnapshot: func(s metrics.Snapshot) {
			fmt.Fprintf(stderr, "mdstsim: epoch=%d fill=%.2f stable=%d/%d deficit=%d sent=%d\n",
				s.Epoch, s.VersionFill, s.Stable, s.Window, s.Deficit, s.SentTotal)
		}}
	}
	cfg := core.DefaultConfig(g.N())
	cfg.Retry = policy
	spec := harness.RunSpec{
		Graph:        g,
		Config:       cfg,
		Variant:      harness.Variant(*variant),
		Scheduler:    harness.SchedulerKind(*sched),
		Start:        mode,
		CorruptNodes: *faults,
		Seed:         *seed,
		Backend:      backend,
		Engine:       eng,
		Collect:      coll,
		Tuning: harness.BackendTuning{
			Tick:         *tick,
			Deadline:     *deadline,
			BatchSize:    *batch,
			BatchMaxWait: *batchwait,
		},
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, "mdstsim:", err)
		return 2
	}
	res, err := harness.Run(spec)
	if err != nil {
		fmt.Fprintln(stderr, "mdstsim:", err)
		return 1
	}

	fmt.Fprintf(stdout, "graph: n=%d m=%d delta=%d\n", g.N(), g.M(), g.MaxDegree())
	if backend == harness.BackendSim {
		fmt.Fprintf(stdout, "converged: %v (rounds=%d, last state change at round %d)\n",
			res.Converged, res.Rounds, res.LastChange)
	} else {
		fmt.Fprintf(stdout, "converged: %v (%d probe(s), %v wall time, deadline %v)\n",
			res.Converged, res.Rounds, res.WallTime.Round(time.Millisecond), res.Deadline)
	}
	fmt.Fprintf(stdout, "legitimate: %v\n", res.Legit.OK())
	if !res.Legit.OK() {
		fmt.Fprintf(stdout, "  detail: %+v\n", res.Legit)
	}
	if res.Cert != nil {
		fmt.Fprintln(stdout, res.Cert)
	} else {
		fmt.Fprintln(stdout, "no quiescence certificate")
	}
	if backend != harness.BackendSim {
		fmt.Fprintf(stdout, "restarts: %d\n", res.Restarts)
	}
	if res.Tree != nil {
		deg := res.Tree.MaxDegree()
		fmt.Fprintf(stdout, "tree degree: %d\n", deg)
		star := mdstseq.DeltaStar(g, canonicalRing)
		fmt.Fprintf(stdout, "delta*: %v", star)
		if star.Lo == star.Hi {
			fmt.Fprintf(stdout, " — bound delta*+1 = %d, within: %v", star.Hi+1, deg <= star.Hi+1)
		}
		fmt.Fprintln(stdout)
	}
	if res.Dropped > 0 {
		fmt.Fprintf(stdout, "backpressure drops: %d\n", res.Dropped)
	}
	if backend == harness.BackendTCP && res.TotalMessages > 0 {
		fmt.Fprintf(stdout, "wire frames: %d (%.3f frames/message)\n",
			res.Frames, float64(res.Frames)/float64(res.TotalMessages))
	}
	if res.SearchesSuppressed > 0 {
		fmt.Fprintf(stdout, "searches suppressed: %d\n", res.SearchesSuppressed)
	}
	if *dot && res.Tree != nil {
		fmt.Fprint(stdout, g.DOT("mdst", res.Tree.EdgeSet()))
	}
	if *verbose {
		fmt.Fprintf(stdout, "messages: total=%d", res.TotalMessages)
		// Only the simulator counts per kind and sizes messages.
		if m := res.Metrics; m != nil {
			fmt.Fprintf(stdout, " maxWords=%d (%s)\n", m.MaxMsgSize, m.MaxMsgSizeKind)
			if eng == harness.EngineEvent {
				fmt.Fprintf(stdout, "events: total=%d tail=%d (after last state change)\n",
					m.Events, m.Events-m.EventsAtLastChange)
			}
			kinds := make([]string, 0, len(m.SentByKind))
			for k := range m.SentByKind {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			for _, k := range kinds {
				fmt.Fprintf(stdout, "  %-12s %d\n", k, m.SentByKind[k])
			}
		} else {
			fmt.Fprintln(stdout)
		}
		if res.Tree != nil {
			fmt.Fprintf(stdout, "degree profile: %v\n", mdstseq.DegreeProfile(res.Tree))
		}
		fmt.Fprintf(stdout, "state: max %d bits/node\n", res.MaxStateBits)
	}
	if coll != nil {
		fmt.Fprintf(stdout, "audit chain: %016x over %d mutation(s)\n", res.AuditChain, res.AuditRecords)
		fmt.Fprintf(stdout, "metrics: %d snapshot(s)\n", coll.Len())
		if err := coll.Series(string(backend)).WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "mdstsim:", err)
			return 1
		}
	}
	if *svgPath != "" && res.Tree != nil {
		var svg bytes.Buffer
		title := fmt.Sprintf("%s n=%d m=%d deg(T)=%d backend=%s", name, g.N(), g.M(), res.Tree.MaxDegree(), backend)
		viz.Render(&svg, g, res.Tree, viz.Options{Layout: *layout, Title: title})
		if err := os.WriteFile(*svgPath, svg.Bytes(), 0o644); err != nil {
			fmt.Fprintln(stderr, "mdstsim:", err)
			return 1
		}
	}
	if !res.Legit.OK() {
		return 1
	}
	return 0
}
