// Command mdstnet runs the self-stabilizing MDST protocol over real TCP
// connections on the loopback interface: one goroutine per node, one
// socket per edge, varint-encoded messages — the paper's asynchronous
// reliable-FIFO message passing realized by an actual network stack.
//
// It is a thin front-end over the harness's tcp execution backend (the
// same driver the scenario engine uses for `mdstmatrix -backend tcp`),
// so the CLI carries no cluster plumbing of its own. Convergence is
// detected in-band: the driver polls the cluster's side-channel control
// connection and stops it only once internal/detect issues a quiescence
// certificate, which the command reports alongside the restart count
// (zero on converging runs — the cluster is never stopped just to look).
//
// Usage:
//
//	mdstnet -family wheel -n 12
//	mdstnet -family gnp -n 24 -variant literal -corrupt
//	mdstnet -family wheel -n 12 -budget 8      # deadline scaled from the paired sim run
//	mdstnet -family gnp -n 64 -retry suppress  # duplicate Search-token pruning
//	mdstnet -family gnp -n 128 -batch 16 -batchwait 1ms   # coalesced wire frames
//	mdstnet -family wheel -n 12 -metrics       # metrics time series (JSON) + audit chain head
//	mdstnet -family gnp -n 64 -cpuprofile cpu.pprof -memprofile mem.pprof   # runtime/pprof profiles
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"mdst/internal/core"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/mdstseq"
	"mdst/internal/metrics"
	"mdst/internal/profflag"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("mdstnet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	family := fs.String("family", "gnp", "workload family (see graphgen -list)")
	n := fs.Int("n", 16, "approximate node count")
	seed := fs.Int64("seed", 1, "seed for generation and corruption")
	variant := fs.String("variant", "core", "protocol implementation: core|literal")
	corrupt := fs.Bool("corrupt", false, "randomize every node state before starting")
	probe := fs.Duration("probe", 0, "convergence-detection sampling interval over the control connection (0 = driver default)")
	deadline := fs.Duration("deadline", 10*time.Second, "total wall-clock budget (ignored when -budget is set)")
	budget := fs.Float64("budget", 0, "convergence-aware deadline: scale the paired sim run's observed rounds × tick by this factor (0 = fixed -deadline)")
	tick := fs.Duration("tick", 0, "gossip period (0 = runtime default)")
	retry := fs.String("retry", "paper", "cycle-search retry policy: paper|suppress|backoff (suppress prunes duplicate Search tokens and batches launches; backoff also doubles the pruning window each full unchanged window, resetting on any neighborhood change, and the stability window and budget deadline take its conservative cap)")
	batch := fs.Int("batch", 0, "messages coalesced per wire frame (0/1 = one message per frame)")
	batchwait := fs.Duration("batchwait", 0, "max time a partially filled frame is held open (0 = flush immediately)")
	metricsOn := fs.Bool("metrics", false, "sample the metrics stream at each detection probe and dump it as JSON alongside the result, plus the audit chain head")
	profiles := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProfiles, err := profiles.Start()
	if err != nil {
		fmt.Fprintln(stderr, "mdstnet:", err)
		return 1
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(stderr, "mdstnet:", err)
			code = 1
		}
	}()

	fam, okFam := graph.LookupFamily(*family)
	if !okFam {
		fmt.Fprintln(stderr, "mdstnet: unknown -family", *family)
		return 2
	}
	if *n < 1 {
		fmt.Fprintln(stderr, "mdstnet: -n must be at least 1")
		return 2
	}
	switch *variant {
	case "core", "literal":
	default:
		fmt.Fprintln(stderr, "mdstnet: unknown -variant", *variant)
		return 2
	}
	if *probe < 0 || *tick < 0 || *budget < 0 {
		fmt.Fprintln(stderr, "mdstnet: -probe, -tick and -budget must be non-negative")
		return 2
	}
	if *batch < 0 || *batchwait < 0 {
		fmt.Fprintln(stderr, "mdstnet: -batch and -batchwait must be non-negative")
		return 2
	}
	if *deadline <= 0 && *budget == 0 {
		// A zero budget used to run zero phases silently; reject it loudly
		// (the harness driver would otherwise substitute its 30s default).
		fmt.Fprintln(stderr, "mdstnet: -deadline must be positive (or set -budget)")
		return 2
	}
	policy, err := core.ParseRetryPolicy(*retry)
	if err != nil {
		fmt.Fprintln(stderr, "mdstnet:", err)
		return 2
	}
	if *budget > 0 {
		*deadline = 0 // let the budget mode size the deadline
	}
	g := fam.Build(*n, rand.New(rand.NewSource(*seed)))
	cfg := core.DefaultConfig(g.N())
	cfg.Retry = policy
	fmt.Fprintf(stdout, "graph: n=%d m=%d family=%s\n", g.N(), g.M(), *family)

	start := harness.StartClean
	if *corrupt {
		start = harness.StartCorrupt
	}
	var coll *metrics.Collector
	if *metricsOn {
		coll = &metrics.Collector{}
	}
	res, err := harness.Run(harness.RunSpec{
		Graph:   g,
		Config:  cfg,
		Variant: harness.Variant(*variant),
		Start:   start,
		Seed:    *seed,
		Backend: harness.BackendTCP,
		Collect: coll,
		Tuning: harness.BackendTuning{
			Tick:         *tick,
			Probe:        *probe,
			Deadline:     *deadline,
			Budget:       *budget,
			BatchSize:    *batch,
			BatchMaxWait: *batchwait,
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, "mdstnet:", err)
		return 1
	}
	fmt.Fprintf(stdout, "legitimate: %v after %d probe(s), %v wall time (deadline %v)\n",
		res.Legit.OK(), res.Rounds, res.WallTime.Round(time.Millisecond),
		res.Deadline.Round(time.Millisecond))
	if res.Cert != nil {
		fmt.Fprintf(stdout, "%s\n", res.Cert)
		fmt.Fprintf(stdout, "cluster restarts: %d\n", res.Restarts)
	} else {
		fmt.Fprintln(stdout, "no quiescence certificate (deadline reached)")
	}

	if res.Tree == nil {
		fmt.Fprintln(stderr, "mdstnet: no tree:", res.Legit.Detail)
		return 1
	}
	lo := mdstseq.LowerBoundDelta(g)
	fmt.Fprintf(stdout, "tree degree: %d (Δ* >= %d, bound Δ*+1)\n", res.Tree.MaxDegree(), lo)
	if res.Dropped > 0 {
		fmt.Fprintf(stdout, "backpressure drops: %d\n", res.Dropped)
	}
	if *batch > 1 && res.TotalMessages > 0 {
		fmt.Fprintf(stdout, "wire frames: %d (%.3f frames/message)\n",
			res.Frames, float64(res.Frames)/float64(res.TotalMessages))
	}
	if res.SearchesSuppressed > 0 {
		fmt.Fprintf(stdout, "searches suppressed: %d\n", res.SearchesSuppressed)
	}
	if coll != nil {
		fmt.Fprintf(stdout, "audit chain: %016x over %d mutation(s)\n", res.AuditChain, res.AuditRecords)
		fmt.Fprintf(stdout, "metrics: %d snapshot(s)\n", coll.Len())
		if err := coll.Series("tcp").WriteJSON(stdout); err != nil {
			fmt.Fprintln(stderr, "mdstnet:", err)
			return 1
		}
	}
	if !res.Legit.OK() {
		return 1
	}
	return 0
}
