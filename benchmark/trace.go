package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/netrun"
	"mdst/internal/paperproto"
	"mdst/internal/sim"
	"mdst/internal/spanning"
)

// The traced repetition replays the harness's sim and tcp drivers here,
// in the benchmark, with every protocol node behind a timing shim: the
// program itself carries no tracing. The replay mirrors the harness step
// for step (network build, the seed^0x5eed corruption draw, the
// quiescence window, the certificate loop) for the options the workloads
// use, and execute checks that every sim run reproduces the untraced
// counts exactly.

// node is what both protocol implementations provide: the shim must
// forward every optional interface the runners probe for.
type node interface {
	sim.Process
	sim.Fingerprinter
	sim.StateVersioner
	sim.StateSizer
	sim.RetryAware
	sim.EventProcess
}

var (
	_ node = (*core.Node)(nil)
	_ node = (*paperproto.Node)(nil)
)

// handlerClock sums the time spent inside protocol handlers.
type handlerClock struct {
	tick, recv, fp    time.Duration
	ticks, recvs, fps int64
}

func (c *handlerClock) busy() time.Duration { return c.tick + c.recv + c.fp }

func (c *handlerClock) add(o *handlerClock) {
	c.tick += o.tick
	c.recv += o.recv
	c.fp += o.fp
	c.ticks += o.ticks
	c.recvs += o.recvs
	c.fps += o.fps
}

// timedProc is the timing shim around one protocol node. Per-call times
// are summed into its clock, never recorded as spans of their own.
type timedProc struct {
	node
	clk *handlerClock
}

func (p *timedProc) Tick(ctx *sim.Context) {
	t := time.Now()
	p.node.Tick(ctx)
	p.clk.tick += time.Since(t)
	p.clk.ticks++
}

func (p *timedProc) Receive(ctx *sim.Context, from sim.NodeID, m sim.Message) {
	t := time.Now()
	p.node.Receive(ctx, from, m)
	p.clk.recv += time.Since(t)
	p.clk.recvs++
}

func (p *timedProc) Fingerprint() uint64 {
	t := time.Now()
	f := p.node.Fingerprint()
	p.clk.fp += time.Since(t)
	p.clk.fps++
	return f
}

// protocol is one protocol implementation as the traced drivers use it
// (the harness keeps its own table of these unexported).
type protocol struct {
	layer   string // metric prefix
	clock   int    // index into tracer.clocks
	newNode func(id int, nbrs []int, cfg core.Config) node
	corrupt func(nd node, rng *rand.Rand, idSpace int)
	// preload writes the legitimate configuration of tree, or of the
	// Fürer–Raghavachari tree when tree is nil.
	preload func(g *graph.Graph, procs []node, cfg core.Config, tree *spanning.Tree) error
	legit   func(g *graph.Graph, procs []node) bool
	tree    func(g *graph.Graph, procs []node) (*spanning.Tree, error)
	// stats returns searches launched, exchanges completed and exchange
	// hops aborted.
	stats func(procs []node) (launched, exchanges, aborted int)
	kinds []string
}

var protocols = [2]protocol{
	{
		layer: "core", clock: 0,
		newNode: func(id int, nbrs []int, cfg core.Config) node { return core.NewNode(id, nbrs, cfg) },
		corrupt: func(nd node, rng *rand.Rand, n int) { nd.(*core.Node).Corrupt(rng, n) },
		preload: func(g *graph.Graph, procs []node, cfg core.Config, tree *spanning.Tree) error {
			if tree == nil {
				return harness.Preload(g, coreNodes(procs), cfg)
			}
			return harness.PreloadFromTree(g, coreNodes(procs), cfg, tree)
		},
		legit: func(g *graph.Graph, procs []node) bool { return core.CheckLegitimacy(g, coreNodes(procs)).OK() },
		tree: func(g *graph.Graph, procs []node) (*spanning.Tree, error) {
			return core.ExtractTree(g, coreNodes(procs))
		},
		stats: func(procs []node) (int, int, int) {
			s := core.AggregateStats(coreNodes(procs))
			return s.SearchesLaunched, s.ExchangesComplete, s.ChainsAborted
		},
		kinds: core.ReductionKinds(),
	},
	{
		layer: "paperproto", clock: 1,
		newNode: func(id int, nbrs []int, cfg core.Config) node { return paperproto.NewNode(id, nbrs, cfg) },
		corrupt: func(nd node, rng *rand.Rand, n int) { nd.(*paperproto.Node).Corrupt(rng, n) },
		preload: func(g *graph.Graph, procs []node, cfg core.Config, tree *spanning.Tree) error {
			if tree == nil {
				return harness.PreloadLiteral(g, literalNodes(procs), cfg)
			}
			return harness.PreloadLiteralFromTree(g, literalNodes(procs), cfg, tree)
		},
		legit: func(g *graph.Graph, procs []node) bool {
			return paperproto.CheckLegitimacy(g, literalNodes(procs)).OK()
		},
		tree: func(g *graph.Graph, procs []node) (*spanning.Tree, error) {
			return paperproto.ExtractTree(g, literalNodes(procs))
		},
		stats: func(procs []node) (int, int, int) {
			s := paperproto.AggregateStats(literalNodes(procs))
			return s.SearchesLaunched, s.ExchangesComplete, s.ChoreoAborted
		},
		kinds: paperproto.ReductionKinds(),
	},
}

func protocolOf(v harness.Variant) protocol {
	if v == harness.VariantLiteral {
		return protocols[1]
	}
	return protocols[0]
}

func coreNodes(procs []node) []*core.Node {
	out := make([]*core.Node, len(procs))
	for i, p := range procs {
		out[i] = p.(*core.Node)
	}
	return out
}

func literalNodes(procs []node) []*paperproto.Node {
	out := make([]*paperproto.Node, len(procs))
	for i, p := range procs {
		out[i] = p.(*paperproto.Node)
	}
	return out
}

// span is one timed interval at a layer boundary. Spans of one run share
// Trace; Parent is the enclosing span (0: none). Simulator rounds are one
// span each, with the round's handler calls summed into it.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent,omitempty"`
	Trace    int    `json:"trace"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Start    int64  `json:"startNs"`
	Dur      int64  `json:"durNs"`
	Round    int    `json:"round,omitempty"`
	Handler  int64  `json:"handlerNs,omitempty"`
	Ticks    int64  `json:"ticks,omitempty"`
	Receives int64  `json:"receives,omitempty"`
	Events   int64  `json:"events,omitempty"`
}

// tracer collects one traced repetition: self time per layer boundary,
// counters and spans, all in memory until the benchmark ends. A tracer
// belongs to one goroutine; parallel workers fork their own and merge.
type tracer struct {
	epoch  time.Time
	nextID int
	spans  []span
	// self is the time spent at each boundary minus the handler and
	// fingerprint time measured inside it (those sit in clocks).
	self   map[string]time.Duration
	count  map[string]float64
	clocks [2]handlerClock // by protocol.clock

	maxQueue      int
	goroutinesMax int
	// tcp: the run budget is process CPU instead of wall time, because a
	// tick-paced cluster idles most of its wall time.
	tcp    bool
	rtts   []time.Duration
	probes []float64 // detector epochs at each certificate

	// Filled in by execute around the whole repetition.
	wall, cpu, gcCPU time.Duration
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), self: map[string]time.Duration{}, count: map[string]float64{}}
}

// fork returns an empty tracer on the same clock for a parallel worker.
func (tr *tracer) fork() *tracer {
	t := newTracer()
	t.epoch = tr.epoch
	return t
}

// merge folds a forked tracer into tr.
func (tr *tracer) merge(t *tracer) {
	off := tr.nextID
	for _, s := range t.spans {
		s.ID += off
		if s.Parent != 0 {
			s.Parent += off
		}
		tr.spans = append(tr.spans, s)
	}
	tr.nextID += t.nextID
	for k, v := range t.self {
		tr.self[k] += v
	}
	for k, v := range t.count {
		tr.count[k] += v
	}
	for i := range tr.clocks {
		tr.clocks[i].add(&t.clocks[i])
	}
	tr.maxQueue = max(tr.maxQueue, t.maxQueue)
	tr.goroutinesMax = max(tr.goroutinesMax, t.goroutinesMax)
	tr.tcp = tr.tcp || t.tcp
	tr.rtts = append(tr.rtts, t.rtts...)
	tr.probes = append(tr.probes, t.probes...)
}

func (tr *tracer) newID() int {
	tr.nextID++
	return tr.nextID
}

func (tr *tracer) handlerBusy() time.Duration { return tr.clocks[0].busy() + tr.clocks[1].busy() }

// runSpan is the open top-level span of one run.
type runSpan struct {
	id, trace int
	start     time.Time
}

func (tr *tracer) open(trace int) *runSpan {
	return &runSpan{id: tr.newID(), trace: trace, start: time.Now()}
}

func (tr *tracer) close(r *runSpan, label string) {
	tr.spans = append(tr.spans, span{ID: r.id, Trace: r.trace, Name: label, Layer: "harness",
		Start: r.start.Sub(tr.epoch).Nanoseconds(), Dur: time.Since(r.start).Nanoseconds()})
	tr.goroutinesMax = max(tr.goroutinesMax, runtime.NumGoroutine())
}

// phase times f as a child span of run named key ("layer.boundary") and
// attributes its time, minus the handler time measured inside, to key.
// f receives the phase's span ID for spans nested below it.
func (tr *tracer) phase(run *runSpan, key string, f func(id int)) {
	id := tr.newID()
	h0 := tr.handlerBusy()
	t0 := time.Now()
	f(id)
	d := time.Since(t0)
	inner := tr.handlerBusy() - h0
	tr.self[key] += d - inner
	layer, _, _ := strings.Cut(key, ".")
	tr.spans = append(tr.spans, span{ID: id, Parent: run.id, Trace: run.trace, Name: key, Layer: layer,
		Start: t0.Sub(tr.epoch).Nanoseconds(), Dur: d.Nanoseconds(), Handler: inner.Nanoseconds()})
}

// rounds records one span per simulator round, summing the handler calls
// made during the round into it.
type rounds struct {
	tr     *tracer
	clk    *handlerClock
	parent int
	trace  int
	n      int
	mark   handlerClock // clk at the round's start
}

func (r *rounds) begin() { r.mark = *r.clk }

func (r *rounds) end(start time.Time, events int64) {
	d := time.Since(start)
	r.n++
	r.tr.count["sim.rounds"]++
	r.tr.count["sim.round_ns"] += float64(d.Nanoseconds())
	c := *r.clk
	r.tr.spans = append(r.tr.spans, span{ID: r.tr.newID(), Parent: r.parent, Trace: r.trace,
		Name: "sim.round", Layer: "sim", Start: start.Sub(r.tr.epoch).Nanoseconds(), Dur: d.Nanoseconds(),
		Round: r.n, Handler: (c.tick + c.recv - r.mark.tick - r.mark.recv).Nanoseconds(),
		Ticks: c.ticks - r.mark.ticks, Receives: c.recvs - r.mark.recvs, Events: events})
}

// timedSched times each RunRound of the compat core's scheduler.
type timedSched struct {
	inner  sim.Scheduler
	rounds *rounds
}

func (s *timedSched) RunRound(n *sim.Network) int {
	s.rounds.begin()
	t := time.Now()
	ev := s.inner.RunRound(n)
	s.rounds.end(t, int64(ev))
	return ev
}

// initial writes spec's initial configuration into procs as the harness
// does: corruptions are drawn from a RNG seeded with seed^0x5eed.
func (tr *tracer) initial(run *runSpan, spec harness.RunSpec, p protocol, cfg core.Config, procs []node) error {
	n := len(procs)
	rng := rand.New(rand.NewSource(spec.Seed ^ 0x5eed))
	switch spec.Start {
	case harness.StartCorrupt:
		tr.phase(run, "harness.corrupt", func(int) {
			for _, nd := range procs {
				p.corrupt(nd, rng, n)
			}
		})
	case harness.StartLegitimate, harness.StartPath:
		var err error
		tr.phase(run, "harness.preload", func(int) {
			var tree *spanning.Tree
			if spec.Start == harness.StartPath {
				if tree, err = harness.PathTree(spec.Graph); err != nil {
					return
				}
			}
			err = p.preload(spec.Graph, procs, cfg, tree)
		})
		if err != nil {
			return err
		}
		tr.phase(run, "harness.corrupt", func(int) {
			for _, v := range spec.CorruptTargets {
				if v >= 0 && v < n {
					p.corrupt(procs[v], rng, n)
				}
			}
			perm := rng.Perm(n)
			for i := 0; i < spec.CorruptNodes && i < n; i++ {
				p.corrupt(procs[perm[i]], rng, n)
			}
		})
	}
	return nil
}

// judge runs the legitimacy check and tree extraction as timed phases.
func (tr *tracer) judge(run *runSpan, p protocol, g *graph.Graph, procs []node) (legit bool, maxDeg int) {
	tr.phase(run, p.layer+".legit", func(int) { legit = p.legit(g, procs) })
	maxDeg = -1
	tr.phase(run, p.layer+".extract", func(int) {
		if t, err := p.tree(g, procs); err == nil {
			maxDeg = t.MaxDegree()
		}
	})
	launched, exchanges, aborted := p.stats(procs)
	tr.count["search.launched"] += float64(launched)
	tr.count["search.exchanges"] += float64(exchanges)
	tr.count[p.layer+".aborted"] += float64(aborted)
	return legit, maxDeg
}

// simRun replays harness.Run's sim backend on spec.
func (tr *tracer) simRun(run *runSpan, spec harness.RunSpec, label string) outcome {
	g := spec.Graph
	n := g.N()
	p := protocolOf(spec.Variant)
	cfg := core.DefaultConfig(n)
	clk := &tr.clocks[p.clock]
	procs := make([]node, n)
	var net *sim.Network
	tr.phase(run, "sim.build", func(int) {
		net = sim.NewNetwork(g, func(id sim.NodeID, nbrs []sim.NodeID) sim.Process {
			procs[id] = p.newNode(id, nbrs, cfg)
			return &timedProc{node: procs[id], clk: clk}
		}, spec.Seed)
		if spec.DropRate > 0 {
			net.SetDropRate(spec.DropRate)
		}
	})
	if err := tr.initial(run, spec, p, cfg, procs); err != nil {
		// The harness reports a failed preload as an illegitimate run.
		return outcome{label: label, maxDeg: -1, g: g}
	}

	maxRounds := spec.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 200*n + 20000
	}
	quiesce := harness.QuiesceWindowRounds(n, cfg.EffectiveRetryPeriod())
	var res sim.RunResult
	key := "sim.run"
	if spec.Engine == harness.EngineEvent {
		key = "sim.event_run"
	}
	tr.phase(run, key, func(id int) {
		rs := &rounds{tr: tr, clk: clk, parent: id, trace: run.trace}
		if spec.Engine != harness.EngineEvent {
			res = net.Run(sim.RunConfig{
				Scheduler:     &timedSched{inner: harness.NewScheduler(spec.Scheduler), rounds: rs},
				MaxRounds:     maxRounds,
				QuiesceRounds: quiesce,
				ActiveKinds:   p.kinds,
			})
			return
		}
		// The event core has no scheduler to wrap: a round ends at its
		// OnRound callback.
		start, events := time.Now(), int64(0)
		rs.begin()
		res = net.RunEvents(sim.EventConfig{
			Policy:        harness.EventPolicyFor(spec.Scheduler),
			MaxRounds:     maxRounds,
			QuiesceRounds: quiesce,
			ActiveKinds:   p.kinds,
			OnRound: func(int) bool {
				ev := net.Metrics().Events
				rs.end(start, ev-events)
				start, events = time.Now(), ev
				rs.begin()
				return true
			},
		})
	})
	legit, maxDeg := tr.judge(run, p, g, procs)

	m := net.Metrics()
	var msgs int64
	for _, c := range m.SentByKind {
		msgs += c
	}
	tr.count["sim.events"] += float64(m.Events)
	tr.count["sim.tail_events"] += float64(m.Events - m.EventsAtLastChange)
	tr.count["sim.tail_node_rounds"] += float64(n * (res.Rounds - m.LastChangeRound))
	tr.count["sim.messages"] += float64(msgs)
	tr.count["sim.search_messages"] += float64(m.SentByKind[core.KindSearch])
	tr.maxQueue = max(tr.maxQueue, m.MaxQueueLen)
	return outcome{
		label:     label,
		converged: res.Converged,
		legit:     legit,
		maxDeg:    maxDeg,
		rounds:    res.Rounds,
		messages:  msgs,
		g:         g,
	}
}

// tcpProbe is the tcp driver's detection interval (the harness default).
const tcpProbe = 25 * time.Millisecond

// tcpRun replays harness.Run's tcp backend on spec: a netrun.Cluster of
// shimmed nodes, probed over its control channel into a detect.Detector
// until a certificate is issued and the stopped cluster is legitimate.
func (tr *tracer) tcpRun(run *runSpan, spec harness.RunSpec, label string) outcome {
	g := spec.Graph
	n := g.N()
	p := protocolOf(spec.Variant)
	cfg := core.DefaultConfig(n)
	tr.tcp = true
	fail := func(err error) outcome { return outcome{label: label, err: err.Error(), maxDeg: -1} }

	// One clock per node: each node loop is its own goroutine. They are
	// folded into the tracer once the cluster has stopped.
	clocks := make([]handlerClock, n)
	procs := make([]node, n)
	begin := time.Now()
	c := netrun.NewCluster(g, func(id int, nbrs []int) sim.Process {
		procs[id] = p.newNode(id, nbrs, cfg)
		return &timedProc{node: procs[id], clk: &clocks[id]}
	}, netrun.Config{
		TickInterval: spec.Tuning.Tick,
		ActiveKinds:  p.kinds,
		BatchSize:    spec.Tuning.BatchSize,
		BatchMaxWait: spec.Tuning.BatchMaxWait,
	})
	if err := tr.initial(run, spec, p, cfg, procs); err != nil {
		return outcome{label: label, maxDeg: -1, g: g}
	}
	unit := spec.Tuning.Tick + spec.Tuning.BatchMaxWait
	window := time.Duration(harness.QuiesceWindowRounds(n, cfg.EffectiveRetryPeriod())) * unit
	det := detect.New(detect.Config{Window: int(window/tcpProbe) + 1, Backend: string(harness.BackendTCP)})

	var err error
	tr.phase(run, "netrun.start", func(int) { err = c.Start() })
	if err != nil {
		return fail(err)
	}
	probe, err := netrun.DialProbe(c.ControlAddr())
	if err != nil {
		c.Stop()
		return fail(err)
	}
	deadline := begin.Add(spec.Tuning.Deadline)
	certified, running := false, true
	ticker := time.NewTicker(tcpProbe)
	defer ticker.Stop()
	for !certified && time.Now().Before(deadline) {
		<-ticker.C
		t0 := time.Now()
		s, err := probe.Sample()
		rtt := time.Since(t0)
		if err != nil {
			probe.Close()
			c.Stop()
			return fail(err)
		}
		tr.rtts = append(tr.rtts, rtt)
		tr.self["netrun.probe"] += rtt
		t1 := time.Now()
		_, issued := det.Observe(s)
		tr.self["detect.observe"] += time.Since(t1)
		tr.count["detect.observes"]++
		tr.spans = append(tr.spans, span{ID: tr.newID(), Parent: run.id, Trace: run.trace,
			Name: "netrun.probe", Layer: "netrun", Start: t0.Sub(tr.epoch).Nanoseconds(), Dur: rtt.Nanoseconds()})
		tr.goroutinesMax = max(tr.goroutinesMax, runtime.NumGoroutine())
		if !issued {
			continue
		}
		probe.Close()
		tr.phase(run, "netrun.stop", func(int) { c.Stop() })
		running = false
		if p.legit(g, procs) {
			certified = true
			tr.probes = append(tr.probes, float64(det.Epoch()))
			break
		}
		// Certified stability without legitimacy: resume, as the
		// harness does.
		det.Reset()
		if err := c.Start(); err != nil {
			return fail(err)
		}
		running = true
		if probe, err = netrun.DialProbe(c.ControlAddr()); err != nil {
			c.Stop()
			return fail(err)
		}
	}
	if running {
		probe.Close()
		c.Stop()
	}
	for i := range clocks {
		tr.clocks[p.clock].add(&clocks[i])
	}
	legit, maxDeg := tr.judge(run, p, g, procs)
	tr.count["netrun.sent"] += float64(c.Sent())
	tr.count["netrun.frames"] += float64(c.FramesWritten())
	tr.count["netrun.drops"] += float64(c.Dropped())
	o := outcome{
		label:     label,
		converged: certified && legit,
		legit:     legit,
		maxDeg:    maxDeg,
		rounds:    int(det.Epoch()),
		messages:  c.Sent(),
		wall:      time.Since(begin),
		g:         g,
	}
	if !certified {
		o.wall = spec.Tuning.Deadline
	}
	return o
}

// perLayer derives the per-layer metrics from the traced repetition tr
// and the untraced repetitions (the runtime's counters, the run times and
// the scenario pool's figures come from the untraced ones).
func perLayer(tr *tracer, reps []repSample, rt runtimeReading, graphBuilds []float64, untracedWall float64, workers int) map[string]metric {
	// A layer's _s metric is its self time summed over the traced
	// repetition (over all workers on matrix); a share is self time over
	// the repetition's budget: wall time times workers, or process CPU
	// time on tcp.
	budget := tr.wall.Seconds() * float64(workers)
	if tr.tcp {
		budget = tr.cpu.Seconds()
	}
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), budget) }
	c, l := tr.clocks[0], tr.clocks[1]
	var attributed time.Duration
	if tr.tcp {
		// Only what runs on a CPU counts: handlers (and their state hashing)
		// on the node loops, GC, and the driver's CPU-bound phases. Socket
		// waits are not attributed; what remains is netrun's own CPU.
		attributed = c.busy() + l.busy() + tr.gcCPU
		for _, k := range []string{"harness.preload", "harness.corrupt", "core.legit", "core.extract",
			"paperproto.legit", "paperproto.extract", "detect.observe"} {
			attributed += tr.self[k]
		}
	} else {
		attributed = c.busy() + l.busy()
		for _, d := range tr.self {
			attributed += d
		}
	}

	var runMS, busy, unaccounted, allocs, bytes []float64
	for _, s := range reps {
		for _, o := range s.outcomes {
			if o.wall > 0 {
				runMS = append(runMS, float64(o.wall.Nanoseconds())/1e6)
			}
		}
		avail := s.wall.Seconds() * float64(workers)
		busy = append(busy, s.runWall.Seconds()/avail)
		unaccounted = append(unaccounted, avail-s.runWall.Seconds())
		allocs = append(allocs, float64(s.mallocs)/float64(s.messages))
		bytes = append(bytes, float64(s.alloc)/float64(s.messages))
	}
	rttUS := make([]float64, len(tr.rtts))
	for i, d := range tr.rtts {
		rttUS[i] = float64(d.Nanoseconds()) / 1e3
	}
	pctl := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, q)
	}
	netrunSelf := time.Duration(0)
	if tr.tcp {
		netrunSelf = tr.cpu - attributed
	}
	secs := func(key string) float64 { return tr.self[key].Seconds() }
	simSelf := tr.self["sim.run"] + tr.self["sim.event_run"]
	return map[string]metric{
		"graph.build_s":     {median(graphBuilds), "s"},
		"mdstseq.approx_s":  {secs("mdstseq.approx"), "s"},
		"harness.preload_s": {secs("harness.preload"), "s"},
		"harness.corrupt_s": {secs("harness.corrupt"), "s"},
		"harness.churn_s":   {secs("harness.churn"), "s"},

		"core.tick_ns":        {perCall(c.tick, c.ticks), "ns"},
		"core.receive_ns":     {perCall(c.recv, c.recvs), "ns"},
		"core.tick_calls":     {float64(c.ticks), "count"},
		"core.receive_calls":  {float64(c.recvs), "count"},
		"core.handler_share":  {share(c.tick + c.recv), "ratio"},
		"core.legit_s":        {secs("core.legit"), "s"},
		"core.extract_s":      {secs("core.extract"), "s"},
		"core.search_share":   {ratio(tr.count["sim.search_messages"], tr.count["sim.messages"]), "ratio"},
		"core.exchange_yield": {ratio(tr.count["search.exchanges"], tr.count["search.launched"]), "ratio"},
		"core.chains_aborted": {tr.count["core.aborted"], "count"},

		"paperproto.tick_ns":        {perCall(l.tick, l.ticks), "ns"},
		"paperproto.receive_ns":     {perCall(l.recv, l.recvs), "ns"},
		"paperproto.handler_share":  {share(l.tick + l.recv), "ratio"},
		"paperproto.legit_s":        {secs("paperproto.legit"), "s"},
		"paperproto.extract_s":      {secs("paperproto.extract"), "s"},
		"paperproto.choreo_aborted": {tr.count["paperproto.aborted"], "count"},

		"sim.build_s":                    {secs("sim.build"), "s"},
		"sim.round_ns":                   {ratio(tr.count["sim.round_ns"], tr.count["sim.rounds"]), "ns"},
		"sim.self_ns_per_event":          {ratio(float64(simSelf.Nanoseconds()), tr.count["sim.events"]), "ns"},
		"sim.event_self_s":               {secs("sim.event_run"), "s"},
		"sim.fingerprint_ns":             {perCall(c.fp+l.fp, c.fps+l.fps), "ns"},
		"sim.fingerprint_calls":          {float64(c.fps + l.fps), "count"},
		"sim.events":                     {tr.count["sim.events"], "count"},
		"sim.max_queue_len":              {float64(tr.maxQueue), "count"},
		"sim.tail_events_per_node_round": {ratio(tr.count["sim.tail_events"], tr.count["sim.tail_node_rounds"]), "ratio"},

		"scenario.worker_busy":   {median(busy), "ratio"},
		"scenario.run_p50_ms":    {pctl(runMS, 0.5), "ms"},
		"scenario.run_p90_ms":    {pctl(runMS, 0.9), "ms"},
		"scenario.unaccounted_s": {median(unaccounted), "s"},

		"netrun.frames_per_msg":      {ratio(tr.count["netrun.frames"], tr.count["netrun.sent"]), "ratio"},
		"netrun.drops":               {tr.count["netrun.drops"], "count"},
		"netrun.self_cpu_us_per_msg": {ratio(float64(netrunSelf.Nanoseconds())/1e3, tr.count["netrun.sent"]), "us"},
		"netrun.probe_rtt_p50_us":    {pctl(rttUS, 0.5), "us"},
		"netrun.probe_rtt_p90_us":    {pctl(rttUS, 0.9), "us"},
		"detect.observe_ns":          {ratio(float64(tr.self["detect.observe"].Nanoseconds()), tr.count["detect.observes"]), "ns"},
		"detect.probes_to_cert":      {median(tr.probes), "count"},

		"runtime.gc_cpu_share":      {ratio(rt.gcCPU, rt.totalCPU-rt.idleCPU), "ratio"},
		"runtime.allocs_per_msg":    {median(allocs), "allocs/msg"},
		"runtime.bytes_per_msg":     {median(bytes), "B/msg"},
		"runtime.sched_wait_p50_us": {histQuantile(rt.sched, 0.5) * 1e6, "us"},
		"runtime.sched_wait_p90_us": {histQuantile(rt.sched, 0.9) * 1e6, "us"},
		"runtime.goroutines_max":    {float64(tr.goroutinesMax), "count"},

		"trace.wall_s":   {tr.wall.Seconds(), "s"},
		"trace.overhead": {tr.wall.Seconds()/untracedWall - 1, "ratio"},
		"trace.coverage": {share(attributed), "ratio"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perCall(d time.Duration, calls int64) float64 {
	return ratio(float64(d.Nanoseconds()), float64(calls))
}

// writeSpans writes the spans as JSON lines, then the per-layer result.
func writeSpans(path string, spans []span, res result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(res); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
