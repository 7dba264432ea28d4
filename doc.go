// Package mdst is a from-scratch Go reproduction of "Self-stabilizing
// minimum-degree spanning tree within one from the optimal degree"
// (Blin, Gradinariu Potop-Butucaru, Rovedakis; IPDPS 2009).
//
// The public surface lives in the commands (cmd/mdstsim, cmd/mdstbench,
// cmd/mdstmatrix, cmd/graphgen) and the examples; the library packages
// are under internal/ (graph, spanning, mdstseq, sim, core, paperproto,
// localview, detect, netrun, harness, scenario, benchtab, trace,
// analysis, viz, mc, metrics, auditlog).
// The protocol is one engine, internal/core, with two edge exchanges
// chosen when a node is built: core.NewNode carries out an improving
// exchange as a chain of single-parent moves that keeps a spanning tree
// at every step, and core.NewLiteralNode runs the paper's literal
// Remove/Back choreography of Figures 1-2, whose intermediate
// configurations are not trees. The spanning-tree, maximum-degree,
// cycle-search, suppression, Deblock and UpdateDist modules are shared,
// and the harness variant axis (harness.RunSpec.Variant, `mdstmatrix
// -variants core,literal`) selects the exchange; internal/paperproto
// only keeps the old literal-variant names for the repository
// benchmark. The protocol runs under three pluggable execution backends
// behind one harness orchestration (harness.RunSpec.Backend): "sim",
// the deterministic seeded simulator (sim.Network — the default and the
// only bit-reproducible backend); "live", the goroutine-per-node CSP
// runtime (sim.LiveNetwork); and "tcp", a loopback-socket cluster
// (internal/netrun), one TCP connection per edge. The scenario engine
// exposes the backend as a matrix axis (Spec.Backends, `mdstmatrix
// -backend sim,live,tcp`), runs draw identical workloads and
// corruptions across backends, and cmd/mdstsim makes one run on any of
// them (`mdstsim -backend sim|live|tcp`), every flag mapped onto one
// harness.RunSpec. The live and tcp backends execute on the wall clock:
// their round/message counts vary across repeats, while the legitimacy
// and Δ*+1 degree claims must not.
//
// Convergence detection is in-band (internal/detect): the composed
// protocol is silent, so quiescence is its own observable property. A
// deterministic Dijkstra–Scholten-style detector — per-node state
// versions as quiescence epochs, the combined state fingerprint, and a
// zero message deficit over the protocol's reduction kinds, all frozen
// for a stability window — issues quiescence certificates that both
// wall-clock drivers use to decide when a stop is worth taking. Both
// wall-clock runtimes run each node in the one loop of sim.Board, which
// posts the node's state version and state hash after every step, so a
// node is silent once its posts stop changing. The live driver reads
// those posts in-process without locks (sim.LiveNetwork.ProbeSample),
// the tcp driver over a side-channel control connection
// (netrun.ProbeConn), so neither network is stopped just to look, and
// converging tcp runs take zero restarts. A wall-clock run is bounded
// by harness.BackendTuning.Deadline alone (`-deadline`, 30s by
// default).
//
// The simulator's hot path is incremental end to end, which is what
// lets scenario matrices scale past n=256 (up to the committed n=1024
// cell of BENCH_scale.json): per-node fingerprints are cached and
// re-hashed only when a node's state version moves (sim.StateVersioner,
// bumped by the protocol's guarded writes), the asynchronous-round
// accounting is an epoch-stamped array instead of a per-round map, and
// pending-message counts are maintained per kind. A message hop does no
// lookup and no allocation: a link is addressed by the neighbor's
// position in the sender's sorted neighbor list (sim.Context.SendAt),
// every link records the sender's position in the receiver's list, so
// a delivery hands it to the handler (sim.Context.FromPos) and the
// receiver reads that neighbor's view at the same position, and Search
// tokens come from a pool and go back to it where they die
// (core.TestSearchHopAllocsNothing gates a token's launch, hops and
// deaths at 0 allocations). The protocol keys its own derived values
// on the state version: a node's tree degree, tree_stabilized and
// locally_stabilized are computed once per version
// rather than on every Search hop, tick and Info receipt, and an idle
// tick (the last one moved nothing, and nothing moved since) skips the
// tree and degree modules and re-sends its boxed InfoMsg. An oracle test
// checks after every round that the cached combine equals the combine
// of all node fingerprints hashed anew, another checks after every step
// that a changed state moved its version, that the derived values are
// fresh and that a skipped module run would have been a no-op, and
// `make bench` commits the fingerprint work saved against hashing
// every node at every call (nodes × (rounds + 2) on the baseline run).
// Round accounting under lossy links follows §2 strictly: a dropped
// delivery settles the old-message obligation but never counts as a
// step at the recipient.
//
// One retry policy, core.RetryPolicy, picks the cycle-search retry
// schedule: paper (the default), suppress or backoff
// (core.Config.Retry, the scenario engine's Spec.Retry axis,
// `mdstmatrix -retry paper,suppress,backoff`, `mdstsim -retry NAME`).
// The suppress policy is the protocol's traffic hot path:
// per-initiator duplicate Search-token pruning — a node that already
// launched or forwarded an equivalent token (same fundamental-cycle key
// {initiator edge, deblock target}) within a suppression window drops
// re-arrivals unless its own state changed since — plus batched launch
// pacing. Suppression is a bounded delay, never a permanent block, so
// the outcome (the legitimacy predicate and the Δ*+1 bracket) is
// equivalent, differential-tested on the property-sweep families;
// quiescence windows derive from Config.EffectiveRetryPeriod so a
// suppressed configuration is never certified quiescent before its
// deferred search re-fires. Under the paper policy the schedule is
// paper-literal and every committed baseline is byte-identical.
// BENCH_scale.json commits the paired paper/suppress comparison (~3.4×
// fewer Search-kind messages at n=512), and scenario's
// TestCrossBackendDifferential runs ring+chords n=64 and 96 across sim,
// live and tcp under the suppress policy (`mdstmatrix`'s usage header
// gives the whole 64–256 ladder as one command).
//
// The backoff policy makes the suppression window adaptive
// (core.RetryBackoff, capped at Config.BackoffCapWindow): while a node's
// state version — its local image of the neighborhood version vector —
// is a fixed point, each full pruning window that lapses without an
// equivalent launch doubles the effective window, from the 4×SearchPeriod
// base up to a 16× cap, and any version movement collapses it back to
// the base before the next launch decision, so steady-state retry
// traffic decays geometrically toward zero while fault recovery runs on
// the base schedule. The backoff tier is transient bookkeeping — never
// fingerprinted, never version-bumping — so it observes quiescence
// without perturbing it. Stability windows track the schedule: the sim
// cores derive theirs from the live maximum Node.CurrentRetryPeriod
// (sim.Network.MaxRetryPeriod, re-evaluated only past the static floor),
// the wall-clock drivers take the conservative cap via
// Config.EffectiveRetryPeriod, and the event core parks a backed-off
// node straight through to its recorded pass expiry so a silent network
// costs no wake-ups at all. BENCH_scale.json commits a drift-gated
// steady-state decay section (star-of-cliques n=253, paired seeds):
// post-convergence traffic in the final cap-length window drops 13.7×
// versus the static-window twin, and a node corrupted at the deepest
// tier (retry spacing = the 1024-round cap) re-converges with a
// certificate in 2599 rounds against a 5188-round budget deadline.
// The scenario retry axis is excluded from run seeds like the other
// mode axes, so paper, suppress and backoff cells draw identical
// workloads.
//
// The tcp backend's transport coalesces frames per link
// (netrun.Config.BatchSize/BatchMaxWait, harness.BackendTuning,
// `mdstmatrix -batch/-batchwait`, `mdstsim -backend tcp
// -batch/-batchwait`), and the frame is the unit at every goroutine
// hop: a send appends to the edge direction's pending slice and wakes
// its writer only when a frame opens or fills; the writer holds a
// partial frame for at most max-wait, then writes what is pending as
// frames of up to batch-size messages, one write per frame; the reader
// hands each decoded frame to the receiving node's inbox as one
// sim.Envelope, whose messages sim.Board.Loop receives in order,
// posting after each. Batch size 1
// sends one message per frame. Frames use netrun's
// fixed-layout codec (internal/netrun/codec.go): a message count, then
// per message a one-byte type tag and its fields as varints; the sender
// is known from the connection, not carried. One bufio.Reader reads
// each connection for its lifetime (it buffers ahead; a second reader
// on the same conn loses bytes). Coalescing is a transport concern
// only: the batch=1 vs batch=16 differential test pins identical
// legitimacy and Δ*+1 outcomes. `mdstsim -backend tcp` prints one run's
// frames per message, and the repository benchmark's tcp workload
// measures the transport's cost.
//
// Observability is a control plane over the same runs
// (internal/metrics + internal/auditlog, harness.RunSpec.Collect,
// scenario Spec.Metrics, `mdstmatrix -metrics`, `mdstsim -metrics` on
// every backend, `mdstbench -series`): a metrics.Collector is the one
// way a run is observed on every backend. Each collected run feeds one
// detect.Detector, and one harness function builds every flat JSON/CSV
// snapshot — tree degree, root count and dmax agreement, message counts
// by kind, the degree histogram, suppression counters, and certificate
// progress (version-vector fill, message deficit, stability-window
// position) — from counters the backends already maintain, so a run
// with the plane off is byte-identical to one that never had it (the
// committed matrix and BENCH_scale.json baselines are
// regression-locked on this). The sim driver samples its run loop from
// the initial configuration (epoch 0) on, reusing the incremental
// fingerprint, and reads its nodes on every sample; the live and tcp
// drivers sample at each detector observation and read the send
// counters in-process (lock-free, safe while the network runs), and
// the nodes once stopped. The tcp control channel carries only the
// quiescence probe. Collector.Series renders the stream as a
// trace.Series — the E2/E5 figure series are such series. A collected
// run also chains every accepted tree mutation: a parent change,
// blocking-edge exchange or deblock-triggered reset appends {round,
// node, kind, old, new} to a per-run hash chain (splitmix folding via detect.MixNode,
// node-ID-major, rounds excluded so wall-clock interleavings agree);
// the chain head rides in harness.Result, and two observers of the
// same seeded run must report byte-identical heads — a cross-backend
// differential test pins a legitimate start to the genesis head on all
// three backends, and the scenario engine pins chain heads across
// worker counts.
//
// The deterministic simulator itself has two execution cores behind
// one harness knob (harness.RunSpec.Engine, scenario Spec.Engines,
// `mdstsim -engine`, `mdstmatrix -engines compat,event`). The compat
// core (sim.Network.Run) is the original per-round full sweep — every
// node ticks every round — and is what every committed byte-identity
// baseline was generated with. The event core (sim.Network.RunEvents)
// is a discrete-event scheduler over the same links and processes:
// pending deliveries and per-node tick timers sit in a calendar queue
// bucketed by virtual round, only nodes with work are touched, idle
// nodes park until a message or a due search retry wakes them
// (sim.EventProcess), and empty stretches of virtual time — including
// the whole 2n+Θ(1) quiescence window once the network is silent — are
// fast-forwarded instead of swept. Rounds remain a derived view of
// virtual time, so round-denominated outputs and certificates keep
// their meaning; the two cores are differential-tested for outcome
// equivalence (legitimacy + Δ*+1) on paired seeds. Frontier-only
// scheduling is what makes n=16384 reachable: BENCH_scale.json commits
// event-core closure cells at n=4096 and n=16384 — the canonical
// Hamiltonian-path configuration on ring+chords (harness.StartPath) is
// a degree-2 global optimum and a protocol fixed point, so the run
// measures pure closure: the network parks after one settling tick and
// tail work per node per round is ~1e-4 versus the compat core's floor
// of 1. The global observer around such a run — the preload
// (harness.PreloadFromTree) and the legitimacy check
// (core.CheckLegitimacy) — costs O(n+m): both read every depth from one
// spanning.(*Tree).Depths pass, so a closure run's time goes to the
// event core and the network build. Corrupt-start recovery at that
// scale is protocol-infeasible, not simulator-limited — a believed
// degree > 2 re-arms every chord's Θ(n)-message search every
// SearchPeriod rounds, Θ(n²) traffic per window — so the recovery
// ladder stays at the committed compat sizes.
//
// Every run that stops on quiescence is driven by internal/harness,
// through one driver per execution model. The simulator has one loop:
// harness.Run builds a network and its initial configuration and drives
// it, and harness.RunOn drives a network built elsewhere (the churn
// executor's migrated network, the decay cell's fault recovery) exactly
// the same way. The live and tcp
// backends share one detection loop that sees each transport through a
// small interface (start, stop, probe, traffic counters), so both
// certify, check legitimacy and resume identically.
//
// Experiment execution layers on the internal/scenario matrix engine: a
// declarative Spec (graph families × sizes × schedulers × start modes ×
// variants × backends × retry policies × fault models × seeds) expands
// into a run matrix executed across GOMAXPROCS workers, each run seeded
// from a hash of its matrix coordinates so results are byte-identical
// at any parallelism. The churn, lossy-link and targeted-corruption
// fault injections are shared scenario.FaultModel values; every
// internal/benchtab experiment table (E1–E12) and the cmd/mdstmatrix
// CLI are thin renderers over the engine.
//
// CI lives in .github/workflows/ci.yml: every push/PR runs the full
// `make ci` gate (lint — gofmt + vet + pinned staticcheck, soft-fail
// when the tool is absent offline — build + tests + -race + smoke), a
// baseline-drift job that regenerates the committed 108-run matrix JSON,
// the 216-run literal-exchange matrix JSON and BENCH_scale.json and
// fails on any byte difference (uploading the
// regenerated artifacts on failure for inspection), a soft-fail
// govulncheck job re-run weekly on a schedule against fresh advisories,
// and a 1x-benchtime pass over every Go benchmark. One workflow runs
// per ref (superseded pushes are cancelled) and every job carries a
// timeout.
// See ROADMAP.md for the open work and CHANGES.md for what each change
// did.
package mdst
