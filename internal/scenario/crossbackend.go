package scenario

import (
	"encoding/json"
	"fmt"
	"time"

	"mdst/internal/core"
	"mdst/internal/harness"
)

// Cross-backend medium-n comparison: the committed 64..256 paired table
// that exercises the PR-4 control channel (quiescence certificates over
// the tcp side channel, concurrent probes on the live runtime) under
// real contention, enabled by the search-traffic suppression hot path
// cutting the token volume the wall-clock backends must carry and by
// the PR-6 frame coalescing letting the tcp backend keep its fast 2ms
// tick past n=128.
//
// The committed artifact (internal/scenario/testdata/
// crossbackend_medium.json) holds only the columns that are
// deterministic (family, n, edges, degreeBound — pure functions of the
// seed) or invariant claims (converged, legitimate, withinBound — the
// Theorem 2 guarantee every backend must reproduce on every repeat).
// Rounds, messages and wall time vary across wall-clock repeats and are
// deliberately absent; the cross-backend determinism contract is
// documented in ROADMAP.md (PR 3).

// CrossBackendSpec configures CrossBackendSweep. The zero value selects
// the committed defaults.
type CrossBackendSpec struct {
	Sizes   []int // node counts (default 64, 96, 128, 256)
	Workers int   // engine parallelism for the sim+live matrix
}

// The cross-backend sweep's fixed settings: one ring+chords instance per
// size, drawn from base seed 1.
const (
	crossBackendFamily   = "ring+chords"
	crossBackendBaseSeed = 1
	// Each wall-clock run is capped at crossBackendLiveDeadline (live) or
	// crossBackendTCPDeadline (tcp). Converging runs stop at their
	// certificate long before; the tcp budget is sized by the n=256 cell,
	// whose certificate can take several minutes of single-machine wall
	// clock under loopback contention.
	crossBackendLiveDeadline = 60 * time.Second
	crossBackendTCPDeadline  = 600 * time.Second
	// crossBackendTCPTick is the tcp cluster's gossip period. Before
	// frame coalescing the medium-n ladder needed a coarser 8ms tick: at
	// 2ms the one-syscall-per-message fan-out kept enough stale tokens in
	// flight that the protocol plateaued in long illegitimate lulls
	// (certify→fail→restart thrash). With crossBackendTCPBatch the same
	// instances hold the fast tick through n=256. The live backend keeps
	// its 200µs default.
	crossBackendTCPTick = 2 * time.Millisecond
	// crossBackendTCPBatch / crossBackendTCPBatchWait configure the tcp
	// transport's per-link frame coalescing: 32 messages / 12ms hold —
	// heavier than the BENCH_tcp.json sweet spot at n=128 because the
	// ladder's n=256 cell needs the extra coalescing to certify at the
	// 2ms tick; at n=256 it measures ~0.09 frames/message.
	crossBackendTCPBatch     = 32
	crossBackendTCPBatchWait = 12 * time.Millisecond
)

func (s CrossBackendSpec) normalized() CrossBackendSpec {
	if len(s.Sizes) == 0 {
		s.Sizes = []int{64, 96, 128, 256}
	}
	return s
}

// CrossBackendRow is one (size × backend) entry of the committed table.
type CrossBackendRow struct {
	Family      string `json:"family"`
	N           int    `json:"n"`
	Edges       int    `json:"edges"`
	Backend     string `json:"backend"`
	Suppress    string `json:"suppress"`
	Converged   bool   `json:"converged"`
	Legitimate  bool   `json:"legitimate"`
	WithinBound bool   `json:"withinBound"`
	DegreeBound int    `json:"degreeBound"`
}

// CrossBackendReport is the deterministic content of the committed
// cross-backend table, plus per-row execution diagnostics that are NOT
// serialized (wall-clock variance must stay out of the artifact).
type CrossBackendReport struct {
	Rows []CrossBackendRow `json:"rows"`

	// Walls and Restarts parallel Rows — diagnostics for the CLI
	// summary, excluded from JSON like every cross-run-varying field.
	Walls    []time.Duration `json:"-"`
	Restarts []int           `json:"-"`
}

// JSON renders the committed table as deterministic indented JSON.
func (r *CrossBackendReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CrossBackendSweep executes the medium-n paired comparison: the same
// drawn instances (run seeds exclude both the backend and suppression
// axes) from the same corrupted initial configurations, with search
// suppression on, across the deterministic simulator, the
// goroutine-per-node runtime and the loopback TCP cluster. The tcp
// cells run in a second engine pass so they can carry their own tick and
// framing (see crossBackendTCPTick) without touching the live backend's
// tuning.
func CrossBackendSweep(spec CrossBackendSpec) (*CrossBackendReport, error) {
	ns := spec.normalized()
	base := Spec{
		Families:     []string{crossBackendFamily},
		Sizes:        ns.Sizes,
		Starts:       []harness.StartMode{harness.StartCorrupt},
		Retry:        []core.RetryPolicy{core.RetrySuppress},
		SeedsPerCell: 1,
		BaseSeed:     crossBackendBaseSeed,
	}

	simLive := base
	simLive.Backends = []harness.Backend{harness.BackendSim, harness.BackendLive}
	simLive.Tuning = harness.BackendTuning{Deadline: crossBackendLiveDeadline}
	m1, err := Engine{Workers: ns.Workers}.Execute(simLive)
	if err != nil {
		return nil, err
	}

	tcp := base
	tcp.Backends = []harness.Backend{harness.BackendTCP}
	tcp.Tuning = harness.BackendTuning{
		Tick:         crossBackendTCPTick,
		Deadline:     crossBackendTCPDeadline,
		BatchSize:    crossBackendTCPBatch,
		BatchMaxWait: crossBackendTCPBatchWait,
	}
	// The tcp pass runs serially: its cells are wall-clock heavy and at
	// medium n a single cluster already saturates the socket layer;
	// running two clusters concurrently would add cross-run contention.
	m2, err := Engine{Workers: 1}.Execute(tcp)
	if err != nil {
		return nil, err
	}

	type key struct {
		n       int
		backend string
	}
	index := map[key]*RunResult{}
	for _, m := range []*Matrix{m1, m2} {
		for i := range m.Runs {
			rr := &m.Runs[i]
			if rr.Err != "" {
				return nil, fmt.Errorf("scenario: cross-backend run %s failed: %s", rr.Cell, rr.Err)
			}
			index[key{rr.N, rr.BackendName()}] = rr
		}
	}

	report := &CrossBackendReport{}
	for _, n := range ns.Sizes {
		for _, b := range harness.Backends() {
			rr, ok := index[key{n, string(b)}]
			if !ok {
				return nil, fmt.Errorf("scenario: cross-backend row n=%d backend=%s missing", n, b)
			}
			report.Rows = append(report.Rows, CrossBackendRow{
				Family:      rr.Family,
				N:           rr.N,
				Edges:       rr.Edges,
				Backend:     rr.BackendName(),
				Suppress:    rr.Suppress,
				Converged:   rr.Converged,
				Legitimate:  rr.Legitimate,
				WithinBound: rr.WithinBound,
				DegreeBound: rr.DegreeBound,
			})
			report.Walls = append(report.Walls, rr.Wall)
			report.Restarts = append(report.Restarts, rr.Restarts)
		}
	}
	return report, nil
}
