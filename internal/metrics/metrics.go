// Package metrics is the run-observability surface: a flat,
// JSON/CSV-serializable Snapshot of a running protocol execution and a
// Collector that accumulates the snapshot stream into a time series.
//
// Snapshots are sampled from counters the backends already maintain —
// never computed fresh. The deterministic simulator fills them from its
// run loop using the incremental fingerprint cache's pure reads
// (sim.Network.LastFingerprint/StateVersions — zero extra hashing, so
// sampling cannot perturb the committed FingerprintRecomputes
// baselines); the live backend reads the send counters of its
// sim.Board; the tcp backend fetches a metricsReply, built from the same
// counters, over the netrun control channel, next to the
// quiescence-probe pair. Collection is strictly opt-in
// (harness.RunSpec.Collect): with no Collector attached, no backend
// allocates, hashes or counts anything beyond what it always does (the
// wall-clock backends always count sends per kind) — the committed
// byte-identical matrix baselines are the enforced proof.
//
// The certificate-progress fields (VersionFill, Deficit, Stable/Window)
// expose how far convergence detection has advanced: a run stopped
// before quiescence reports a partial version-vector fill, never a
// spuriously complete one.
package metrics

import "mdst/internal/trace"

// Snapshot is one observation of a running execution. All counter
// fields are cumulative since run start, never per-interval, so
// consecutive snapshots can be differenced for rates.
type Snapshot struct {
	// Epoch is the observation index: the round for the sim backend, the
	// detector's probe epoch for the wall-clock backends.
	Epoch uint64 `json:"epoch"`
	// Nodes is the network size.
	Nodes int `json:"nodes"`
	// SentTotal counts messages accepted by the backend's send path.
	SentTotal int64 `json:"sentTotal"`
	// SentByKind breaks SentTotal down by message kind, on every
	// backend.
	SentByKind map[string]int64 `json:"sentByKind,omitempty"`
	// DegreeHist is the tree-degree histogram (index = degree, value =
	// node count) and MaxDegree its maximum. Sim backend only: the
	// wall-clock backends cannot inspect node state while running.
	DegreeHist []int `json:"degreeHist,omitempty"`
	MaxDegree  int   `json:"maxDegree"`
	// Protocol event counters (aggregated node stats; sim only while
	// running, every backend at the final snapshot).
	Exchanges  int `json:"exchanges"`
	Aborts     int `json:"aborts"`
	Suppressed int `json:"suppressed"`
	Deblocks   int `json:"deblocks"`
	// Certificate progress: VersionFill is the fraction of nodes whose
	// quiescence epoch (state version) held still since the previous
	// observation — 1.0 means every node is passive; Deficit is the
	// Dijkstra–Scholten active-kind deficit (messages in flight); Stable
	// is the detector's consecutive-stable-observation streak out of
	// Window.
	VersionFill float64 `json:"versionFill"`
	Deficit     int64   `json:"deficit"`
	Stable      int     `json:"stable"`
	Window      int     `json:"window"`
	// RetryPeriod is the worst-case cycle-search retry spacing across
	// nodes at the observation, in rounds. Zero under core.RetryPaper,
	// the static Config.EffectiveRetryPeriod under core.RetrySuppress;
	// under core.RetryBackoff it climbs as nodes back off toward the cap
	// (the idle-traffic decay series' x-axis companion). Zero and omitted
	// also when the run's backend cannot read it (wall-clock backends),
	// so pre-backoff snapshot JSON is unchanged.
	RetryPeriod int `json:"retryPeriod,omitempty"`
	// Fingerprint is the combined state fingerprint at the observation.
	Fingerprint uint64 `json:"fingerprint"`
}

// SeriesColumns is the fixed column set of Collector.Series — the
// scalar snapshot fields, in declaration order. Kind breakdowns and the
// degree histogram stay in the snapshots themselves (JSON export);
// Fingerprint is excluded because float64 cells cannot hold a uint64
// exactly.
var SeriesColumns = []string{
	"epoch", "sentTotal", "deficit", "versionFill", "stable",
	"maxDegree", "exchanges", "aborts", "suppressed", "deblocks",
}

// Collector accumulates a run's snapshot stream. A Collector is owned
// by one driver at a time and is not safe for concurrent use; the
// harness samples it from the same loop that drives detection.
type Collector struct {
	// Every is the sampling stride: the sim backend samples every Every
	// rounds, the wall-clock backends every Every detection probes
	// (values below 1 mean every round/probe).
	Every int
	// OnSnapshot, if non-nil, is invoked synchronously with each added
	// snapshot — the live-dashboard hook (mdstviz -live).
	OnSnapshot func(Snapshot)

	snaps []Snapshot
}

// stride returns the normalized sampling stride.
func (c *Collector) stride() int {
	if c == nil || c.Every < 1 {
		return 1
	}
	return c.Every
}

// Due reports whether observation index i (0-based) is a sampling
// point under the collector's stride.
func (c *Collector) Due(i int) bool { return i%c.stride() == 0 }

// Add appends one snapshot and fires OnSnapshot.
func (c *Collector) Add(s Snapshot) {
	c.snaps = append(c.snaps, s)
	if c.OnSnapshot != nil {
		c.OnSnapshot(s)
	}
}

// Len returns the number of collected snapshots.
func (c *Collector) Len() int { return len(c.snaps) }

// Snapshots returns the collected stream in observation order (shared
// slice; do not modify).
func (c *Collector) Snapshots() []Snapshot { return c.snaps }

// Last returns the most recent snapshot, or false when none were
// collected.
func (c *Collector) Last() (Snapshot, bool) {
	if len(c.snaps) == 0 {
		return Snapshot{}, false
	}
	return c.snaps[len(c.snaps)-1], true
}

// Series renders the scalar snapshot fields as a trace.Series
// (SeriesColumns), sharing the CSV/JSON export path with the harness's
// OnRound traces.
func (c *Collector) Series(name string) *trace.Series {
	s := trace.NewSeries(name, SeriesColumns...)
	for _, sn := range c.snaps {
		s.Append(
			float64(sn.Epoch), float64(sn.SentTotal), float64(sn.Deficit),
			sn.VersionFill, float64(sn.Stable), float64(sn.MaxDegree),
			float64(sn.Exchanges), float64(sn.Aborts), float64(sn.Suppressed),
			float64(sn.Deblocks),
		)
	}
	return s
}
