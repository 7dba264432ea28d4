// Package metrics is the run-observability surface, and the one way a
// run is observed on every backend: a flat, JSON/CSV-serializable
// Snapshot of a running protocol execution and a Collector that
// accumulates the snapshot stream into a time series (trace.Series is
// its serialization, which the figure series print).
//
// Snapshots are sampled from counters the backends already maintain.
// Every collected run feeds one detect.Detector, and the harness builds
// every snapshot with one function from the detector's progress, the
// per-kind send counters and — where node state may be read — the
// nodes. The deterministic simulator samples its run loop using the
// incremental fingerprint cache's pure reads
// (sim.Network.LastFingerprint/StateVersions — zero extra hashing, so
// sampling cannot perturb the committed FingerprintRecomputes
// baselines) and reads its nodes on every sample; the live and tcp
// backends read the lock-free send counters of their sim.Board
// in-process and the nodes only after the final stop. Collection is
// strictly opt-in (harness.RunSpec.Collect): with no Collector
// attached, no backend allocates, hashes or counts anything beyond what
// it always does (the wall-clock backends always count sends per kind)
// — the committed byte-identical matrix baselines are the enforced
// proof.
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
	// Epoch is the observation index: the round for the sim backend
	// (epoch 0 is the initial configuration), the detector's probe epoch
	// for the wall-clock backends.
	Epoch uint64 `json:"epoch"`
	// Nodes is the network size.
	Nodes int `json:"nodes"`
	// TreeDegree is the degree of the tree the parent pointers form (-1
	// while they form no spanning tree), Roots the number of
	// self-parented nodes and DmaxAgree the number of nodes whose dmax
	// equals TreeDegree — the convergence and recovery figures. Filled
	// wherever node state may be read: on every sim snapshot and on the
	// final snapshot of a wall-clock run; zero and omitted otherwise.
	TreeDegree int `json:"treeDeg,omitempty"`
	Roots      int `json:"roots,omitempty"`
	DmaxAgree  int `json:"dmaxAgree,omitempty"`
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
	// running, every backend at the final snapshot). Exchanges counts
	// completed edge exchanges the same way for both exchanges.
	Exchanges  int `json:"exchanges"`
	Aborts     int `json:"aborts"`
	Suppressed int `json:"suppressed"`
	Deblocks   int `json:"deblocks"`
	// Certificate progress, the run's detect.Progress: VersionFill is
	// the fraction of nodes whose quiescence epoch (state version) held
	// still since the previous observation — 1.0 means every node is
	// passive; Deficit is the Dijkstra–Scholten active-kind deficit
	// (reduction messages in flight); Stable is the detector's
	// consecutive-stable-observation streak out of Window, where a
	// stable observation repeats the previous one's versions,
	// fingerprint and active-kind counters with a zero deficit (so a
	// reduction message sent and settled between two observations
	// breaks the streak).
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
// scalar snapshot fields, in declaration order, less Nodes and Window
// (fixed for a run) and RetryPeriod. Kind breakdowns and the degree
// histogram stay in the snapshots themselves (JSON export);
// Fingerprint is excluded because float64 cells cannot hold a uint64
// exactly.
var SeriesColumns = []string{
	"epoch", "treeDeg", "roots", "dmaxAgree", "sentTotal", "maxDegree",
	"exchanges", "aborts", "suppressed", "deblocks", "versionFill",
	"deficit", "stable",
}

// Collector accumulates a run's snapshot stream. A Collector is owned
// by one driver at a time and is not safe for concurrent use; the
// harness samples it from the same loop that drives detection.
type Collector struct {
	// Every is the sampling stride: the sim backend samples rounds 0,
	// Every, 2·Every, …, the wall-clock backends every Every detection
	// probes from the first (values below 1 mean every round/probe).
	// Both add the run's final observation.
	Every int
	// OnSnapshot, if non-nil, is invoked synchronously with each added
	// snapshot — the hook behind `mdstsim -metrics`, which streams each
	// snapshot to stderr while the run executes.
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
// (SeriesColumns): the figure series (mdstbench -series) and the
// -metrics exports print it.
func (c *Collector) Series(name string) *trace.Series {
	s := trace.NewSeries(name, SeriesColumns...)
	for _, sn := range c.snaps {
		s.Append(
			float64(sn.Epoch), float64(sn.TreeDegree), float64(sn.Roots),
			float64(sn.DmaxAgree), float64(sn.SentTotal), float64(sn.MaxDegree),
			float64(sn.Exchanges), float64(sn.Aborts), float64(sn.Suppressed),
			float64(sn.Deblocks), sn.VersionFill, float64(sn.Deficit),
			float64(sn.Stable),
		)
	}
	return s
}
