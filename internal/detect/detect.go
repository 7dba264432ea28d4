// Package detect is the backend-shared convergence-detection subsystem:
// it decides, from a stream of in-band observations, when a run of the
// self-stabilizing protocol has reached its silent fixed point, and it
// attests that decision with a quiescence Certificate instead of a raw
// "fingerprint unchanged twice" heuristic.
//
// The paper's composed protocol is silent — in a legitimate
// configuration no register changes — so quiescence is the protocol's
// own observable property. detect turns that property into a
// Dijkstra–Scholten-style termination condition over the harness's
// message counters: the system has terminated when every process is
// passive (its state version stopped moving and its state hash is a
// fixed point) AND the message deficit of the protocol's active kinds —
// reduction messages sent minus reduction messages received — is zero,
// i.e. no diffusing computation is still in flight. A Detector demands
// that the whole condition hold over a configurable window of
// consecutive observations (sized by the caller to cover the protocol's
// longest internal timer, the jittered search retry period) and then
// issues a Certificate carrying the per-node version vector (the
// quiescence epochs), the combined state fingerprint and the frozen
// message counters.
//
// One Detector implementation serves every backend:
//
//   - The deterministic simulator feeds it per-round samples built from
//     sim.Network's versioners, cached fingerprint and per-kind sent and
//     pending counters: a run with a metrics.Collector feeds one
//     Detector at every sampled round, and its Progress is the stream's
//     certificate-progress block. The simulator's own stop decision
//     stays sim.Network.Run's quiescence tracker; tests use a Detector
//     driven this way as the sequential reference against it.
//   - The live backend (sim.LiveNetwork) feeds it lock-free samples of
//     what its node loops post (sim.Board): each loop re-hashes its
//     node only when the StateVersion moved, so a probe costs O(n)
//     atomic loads and no hashing.
//   - The tcp backend (internal/netrun) feeds it samples fetched over a
//     side-channel control connection, so the driver never has to stop
//     the cluster to look for quiescence.
//
// A Certificate is a *claim* of observed stability, not a proof of
// legitimacy: messages can hide in OS buffers between two probes, and a
// self-stabilizing run may pause at a pseudo-fixed point longer than
// the window. Drivers therefore verify the legitimacy predicate on the
// stopped network after a certificate is issued, and resume (resetting
// the detector's stability streak) when the check fails — the
// certificate's role is to make that stop worthwhile, replacing the
// stop-the-world inspection loops both wall-clock drivers used before.
package detect

import "fmt"

// Sample is one in-band observation of the global configuration. All
// fields are cumulative or absolute, never per-interval, so samples can
// be compared for equality to establish stability.
type Sample struct {
	// Versions is the per-node quiescence-epoch vector: each entry is
	// the node's StateVersion (bumped by the protocol's guarded writes,
	// a fixed point once the node quiesces), or the node's state hash
	// for processes that do not report versions.
	Versions []uint64
	// Fingerprint is the combined state fingerprint over all nodes
	// (Combine of the per-node hashes).
	Fingerprint uint64
	// ActiveSent and ActiveReceived count the protocol's active-kind
	// messages (the reduction kinds that must drain at quiescence —
	// periodic gossip is excluded, since a silent protocol keeps
	// gossiping forever). Their difference is the Dijkstra–Scholten
	// deficit: the number of reduction messages still in flight.
	ActiveSent     int64
	ActiveReceived int64
}

// Deficit is the number of active-kind messages in flight: sent but not
// yet received. Zero is the Dijkstra–Scholten termination condition's
// "no messages in transit" half.
func (s Sample) Deficit() int64 { return s.ActiveSent - s.ActiveReceived }

// stableWith reports whether s and prev describe the same frozen
// configuration: identical version vectors, fingerprints and message
// counters. Counter equality matters — two samples with equal deficits
// but moved counters mean traffic flowed between them.
func (s Sample) stableWith(prev Sample) bool {
	if s.Fingerprint != prev.Fingerprint ||
		s.ActiveSent != prev.ActiveSent ||
		s.ActiveReceived != prev.ActiveReceived ||
		len(s.Versions) != len(prev.Versions) {
		return false
	}
	for i, v := range s.Versions {
		if v != prev.Versions[i] {
			return false
		}
	}
	return true
}

// Certificate attests a window of observed quiescence. It is issued by
// a Detector when the configuration held perfectly still — versions,
// fingerprint and message counters frozen, deficit zero — for Window
// consecutive observations.
//
// What it guarantees: over the covered observations, no node's
// protocol-visible state changed and no active-kind message was sent,
// received or in flight at observation instants. What it does NOT
// guarantee: legitimacy (a pseudo-fixed point can outlast any finite
// window), so drivers still verify the legitimacy predicate on the
// stopped network before declaring convergence.
type Certificate struct {
	// Backend names the execution backend that produced the samples
	// (harness.Backend values: "sim", "live", "tcp").
	Backend string `json:"backend"`
	// Epoch is the 1-based observation index at which the stability
	// window completed. For the sim backend this is a round index; for
	// the wall-clock backends a probe index. Epochs keep counting across
	// a Detector Reset, so a certificate issued after a failed
	// legitimacy check records the total observation effort.
	Epoch uint64 `json:"epoch"`
	// Window is the number of consecutive stable observations covered.
	Window int `json:"window"`
	// Versions is the per-node quiescence-epoch vector at issue.
	Versions []uint64 `json:"versions"`
	// Fingerprint is the combined state fingerprint the window held.
	Fingerprint uint64 `json:"fingerprint"`
	// Sent and Received are the frozen active-kind message counters
	// (equal by construction: the deficit was zero throughout).
	Sent     int64 `json:"sent"`
	Received int64 `json:"received"`
}

// String renders the certificate's one-line summary (CLI reporting).
func (c Certificate) String() string {
	return fmt.Sprintf("quiescence certificate: backend=%s epoch=%d window=%d fingerprint=%016x active sent=received=%d",
		c.Backend, c.Epoch, c.Window, c.Fingerprint, c.Sent)
}

// Config controls a Detector.
type Config struct {
	// Window is the number of consecutive stable observations required
	// before a certificate is issued (minimum 1; values below are
	// raised to 1). Callers size it so the covered span exceeds the
	// protocol's longest internal timer — for the MDST protocol a full
	// jittered search retry period — or a slow phase is mistaken for a
	// fixed point.
	Window int
	// Backend is stamped into issued certificates.
	Backend string
}

// Detector accumulates observations and issues a Certificate once the
// configuration holds still for the configured window. It is a purely
// sequential, deterministic state machine: given the same sample stream
// it makes the same decision at the same epoch, which is what makes it
// usable as the reference detector for the deterministic simulator and
// as ground truth in tests of the concurrent probing paths.
//
// A Detector is not safe for concurrent use; each driver owns one.
type Detector struct {
	cfg    Config
	epoch  uint64
	stable int
	last   Sample
	have   bool
	// fill is the version-vector fill of the latest observation: the
	// fraction of nodes whose quiescence epoch held still since the
	// previous sample (see Progress).
	fill float64
}

// New returns a Detector over cfg.
func New(cfg Config) *Detector {
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	return &Detector{cfg: cfg}
}

// Epoch returns the number of observations made so far (monotone across
// Reset).
func (d *Detector) Epoch() uint64 { return d.epoch }

// Stable returns the current consecutive-stable-observation streak.
func (d *Detector) Stable() int { return d.stable }

// Reset clears the stability streak and the remembered sample, but not
// the epoch counter. Drivers call it after a certificate's legitimacy
// check failed: the run resumes and stability must be re-established
// from scratch.
func (d *Detector) Reset() {
	d.stable = 0
	d.have = false
	d.fill = 0
	d.last = Sample{}
}

// Progress is the detector's advancement toward a certificate — the
// certificate-progress block of a metrics.Snapshot. It reports observed
// facts only: a detector that has not yet seen two samples reports a
// zero VersionFill, never a spuriously complete one.
type Progress struct {
	// Epoch is the number of observations so far.
	Epoch uint64
	// Stable is the consecutive-stable streak, out of Window.
	Stable int
	Window int
	// VersionFill is the fraction of nodes whose quiescence epoch
	// (state version) was unchanged between the last two observations:
	// 1.0 means every node looked passive, 0 before two samples exist.
	VersionFill float64
	// Deficit and Fingerprint are from the latest observation.
	Deficit     int64
	Fingerprint uint64
}

// Progress returns the detector's current certificate progress.
func (d *Detector) Progress() Progress {
	return Progress{
		Epoch:       d.epoch,
		Stable:      d.stable,
		Window:      d.cfg.Window,
		VersionFill: d.fill,
		Deficit:     d.last.Deficit(),
		Fingerprint: d.last.Fingerprint,
	}
}

// Observe feeds one sample. It returns a Certificate and true when this
// observation completes a full stability window: the sample equals the
// previous one (versions, fingerprint, counters) with a zero active
// deficit, for the Window-th consecutive time. The sample's Versions
// slice is copied; callers may reuse their buffer between observations.
func (d *Detector) Observe(s Sample) (Certificate, bool) {
	d.epoch++
	if d.have && s.Deficit() == 0 && s.stableWith(d.last) {
		d.stable++
	} else {
		d.stable = 0
	}
	// Version-vector fill for Progress: how many nodes held still since
	// the previous sample. Computed before d.last is overwritten; a
	// first observation has no baseline and fills zero.
	d.fill = 0
	if d.have && len(s.Versions) == len(d.last.Versions) && len(s.Versions) > 0 {
		held := 0
		for i, v := range s.Versions {
			if v == d.last.Versions[i] {
				held++
			}
		}
		d.fill = float64(held) / float64(len(s.Versions))
	}
	// Copy into the retained sample, reusing its buffer when possible
	// (probe loops observe every few ms; this keeps them allocation-free
	// at steady state).
	d.last.Versions = append(d.last.Versions[:0], s.Versions...)
	d.last.Fingerprint = s.Fingerprint
	d.last.ActiveSent = s.ActiveSent
	d.last.ActiveReceived = s.ActiveReceived
	d.have = true
	if d.stable < d.cfg.Window {
		return Certificate{}, false
	}
	return Certificate{
		Backend:     d.cfg.Backend,
		Epoch:       d.epoch,
		Window:      d.cfg.Window,
		Versions:    append([]uint64(nil), s.Versions...),
		Fingerprint: s.Fingerprint,
		Sent:        s.ActiveSent,
		Received:    s.ActiveReceived,
	}, true
}

// MixNode folds one node's state hash into the combined fingerprint
// with a position-dependent bijective finalizer (splitmix64). The
// combine is commutative — the global fingerprint is the XOR over nodes
// of MixNode(id, hash) — and therefore patchable in O(1) per changed
// node. Every backend uses this one function (sim.Network
// incrementally, sim.Board for the live and tcp runtimes from the
// per-node hashes their loops post), which is what makes certificate
// fingerprints comparable across backends.
func MixNode(id int, f uint64) uint64 {
	x := f + uint64(id+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Combine mixes the per-node state hashes into the order-independent
// combined fingerprint.
func Combine(fps []uint64) uint64 {
	var combined uint64
	for id, f := range fps {
		combined ^= MixNode(id, f)
	}
	return combined
}
