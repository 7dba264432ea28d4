package harness

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mdst/internal/core"
	"mdst/internal/detect"
	"mdst/internal/graph"
	"mdst/internal/sim"
)

// frozenTransport is a wallTransport whose probes always read the same
// configuration, so the detector certifies every window. It records
// how driveWall drives it.
type frozenTransport struct {
	starts, stops int
	running       bool
	offProbe      bool // a probe was taken while stopped
	sampleErr     error
}

func (f *frozenTransport) start() error { f.starts++; f.running = true; return nil }
func (f *frozenTransport) stop()        { f.stops++; f.running = false }

func (f *frozenTransport) sample() (detect.Sample, error) {
	if !f.running {
		f.offProbe = true
	}
	return detect.Sample{Versions: []uint64{1, 2, 3}, Fingerprint: 42}, f.sampleErr
}

func (f *frozenTransport) traffic() map[string]int64         { return nil }
func (f *frozenTransport) counters(*Result) map[string]int64 { return nil }

// corruptNodes builds the spec's nodes outside any transport, in the
// spec's initial configuration.
func corruptNodes(t *testing.T, spec RunSpec) []*core.Node {
	t.Helper()
	ops := variantFor(spec)
	nodes, _, ok := buildInitial(spec, ops, func(id sim.NodeID) sim.Process {
		return ops.factory(id, spec.Graph.Neighbors(id))
	})
	if !ok || core.CheckLegitimacy(spec.Graph, nodes).OK() {
		t.Fatal("corrupt start is already legitimate")
	}
	return nodes
}

// A certificate over an illegitimate configuration makes the loop stop,
// check, and resume; a configuration that never heals runs into the
// deadline without a certificate. Every start is matched by one stop.
func TestDriveWallRestartsUntilDeadline(t *testing.T) {
	spec := RunSpec{Graph: graph.Wheel(8), Start: StartCorrupt, Seed: 1, Backend: BackendLive}
	nodes := corruptNodes(t, spec)
	ft := &frozenTransport{}
	p := wallParams{probe: time.Millisecond, stable: 3, deadline: 100 * time.Millisecond}
	begin := time.Now()
	res, err := driveWall(spec, p, nodes, ft, begin)
	elapsed := time.Since(begin)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Cert != nil || res.Restarts < 1 {
		t.Fatalf("converged=%v cert=%v restarts=%d, want an uncertified run that restarted",
			res.Converged, res.Cert, res.Restarts)
	}
	if ft.starts != ft.stops || ft.running || ft.offProbe {
		t.Fatalf("starts=%d stops=%d running=%v probedWhileStopped=%v",
			ft.starts, ft.stops, ft.running, ft.offProbe)
	}
	if res.Restarts != ft.starts-1 {
		t.Fatalf("%d restarts reported for %d starts", res.Restarts, ft.starts)
	}
	if elapsed < p.deadline || elapsed > 10*p.deadline {
		t.Fatalf("run took %v against a %v deadline", elapsed, p.deadline)
	}
}

// A probe failure is the run's error, under the backend's prefix, and
// leaves the transport stopped.
func TestDriveWallSampleErrorStopsTransport(t *testing.T) {
	spec := RunSpec{Graph: graph.Wheel(8), Start: StartCorrupt, Seed: 1, Backend: BackendTCP}
	lost := errors.New("probe connection lost")
	ft := &frozenTransport{sampleErr: lost}
	p := wallParams{probe: time.Millisecond, stable: 3, deadline: time.Second}
	res, err := driveWall(spec, p, corruptNodes(t, spec), ft, time.Now())
	if !errors.Is(err, lost) || !strings.HasPrefix(err.Error(), "harness: tcp backend: ") {
		t.Fatalf("err = %v, want the probe error under the tcp prefix", err)
	}
	if ft.running || ft.starts != 1 || ft.stops != 1 {
		t.Fatalf("starts=%d stops=%d running=%v after a probe failure", ft.starts, ft.stops, ft.running)
	}
	if res.Backend != BackendTCP || res.Converged {
		t.Fatalf("result %+v", res)
	}
}
