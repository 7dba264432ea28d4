package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"mdst/internal/core"
	"mdst/internal/harness"
)

// TCP transport bench: the committed BENCH_tcp.json sweep that records
// what per-link frame coalescing (netrun batching) buys on the only
// backend with a real wire. One drawn instance (ring+chords n=128 by
// default, suppression on — the medium-n sweep conditions) runs once
// per batch size over loopback TCP; the figure of merit is
// frames-per-message (how many syscall bursts a message costs; 1.0 at
// batch=1 by construction), next to the outcome and the restart count.
// The report carries no wall time: one corrupt-start run's time to
// certify varies several-fold from run to run, so it could rank neither
// batch sizes nor commits. The repository benchmark's tcp workload is
// the measurement of the transport's cost.
//
// Message and frame counts depend on the socket timing, so the
// artifact is a recorded snapshot, NOT a byte-identity baseline, and is
// deliberately excluded from the `make drift` gate.

// TCPBenchSpec configures TCPBenchSweep. The zero value selects the
// committed defaults.
type TCPBenchSpec struct {
	N int // node count (default 128)
}

// The tcp bench's fixed settings: one ring+chords instance drawn from
// base seed 1, run once per batch size (1, 8 and 16).
const (
	tcpBenchFamily   = "ring+chords"
	tcpBenchBaseSeed = 1
	// tcpBenchTick is the fast tick the coalescing layer is meant to
	// sustain at medium n.
	tcpBenchTick = 2 * time.Millisecond
	// tcpBenchBatchMaxWait is applied to every batch>1 row — three
	// ticks: the frame hold that lets sends from consecutive gossip
	// ticks coalesce into one frame. A hold of one tick or less only
	// packs same-tick bursts and plateaus near 0.45 frames/message;
	// three ticks reaches ~0.17 at batch=16 on the default instance.
	tcpBenchBatchMaxWait = 6 * time.Millisecond
	// tcpBenchDeadline caps each tcp run.
	tcpBenchDeadline = 150 * time.Second
)

func (s TCPBenchSpec) normalized() TCPBenchSpec {
	if s.N <= 0 {
		s.N = 128
	}
	return s
}

// TCPBenchRow is one batch-size point of the sweep.
type TCPBenchRow struct {
	Batch          int     `json:"batch"`
	BatchMaxWaitMS float64 `json:"batchMaxWaitMS"`
	Converged      bool    `json:"converged"`
	Legitimate     bool    `json:"legitimate"`
	Messages       int64   `json:"messages"`
	Frames         int64   `json:"frames"`
	// FramesPerMessage = Frames/Messages — the syscall-burst cost of one
	// message (1.0 at batch=1; the headline is how far below it drops).
	FramesPerMessage float64 `json:"framesPerMessage"`
	Restarts         int     `json:"restarts"`
}

// TCPBenchReport is the content of BENCH_tcp.json.
type TCPBenchReport struct {
	Family string        `json:"family"`
	N      int           `json:"n"`
	Edges  int           `json:"edges"`
	TickMS float64       `json:"tickMS"`
	Rows   []TCPBenchRow `json:"rows"`
}

// JSON renders the report as indented JSON (committed as a snapshot;
// NOT byte-stable across machines — see the package comment above).
func (r *TCPBenchReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// round3 keeps the committed floats readable (3 decimal places is well
// inside measurement noise for every reported ratio).
func round3(x float64) float64 { return math.Round(x*1000) / 1000 }

// TCPBenchSweep measures frame coalescing on the loopback TCP cluster:
// the identical corrupted instance, once per batch size, serially (a
// medium-n cluster saturates the socket layer by itself — concurrent
// clusters would starve each other).
func TCPBenchSweep(spec TCPBenchSpec) (*TCPBenchReport, error) {
	ns := spec.normalized()
	report := &TCPBenchReport{
		Family: tcpBenchFamily,
		N:      ns.N,
		TickMS: round3(float64(tcpBenchTick) / float64(time.Millisecond)),
	}
	for _, batch := range []int{1, 8, 16} {
		tuning := harness.BackendTuning{
			Tick:      tcpBenchTick,
			Deadline:  tcpBenchDeadline,
			BatchSize: batch,
		}
		if batch > 1 {
			tuning.BatchMaxWait = tcpBenchBatchMaxWait
		}
		m, err := Engine{Workers: 1}.Execute(Spec{
			Families:     []string{tcpBenchFamily},
			Sizes:        []int{ns.N},
			Starts:       []harness.StartMode{harness.StartCorrupt},
			Retry:        []core.RetryPolicy{core.RetrySuppress},
			SeedsPerCell: 1,
			BaseSeed:     tcpBenchBaseSeed,
			Backends:     []harness.Backend{harness.BackendTCP},
			Tuning:       tuning,
		})
		if err != nil {
			return nil, err
		}
		rr := &m.Runs[0]
		if rr.Err != "" {
			return nil, fmt.Errorf("scenario: tcp bench batch=%d failed: %s", batch, rr.Err)
		}
		report.Edges = rr.Edges
		row := TCPBenchRow{
			Batch:          batch,
			BatchMaxWaitMS: round3(float64(tuning.BatchMaxWait) / float64(time.Millisecond)),
			Converged:      rr.Converged,
			Legitimate:     rr.Legitimate,
			Messages:       rr.Messages,
			Frames:         rr.Frames,
			Restarts:       rr.Restarts,
		}
		if rr.Messages > 0 {
			row.FramesPerMessage = round3(float64(rr.Frames) / float64(rr.Messages))
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}
