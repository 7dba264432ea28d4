package harness

import (
	"fmt"

	"mdst/internal/sim"
)

// Engine selects which execution core of the sim backend drives a run.
// Both cores execute the same protocol processes under the same round
// semantics; they differ in how a round is produced.
type Engine string

// Simulator engines.
const (
	// EngineCompat is the per-round full-sweep loop (sim.Network.Run with
	// a Scheduler): every node ticks every round. It is the default and
	// the engine every committed deterministic baseline was generated
	// with — its delivery/tick order is regression-locked byte for byte.
	EngineCompat Engine = "compat"
	// EngineEvent is the discrete-event core (sim.Network.RunEvents):
	// pending deliveries and node timers live in a calendar queue, idle
	// nodes park (sim.EventProcess), and rounds without work are skipped
	// outright — per-round cost tracks the active frontier, which is what
	// makes n=16384 runs tractable. It orders each round as the sync
	// scheduler does and runs under no other. Reaches the same legitimacy
	// predicate and Δ*+1 bracket as compat (differential-tested) but not
	// the same byte-level schedule.
	EngineEvent Engine = "event"
)

// Engines returns the simulator engines in display order.
func Engines() []Engine { return []Engine{EngineCompat, EngineEvent} }

// ParseEngine resolves an engine name (compat|event); the empty string
// is the compat default.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", string(EngineCompat):
		return EngineCompat, nil
	case string(EngineEvent):
		return EngineEvent, nil
	}
	return "", fmt.Errorf("harness: unknown engine %q (want compat|event)", s)
}

// EventPolicyFor returns the event core's one ordering, sync, for every
// scheduler kind (Validate rejects the others on EngineEvent). It
// remains only because benchmark/trace.go sets sim.EventConfig.Policy
// with it.
func EventPolicyFor(SchedulerKind) sim.EventPolicy { return sim.EventPolicySync }
