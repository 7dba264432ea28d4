package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"mdst/internal/core"
	"mdst/internal/harness"
	"mdst/internal/spanning"
)

// A FaultModel perturbs one run of the matrix. Most models rewrite the
// base RunSpec (lossy links set a drop rate, targeted faults pick the
// nodes to corrupt); models that must control the whole run lifecycle —
// churn stabilizes, mutates the topology, migrates and re-runs — also
// implement Executor. The models here are the first-class versions of
// the fault injections that used to live as one-offs in the E8/E9/E10
// loops of internal/benchtab; benchtab and the matrix CLI now share
// them through this interface.
type FaultModel interface {
	// Name is the model's stable identifier; it labels the matrix cell
	// and must be unique within a Spec (e.g. "lossy:0.05").
	Name() string
	// Apply rewrites the base spec for this fault. rng is the run's
	// private seeded RNG (shared with graph construction), so every
	// random choice is reproducible from the run seed alone.
	Apply(spec harness.RunSpec, rng *rand.Rand) (harness.RunSpec, error)
}

// Executor is implemented by fault models that build the run's initial
// network themselves instead of through harness.Run; they still drive
// it with harness.RunOn.
type Executor interface {
	FaultModel
	Execute(spec harness.RunSpec, rng *rand.Rand) (harness.Result, error)
}

// ErrNotApplicable is returned by a fault model when the drawn instance
// admits no applicable fault (e.g. churn on a graph with no removable
// edge); the engine records the run as skipped rather than failed.
var ErrNotApplicable = errors.New("scenario: fault not applicable to this instance")

// NoFault is the identity model: the run executes exactly as specified.
type NoFault struct{}

// Name implements FaultModel.
func (NoFault) Name() string { return "none" }

// Apply implements FaultModel.
func (NoFault) Apply(spec harness.RunSpec, _ *rand.Rand) (harness.RunSpec, error) {
	return spec, nil
}

// Lossy drops each delivery independently with probability Rate,
// violating the paper's reliable-link assumption (extension E9).
type Lossy struct {
	Rate float64
}

// Name implements FaultModel.
func (f Lossy) Name() string {
	return "lossy:" + strconv.FormatFloat(f.Rate, 'g', -1, 64)
}

// Apply implements FaultModel.
func (f Lossy) Apply(spec harness.RunSpec, _ *rand.Rand) (harness.RunSpec, error) {
	if f.Rate < 0 || f.Rate >= 1 {
		return spec, fmt.Errorf("scenario: lossy rate %v out of [0,1)", f.Rate)
	}
	spec.DropRate = f.Rate
	return spec, nil
}

// CorruptRandom preloads a legitimate configuration and corrupts K
// uniformly random nodes (the E5 fault-recovery shape).
type CorruptRandom struct {
	K int
}

// Name implements FaultModel.
func (f CorruptRandom) Name() string { return "corrupt:" + strconv.Itoa(f.K) }

// Apply implements FaultModel.
func (f CorruptRandom) Apply(spec harness.RunSpec, _ *rand.Rand) (harness.RunSpec, error) {
	spec.Start = harness.StartLegitimate
	spec.CorruptNodes = f.K
	return spec, nil
}

// TargetRole names a fault location on the preloaded legitimate tree.
// The paper's Definition 1 treats all corruptions alike; operationally
// it matters WHERE the fault hits (extension E8): corrupting the root
// can re-trigger the global election, a leaf is nearly free.
type TargetRole string

// Fault locations.
const (
	RoleRoot    TargetRole = "root"
	RoleLeaf    TargetRole = "deepest-leaf"
	RoleMaxDeg  TargetRole = "max-degree"
	RoleRandom  TargetRole = "random"
	RoleParents TargetRole = "root+children"
)

// TargetRoles returns the roles in display order.
func TargetRoles() []TargetRole {
	return []TargetRole{RoleRoot, RoleLeaf, RoleMaxDeg, RoleRandom, RoleParents}
}

// PickTargets resolves a role to concrete node IDs on the preloaded
// fixed-point tree.
func PickTargets(tree *spanning.Tree, role TargetRole, rng *rand.Rand) []int {
	switch role {
	case RoleRoot:
		return []int{tree.Root()}
	case RoleLeaf:
		deepest, depth := 0, -1
		for v, d := range tree.Depths() {
			if d > depth {
				deepest, depth = v, d
			}
		}
		return []int{deepest}
	case RoleMaxDeg:
		k := tree.MaxDegree()
		for v := 0; v < tree.Graph().N(); v++ {
			if tree.Degree(v) == k {
				return []int{v}
			}
		}
		return []int{0}
	case RoleParents:
		out := []int{tree.Root()}
		out = append(out, tree.Children(tree.Root())...)
		return out
	default:
		return []int{rng.Intn(tree.Graph().N())}
	}
}

// Targeted preloads a legitimate configuration and corrupts the node(s)
// holding the named role on the preloaded tree.
type Targeted struct {
	Role TargetRole
}

// Name implements FaultModel.
func (f Targeted) Name() string { return "targeted:" + string(f.Role) }

// Apply implements FaultModel. The preload tree is computed here to
// pick the role and again inside harness.Run's Preload; the
// duplication is deliberate — threading the tree through RunSpec would
// couple the harness API to this model, and the sequential reduction
// is cheap at matrix sizes.
func (f Targeted) Apply(spec harness.RunSpec, rng *rand.Rand) (harness.RunSpec, error) {
	tree, err := harness.PreloadTree(spec.Graph)
	if err != nil {
		return spec, err
	}
	spec.Start = harness.StartLegitimate
	spec.CorruptTargets = PickTargets(tree, f.Role, rng)
	return spec, nil
}

// Churn is the topology-churn fault (extension E10, the paper's §6 open
// problem): the run stabilizes on the drawn graph, the named operation
// mutates the topology, all node state migrates onto the new graph, and
// harness.RunOn re-stabilizes the migrated network exactly as
// harness.Run drives its own runs. The reported metrics are those of
// the re-stabilization on the new topology.
type Churn struct {
	Op harness.ChurnOp
}

// Name implements FaultModel.
func (f Churn) Name() string { return "churn:" + string(f.Op) }

// Apply implements FaultModel (identity; Churn executes via Execute).
func (f Churn) Apply(spec harness.RunSpec, _ *rand.Rand) (harness.RunSpec, error) {
	return spec, nil
}

// Execute implements Executor.
func (f Churn) Execute(spec harness.RunSpec, rng *rand.Rand) (harness.Result, error) {
	if spec.Variant == harness.VariantLiteral {
		return harness.Result{}, fmt.Errorf("scenario: churn supports only the core variant")
	}
	if spec.Backend != "" && spec.Backend != harness.BackendSim {
		// The stabilize→mutate→migrate→re-run cycle drives sim.Network
		// directly; running it under a wall-clock backend would silently
		// execute a different experiment than the cell label claims.
		return harness.Result{}, fmt.Errorf("scenario: churn requires the sim backend (got %q)", spec.Backend)
	}
	g := spec.Graph
	cfg := spec.ProtocolConfig()
	net := core.BuildNetwork(g, cfg, spec.Seed)
	if err := harness.Preload(g, core.NodesOf(net), cfg); err != nil {
		return harness.Result{}, err
	}
	tree, err := core.ExtractTree(g, core.NodesOf(net))
	if err != nil {
		return harness.Result{}, err
	}
	newG, _, ok := harness.ApplyChurn(g, tree, f.Op, rng)
	if !ok {
		return harness.Result{}, ErrNotApplicable
	}
	newNet, err := harness.Migrate(net, newG, cfg, spec.Seed+1)
	if err != nil {
		return harness.Result{}, err
	}
	spec.Graph = newG
	return harness.RunOn(spec, newNet)
}

// ParseFault resolves a fault-model name as accepted by the matrix CLI:
// none | lossy:RATE | corrupt:K | targeted:ROLE | churn:OP.
func ParseFault(s string) (FaultModel, error) {
	name, arg, _ := strings.Cut(s, ":")
	switch name {
	case "none", "":
		return NoFault{}, nil
	case "lossy":
		rate, err := strconv.ParseFloat(arg, 64)
		if err != nil || rate < 0 || rate >= 1 {
			return nil, fmt.Errorf("scenario: bad lossy rate %q (want [0,1))", arg)
		}
		return Lossy{Rate: rate}, nil
	case "corrupt":
		k, err := strconv.Atoi(arg)
		if err != nil || k < 0 {
			return nil, fmt.Errorf("scenario: bad corrupt count %q", arg)
		}
		return CorruptRandom{K: k}, nil
	case "targeted":
		for _, r := range TargetRoles() {
			if string(r) == arg {
				return Targeted{Role: r}, nil
			}
		}
		return nil, fmt.Errorf("scenario: unknown target role %q", arg)
	case "churn":
		for _, op := range harness.ChurnOps() {
			if string(op) == arg {
				return Churn{Op: op}, nil
			}
		}
		return nil, fmt.Errorf("scenario: unknown churn op %q", arg)
	}
	return nil, fmt.Errorf("scenario: unknown fault model %q", s)
}

// ParseFaults resolves a comma-separated fault list.
func ParseFaults(list string) ([]FaultModel, error) {
	var out []FaultModel
	for _, s := range strings.Split(list, ",") {
		f, err := ParseFault(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
