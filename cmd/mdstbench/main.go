// Command mdstbench regenerates the experiment tables E1–E12 of
// internal/benchtab. The sweep-shaped experiments (E1, E2, E8–E10) execute
// through the internal/scenario matrix engine and shard their runs
// across all CPUs; -workers caps that parallelism (ad-hoc scenario
// matrices beyond the fixed tables are cmd/mdstmatrix's job).
//
// Usage:
//
//	mdstbench                 # full suite, default sweep
//	mdstbench -exp E1 -csv    # one experiment as CSV
//	mdstbench -sizes 16,32,64 -seeds 5 -sched async
//	mdstbench -exp E9 -workers 1                          # serial execution
//	mdstbench -exp fit -families gnp -sizes 12,16,24,32   # complexity fit
//	mdstbench -series conv -families geometric -sizes 32  # figure series CSV
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mdst/internal/benchtab"
	"mdst/internal/graph"
	"mdst/internal/harness"
	"mdst/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdstbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment to run: E1..E12, fit, or all")
	sizes := fs.String("sizes", "", "comma-separated node counts (default 16,24,32,48)")
	seeds := fs.Int("seeds", 3, "runs per sweep cell")
	sched := fs.String("sched", "sync", "scheduler: sync|async|adversarial")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	famFlag := fs.String("families", "", "comma-separated family subset (default all)")
	series := fs.String("series", "", "emit a per-round figure series: conv|recovery")
	faults := fs.Int("faults", 4, "with -series recovery: corrupted nodes")
	variant := fs.String("variant", "core", "with -series conv: protocol implementation core|literal")
	workers := fs.Int("workers", 0, "cap on scenario-engine parallelism (0: all CPUs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seeds < 1 || *workers < 0 || *faults < 0 {
		fmt.Fprintln(stderr, "mdstbench: -seeds must be at least 1, -workers and -faults non-negative")
		return 2
	}
	benchtab.Workers = *workers
	if _, err := harness.ParseScheduler(*sched); err != nil {
		fmt.Fprintln(stderr, "mdstbench:", err)
		return 2
	}

	sweep := benchtab.DefaultSweep()
	sweep.Seeds = *seeds
	sweep.Sched = harness.SchedulerKind(*sched)
	if *sizes != "" {
		sweep.Sizes = nil
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintln(stderr, "mdstbench: bad -sizes:", err)
				return 2
			}
			if v < 2 {
				fmt.Fprintln(stderr, "mdstbench: bad -sizes: every size must be at least 2, got", v)
				return 2
			}
			sweep.Sizes = append(sweep.Sizes, v)
		}
	}
	families := graph.Families()
	if *famFlag != "" {
		families = nil
		for _, name := range strings.Split(*famFlag, ",") {
			f, ok := graph.LookupFamily(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintln(stderr, "mdstbench: unknown family in -families:", name)
				return 2
			}
			families = append(families, f)
		}
	}

	if *series != "" {
		famName := "gnp"
		if len(families) > 0 {
			famName = families[0].Name
		}
		n := 32
		if len(sweep.Sizes) > 0 {
			n = sweep.Sizes[0]
		}
		var s *trace.Series
		switch *series {
		case "conv":
			s, _ = benchtab.SeriesConvergenceVariant(famName, n, 1, sweep.Sched,
				harness.Variant(*variant))
		case "recovery":
			s, _ = benchtab.SeriesRecovery(famName, n, *faults, 1, sweep.Sched)
		default:
			fmt.Fprintln(stderr, "mdstbench: unknown -series", *series)
			return 2
		}
		fmt.Fprint(stdout, s.CSV())
		return 0
	}

	var tables []*benchtab.Table
	switch strings.ToUpper(*exp) {
	case "ALL":
		tables = benchtab.All(sweep, families)
	case "E1":
		tables = append(tables, benchtab.E1DegreeQuality(sweep, families))
	case "E2":
		tables = append(tables, benchtab.E2Convergence(sweep, families))
	case "E3":
		tables = append(tables, benchtab.E3Memory(sweep, families))
	case "E4":
		tables = append(tables, benchtab.E4MessageLength(sweep, families))
	case "E5":
		n := 32
		if len(sweep.Sizes) > 0 {
			n = sweep.Sizes[len(sweep.Sizes)-1]
		}
		tables = append(tables, benchtab.E5FaultRecovery(n, sweep.Seeds, sweep.Sched))
	case "E6":
		tables = append(tables, benchtab.E6Baselines(sweep, families))
	case "E7":
		n := 24
		if len(sweep.Sizes) > 0 {
			n = sweep.Sizes[0]
		}
		tables = append(tables, benchtab.E7Ablations(n, sweep.Seeds))
	case "E8":
		n := 32
		if len(sweep.Sizes) > 0 {
			n = sweep.Sizes[len(sweep.Sizes)-1]
		}
		famName := "gnp"
		if len(families) > 0 {
			famName = families[0].Name
		}
		tables = append(tables, benchtab.E8TargetedFaults(famName, n, sweep.Seeds, sweep.Sched))
	case "E9":
		n := 24
		if len(sweep.Sizes) > 0 {
			n = sweep.Sizes[0]
		}
		famName := "gnp"
		if len(families) > 0 {
			famName = families[0].Name
		}
		tables = append(tables, benchtab.E9LossyLinks(famName, n, sweep.Seeds))
	case "E10":
		n := 24
		if len(sweep.Sizes) > 0 {
			n = sweep.Sizes[0]
		}
		famName := "gnp"
		if len(families) > 0 {
			famName = families[0].Name
		}
		tables = append(tables, benchtab.E10Churn(famName, n, sweep.Seeds, sweep.Sched))
	case "E11":
		sizes := sweep.Sizes
		if len(sizes) == 0 {
			sizes = []int{16, 24}
		}
		tables = append(tables, benchtab.E11Choreography(sizes, sweep.Seeds, sweep.Sched))
	case "E12":
		sizes := sweep.Sizes
		if len(sizes) == 0 {
			sizes = []int{16, 24}
		}
		famName := "gnp"
		if len(families) > 0 {
			famName = families[0].Name
		}
		tables = append(tables, benchtab.E12SearchTraffic(famName, sizes, sweep.Seeds, sweep.Sched))
	case "FIT":
		for _, fam := range families {
			tables = append(tables, benchtab.E2Fit(fam.Name, sweep.Sizes, sweep.Seeds, sweep.Sched))
		}
	default:
		fmt.Fprintln(stderr, "mdstbench: unknown -exp", *exp)
		return 2
	}

	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if *csv {
			fmt.Fprint(stdout, t.CSV())
		} else {
			fmt.Fprint(stdout, t.Render())
		}
	}
	return 0
}
