package main

import (
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// exactMetrics must repeat bit for bit when the same seed runs twice:
// they are computed from outputs that depend on the seed alone.
var exactMetrics = map[string]bool{"quality_ratio": true}

// aaRuns is how many runs per workload make up one set: the fewest whose
// quartiles mean something, and what the bounds were set from.
const aaRuns = 5

// aaRun measures the same code twice: two sets of aaRuns runs per workload,
// run r of either set on seed+r. It prints each end-to-end metric's median
// and quartiles per set and fails when the medians differ by more than the
// metric's own bound, when an exact metric does not repeat, or when any
// operation failed.
func aaRun(spec benchSpec, env runEnv, names []string) error {
	// values[set][workload][metric] lists one value per run.
	var values [2]map[string]map[string][]float64
	failed := 0
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for r := 0; r < aaRuns; r++ {
			e := env
			e.seed = env.seed + int64(r)
			for _, name := range names {
				out, err := endToEnd(spec, e, name)
				if err != nil {
					return fmt.Errorf("set %d seed %d: %w", set+1, e.seed, err)
				}
				failed += out.Failed
				if values[set][name] == nil {
					values[set][name] = map[string][]float64{}
				}
				for m, v := range out.Metrics {
					values[set][name][m] = append(values[set][name][m], v.Value)
				}
				fmt.Fprintf(os.Stderr, "bench: set %d run %d/%d %s done\n", set+1, r+1, aaRuns, name)
			}
		}
	}

	disagreements := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tq1..q3 A\tmedian B\tq1..q3 B\tdiff\tbound\t")
	for _, name := range names {
		for _, d := range spec.EndToEnd {
			a, b := values[0][name][d.Name], values[1][name][d.Name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			diff := math.Abs(b2-a2) / math.Abs(a2)
			verdict := ""
			if diff > d.Bound {
				verdict = "DISAGREE"
				disagreements++
			}
			if exactMetrics[d.Name] {
				for r := range a {
					if a[r] != b[r] {
						verdict = "NOT EXACT"
						disagreements++
						break
					}
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.5g..%.5g\t%.6g\t%.5g..%.5g\t%.2f%%\t%.3g%%\t%s\n",
				name, d.Name, d.Unit, a2, a1, a3, b2, b1, b3, 100*diff, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	switch {
	case failed > 0:
		return fmt.Errorf("%d operations failed verification", failed)
	case disagreements > 0:
		return fmt.Errorf("%d metrics disagree between two sets of runs of the same code", disagreements)
	}
	return nil
}
