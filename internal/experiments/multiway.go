package experiments

import (
	"fmt"
	"strings"

	"repro/internal/bubble"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// multiwayRow is one triple: the first app's measured normalized time and
// its prediction and error (percent) with the co-runner scores folded by
// each rule: combined, sum and max.
type multiwayRow struct {
	triple       [3]string
	actual       float64
	pred, errPct [3]float64
}

type multiwayResult []multiwayRow

// meanErr is rule i's mean error (percent) over the triples.
func (r multiwayResult) meanErr(i int) float64 {
	var errs []float64
	for _, row := range r {
		errs = append(errs, row.errPct[i])
	}
	return stats.Mean(errs)
}

// multiway evaluates the extension the paper sketches in Section 4.4 to
// lift its pairwise-co-location limitation: when three applications share
// a host, the two co-runners' bubble scores are folded into one with
// bubble.CombineScores (volume sum on the 2^s scale plus a cache-collision
// term), and the existing pairwise-profiled model predicts from the
// combined score.
//
// The experiment co-runs triples of applications, each with a 4-core unit
// per host (three units on 12 of 16 cores), and compares three predictors
// for the first application of the triple:
//
//   - combined: CombineScores of the two co-runner scores (the extension);
//   - sum: plain addition of scores (naively treating the scale as linear,
//     which overestimates because the scale is logarithmic);
//   - max: the stronger co-runner only (underestimates).
func (l *Lab) multiway() (multiwayResult, error) {
	// A dedicated environment with 4-core units so three units plus
	// headroom fit on a 16-core host; the models must be built with the
	// same unit size they are validated at.
	env, err := measure.NewEnv(cluster.Default(), l.Cfg.Seed+77)
	if err != nil {
		return nil, err
	}
	env.UnitCores = 4
	s := l.site("multiway", env, l.Cfg.heteroSamples())

	// Triples with *balanced* co-runner scores, where the three
	// combination rules disagree the most (a dominant co-runner makes
	// them all collapse to its score).
	triples := [][3]string{
		{"M.milc", "C.cact", "N.cg"},
		{"M.lmps", "C.cact", "C.gcc"},
		{"N.mg", "C.cact", "C.sopl"},
		{"M.lesl", "M.zeus", "M.Gems"},
	}
	if l.Cfg.Quick {
		triples = triples[:2]
	}

	// All the triple co-runs go through one measurement batch.
	b := env.NewBatch()
	groupHandles := make([]*measure.GroupResult, len(triples))
	for ti, tr := range triples {
		var group []workloads.Workload
		for _, n := range tr {
			w, err := workloads.ByName(n)
			if err != nil {
				return nil, err
			}
			group = append(group, w)
		}
		groupHandles[ti] = b.Group(group, 8)
	}
	if err := b.Run(); err != nil {
		return nil, err
	}

	var r multiwayResult
	for ti, tr := range triples {
		var ms [3]*core.Model
		for i, n := range tr {
			if ms[i], err = s.model(n); err != nil {
				return nil, err
			}
		}
		outs, err := groupHandles[ti].Outcomes()
		if err != nil {
			return nil, err
		}
		row := multiwayRow{triple: tr, actual: outs[0].Normalized}
		s1, s2 := ms[1].BubbleScore, ms[2].BubbleScore
		combined, err := bubble.CombineScores([]float64{s1, s2}, bubble.DefaultCollision)
		if err != nil {
			return nil, err
		}
		for i, score := range [3]float64{combined, s1 + s2, max(s1, s2)} {
			ps := make([]float64, 8)
			for j := range ps {
				ps[j] = score
			}
			if row.pred[i], err = ms[0].PredictPressures(ps); err != nil {
				return nil, err
			}
			row.errPct[i] = stats.RelErrPct(row.pred[i], row.actual)
		}
		r = append(r, row)
	}
	return r, nil
}

func (r multiwayResult) output() Output {
	tb := report.NewTable(
		"Multi-way co-location: prediction error for the first app of each triple (all hosts share 3 apps)",
		"triple", "actual", "combined (Sec 4.4)", "err(%)", "sum", "err(%)", "max", "err(%)")
	for _, row := range r {
		cells := []string{strings.Join(row.triple[:], "+"), report.Norm(row.actual)}
		for i, p := range row.pred {
			cells = append(cells, report.Norm(p), report.F(row.errPct[i], 1))
		}
		tb.MustAddRow(cells...)
	}
	return Output{
		ID:     "Multiway",
		Title:  "Beyond pairwise co-location: the Section 4.4 score-combination extension",
		Tables: []*report.Table{tb},
		Notes: []string{
			fmt.Sprintf("Mean error: combined %.1f%%, plain sum %.1f%%, max-only %.1f%%.",
				r.meanErr(0), r.meanErr(1), r.meanErr(2)),
			"The combination rule should beat both naive alternatives, validating the",
			"paper's proposed extension path.",
		},
	}
}
