package experiments

import (
	"fmt"

	"repro/internal/bubble"
	"repro/internal/contention"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// figure1Row is one ordered pair of Figure 1: A's slowdown next to B on
// one node, predicted from A's sensitivity curve at B's bubble score and
// solved by the contention model.
type figure1Row struct {
	a, b                         string
	bScore, pred, actual, errPct float64
}

type figure1Result []figure1Row

// figure1 reproduces the background procedure of Section 2.1 (the paper's
// Figure 1): estimating the slowdown of two applications co-located on a
// *single node* purely from their separately profiled sensitivity curves
// and bubble scores — the Bubble-Up method this paper extends to
// distributed applications.
//
// For each ordered pair (A, B): A's predicted slowdown is A's sensitivity
// curve evaluated at B's bubble score; the actual slowdown comes from
// co-locating both profiles in the contention model.
func (l *Lab) figure1() (figure1Result, error) {
	node := l.Env.Cluster.HostSpec
	cores := l.Env.UnitCores
	scale, err := bubble.NewScale(node, cores)
	if err != nil {
		return nil, err
	}
	names := []string{"M.milc", "M.lmps", "C.libq", "C.mcf", "H.KM", "C.xbmk"}
	if l.Cfg.Quick {
		names = names[:4]
	}
	type prof struct {
		w     workloads.Workload
		score float64
		sens  []float64 // slowdown at each of ps
	}
	ps := append([]float64{0}, bubble.IntegerPressures()...)
	profs := map[string]prof{}
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		score, err := scale.Score(w.Prof, cores)
		if err != nil {
			return nil, err
		}
		sens, err := bubble.Sensitivity(node, w.Prof, cores, ps)
		if err != nil {
			return nil, err
		}
		profs[n] = prof{w, score, sens}
	}
	var r figure1Result
	for _, an := range names {
		for _, bn := range names {
			if an == bn {
				continue
			}
			a, b := profs[an], profs[bn]
			pred, err := stats.InterpAt(ps, a.sens, b.score)
			if err != nil {
				return nil, err
			}
			res, err := contention.Solve(node, []contention.Occupant{
				{Name: an, Prof: a.w.Prof, Cores: cores},
				{Name: bn, Prof: b.w.Prof, Cores: cores},
			})
			if err != nil {
				return nil, err
			}
			actual := res.Slowdown[0]
			r = append(r, figure1Row{an, bn, b.score, pred, actual, stats.RelErrPct(pred, actual)})
		}
	}
	return r, nil
}

func (r figure1Result) output() Output {
	tb := report.NewTable(
		"Figure 1: single-node Bubble-Up estimation — predicted vs. actual slowdown of A co-located with B",
		"A", "B", "B's score", "predicted", "actual", "error(%)")
	var errs []float64
	for _, p := range r {
		tb.MustAddRow(p.a, p.b, report.F(p.bScore, 2), report.Norm(p.pred), report.Norm(p.actual), report.F(p.errPct, 2))
		errs = append(errs, p.errPct)
	}
	return Output{
		ID:     "Figure 1",
		Title:  "Background: the single-node Bubble-Up procedure this paper extends",
		Tables: []*report.Table{tb},
		Notes: []string{
			fmt.Sprintf("Mean single-node estimation error: %.2f%% over %d ordered pairs.", stats.Mean(errs), len(errs)),
			"Residual error exists because the bubble is a streaming generator while real",
			"co-runners mix cache- and bandwidth-pressure differently — the same structural",
			"error source the distributed model inherits (Figs. 8-9).",
		},
	}
}
