package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// ablationsResult holds one measurement per design choice DESIGN.md
// section 5 calls out:
//
//  1. propagation class is produced by the synchronization pattern, not by
//     the memory profile — swapping the engine under a fixed profile flips
//     the class;
//  2. per-iteration compute noise is what gives max-dominated applications
//     their slow post-jump growth;
//  3. the collective sync-drag term is what separates N+1 max from N max;
//  4. speculative execution and data locality control how much a task
//     engine absorbs; and
//  5. propagation modelling (the full model vs. the naive proportional
//     baseline) is where the prediction accuracy comes from.
type ablationsResult struct {
	syncPattern, noise, syncDrag curves
	taskEngine                   [][]float64 // [taskVariants][pressure 2, 5, 8]
	modelVsNaive                 []modelVsNaive
}

func (l *Lab) ablations() (*ablationsResult, error) {
	r := &ablationsResult{}
	var err error
	if r.syncPattern, err = l.ablationSyncPattern(); err != nil {
		return nil, err
	}
	// Ablation 2: the per-iteration compute jitter of a BSP code.
	r.noise, err = l.ablationSweep("Ablation 2: BSP compute noise sigma (M.milc, pressure 8); noise drives post-jump growth",
		"milc-sigma-%v", "sigma=%.3f", []float64{0, 0.035, 0.10}, func(s *app.Spec, v float64) { s.NoiseSigma = v })
	if err != nil {
		return nil, err
	}
	// Ablation 3: the collective straggler-drag term, without noise to
	// isolate its effect.
	r.syncDrag, err = l.ablationSweep("Ablation 3: collective sync drag (M.milc, pressure 8); the drag term is what N+1 max models",
		"milc-drag-%v", "drag=%.2f", []float64{0, 0.12, 0.30}, func(s *app.Spec, v float64) { s.SyncDrag, s.NoiseSigma = v, 0 })
	if err != nil {
		return nil, err
	}
	if r.taskEngine, err = l.ablationTaskEngine(); err != nil {
		return nil, err
	}
	if r.modelVsNaive, err = l.ablationModelVsNaive(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r ablationsResult) output() Output {
	engine := report.NewTable(
		"Ablation 4: task-engine speculation and locality (H.KM profile, one interfered node, by pressure)",
		"variant", "p=2", "p=5", "p=8")
	for i, v := range taskVariants {
		row := []string{v.label}
		for _, val := range r.taskEngine[i] {
			row = append(row, report.Norm(val))
		}
		engine.MustAddRow(row...)
	}
	mvn := report.NewTable(
		"Ablation 5: prediction error, full model vs. naive proportional baseline (heterogeneous samples)",
		"workload", "model avg err(%)", "naive avg err(%)")
	for _, m := range r.modelVsNaive {
		mvn.MustAddRow(m.app, report.F(m.model, 2), report.F(m.naive, 2))
	}
	return Output{
		ID:     "Ablations",
		Title:  "Design-choice ablations (not a paper artifact)",
		Tables: []*report.Table{r.syncPattern.table(), r.noise.table(), r.syncDrag.table(), engine, mvn},
		Notes: []string{
			"Each table isolates one mechanism of the substrate or the model;",
			"see DESIGN.md section 5 for the design rationale they validate.",
		},
	}
}

// ablationCurves measures each variant's normalized-time curve over 0..8
// interfering nodes of the lab's 8-node cluster at pressure 8.
func (l *Lab) ablationCurves(title string, labels []string, variants []workloads.Workload) (curves, error) {
	c := curves{title: title, corner: "variant \\ interfering nodes", rows: labels, counts: privateCounts}
	for _, w := range variants {
		values, err := propagation(l.Env, w, 8, privateCounts, []float64{8})
		if err != nil {
			return curves{}, err
		}
		c.values = append(c.values, values[0])
	}
	return c, nil
}

// ablationSyncPattern runs M.milc's memory profile under each engine.
func (l *Lab) ablationSyncPattern() (curves, error) {
	base, err := workloads.ByName("M.milc")
	if err != nil {
		return curves{}, err
	}
	km, err := workloads.ByName("H.KM")
	if err != nil {
		return curves{}, err
	}
	gems, err := workloads.ByName("M.Gems")
	if err != nil {
		return curves{}, err
	}
	wave, pool := gems.App, km.App
	wave.Name, pool.Name = "milc-as-wavefront", "milc-as-taskpool"
	var variants []workloads.Workload
	for _, spec := range []app.Spec{base.App, wave, pool} {
		w := base
		w.Name, w.App = spec.Name, spec
		variants = append(variants, w)
	}
	return l.ablationCurves("Ablation 1: same memory profile (M.milc), different synchronization pattern (pressure 8)",
		[]string{"BSP (original)", "Wavefront", "TaskPool"}, variants)
}

// ablationSweep measures M.milc's curves at pressure 8 with one spec
// parameter, which set applies, swept over vals; name and label format
// each variant's workload name and row label from its value.
func (l *Lab) ablationSweep(title, name, label string, vals []float64, set func(*app.Spec, float64)) (curves, error) {
	base, err := workloads.ByName("M.milc")
	if err != nil {
		return curves{}, err
	}
	var labels []string
	var variants []workloads.Workload
	for _, v := range vals {
		w := base
		set(&w.App, v)
		w.App.Name = fmt.Sprintf(name, v)
		w.Name = w.App.Name
		labels = append(labels, fmt.Sprintf(label, v))
		variants = append(variants, w)
	}
	return l.ablationCurves(title, labels, variants)
}

// taskVariants are ablation 4's speculation and locality settings.
var taskVariants = []struct {
	label       string
	speculative bool
	locality    float64
}{
	{"speculation on, locality 0.5 (original)", true, 0.5},
	{"speculation off, locality 0.5", false, 0.5},
	{"speculation off, locality 0.9", false, 0.9},
	{"speculation on, locality 0.0", true, 0.0},
}

// ablationTaskEngine toggles speculation and locality on the Hadoop
// engine; the result is indexed [variant][pressure 2, 5, 8].
func (l *Lab) ablationTaskEngine() ([][]float64, error) {
	base, err := workloads.ByName("H.KM")
	if err != nil {
		return nil, err
	}
	b := l.Env.NewBatch()
	handles := make([][]*measure.Value, len(taskVariants))
	for vi, v := range taskVariants {
		w := base
		w.App.Speculative = v.speculative
		w.App.LocalityFrac = v.locality
		w.App.Name = fmt.Sprintf("km-%v-%v", v.speculative, v.locality)
		w.Name = w.App.Name
		handles[vi] = make([]*measure.Value, 3)
		for pi, p := range []float64{2, 5, 8} {
			ps, err := measure.HomogeneousPressures(8, 1, p)
			if err != nil {
				return nil, err
			}
			handles[vi][pi] = b.Normalized(w, ps)
		}
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	out := make([][]float64, len(taskVariants))
	for vi := range handles {
		for _, h := range handles[vi] {
			val, err := h.Result()
			if err != nil {
				return nil, err
			}
			out[vi] = append(out[vi], val)
		}
	}
	return out, nil
}

// modelVsNaive is one app's mean prediction error (percent) under the
// full model and under the naive proportional baseline.
type modelVsNaive struct {
	app          string
	model, naive float64
}

// ablationModelVsNaive compares prediction errors of the full model and
// the naive proportional baseline over heterogeneous configurations.
func (l *Lab) ablationModelVsNaive() ([]modelVsNaive, error) {
	configs := [][]float64{
		{7, 0, 0, 0, 0, 0, 0, 0},
		{5, 5, 0, 0, 0, 0, 0, 0},
		{8, 4, 2, 1, 0, 0, 0, 0},
		{3, 3, 3, 3, 3, 3, 3, 3},
	}
	var out []modelVsNaive
	for _, name := range []string{"M.milc", "M.Gems", "H.KM"} {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		m, err := l.Model(name)
		if err != nil {
			return nil, err
		}
		nm, err := l.private.naive(name)
		if err != nil {
			return nil, err
		}
		b := l.Env.NewBatch()
		handles := make([]*measure.Value, len(configs))
		for i, cfg := range configs {
			handles[i] = b.Normalized(w, cfg)
		}
		if err := b.Run(); err != nil {
			return nil, err
		}
		var modelErrs, naiveErrs []float64
		for i, cfg := range configs {
			actual, err := handles[i].Result()
			if err != nil {
				return nil, err
			}
			mp, err := m.PredictPressures(cfg)
			if err != nil {
				return nil, err
			}
			np, err := nm.PredictPressures(cfg)
			if err != nil {
				return nil, err
			}
			modelErrs = append(modelErrs, stats.RelErrPct(mp, actual))
			naiveErrs = append(naiveErrs, stats.RelErrPct(np, actual))
		}
		out = append(out, modelVsNaive{name, stats.Mean(modelErrs), stats.Mean(naiveErrs)})
	}
	return out, nil
}
