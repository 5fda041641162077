package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/measure"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Ablations quantifies the design choices DESIGN.md section 5 calls out:
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
func (l *Lab) Ablations() (Output, error) {
	var tables []*report.Table

	t1, err := l.ablationSyncPattern()
	if err != nil {
		return Output{}, err
	}
	t2, err := l.ablationNoise()
	if err != nil {
		return Output{}, err
	}
	t3, err := l.ablationSyncDrag()
	if err != nil {
		return Output{}, err
	}
	t4, err := l.ablationTaskEngine()
	if err != nil {
		return Output{}, err
	}
	t5, err := l.ablationModelVsNaive()
	if err != nil {
		return Output{}, err
	}
	tables = append(tables, t1, t2, t3, t4, t5)
	return Output{
		ID:     "Ablations",
		Title:  "Design-choice ablations (not a paper artifact)",
		Tables: tables,
		Notes: []string{
			"Each table isolates one mechanism of the substrate or the model;",
			"see DESIGN.md section 5 for the design rationale they validate.",
		},
	}, nil
}

// curveAtPressure measures the normalized-time curve of a workload over
// 0..8 interfering nodes of the lab's 8-node cluster at one pressure.
func (l *Lab) curveAtPressure(w workloads.Workload, pressure float64) ([]float64, error) {
	curves, err := propagation(l.Env, w, 8, privateCounts, []float64{pressure})
	if err != nil {
		return nil, err
	}
	return curves[0], nil
}

func curveRow(tb *report.Table, label string, curve []float64) {
	row := []string{label}
	for _, v := range curve {
		row = append(row, report.Norm(v))
	}
	tb.MustAddRow(row...)
}

func curveHeaders() []string {
	h := []string{"variant \\ interfering nodes"}
	for k := 0; k <= 8; k++ {
		h = append(h, fmt.Sprint(k))
	}
	return h
}

// ablationSyncPattern runs M.milc's memory profile under each engine.
func (l *Lab) ablationSyncPattern() (*report.Table, error) {
	base, err := workloads.ByName("M.milc")
	if err != nil {
		return nil, err
	}
	km, err := workloads.ByName("H.KM")
	if err != nil {
		return nil, err
	}
	gems, err := workloads.ByName("M.Gems")
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(
		"Ablation 1: same memory profile (M.milc), different synchronization pattern (pressure 8)",
		curveHeaders()...)
	variants := []struct {
		label string
		spec  app.Spec
	}{
		{"BSP (original)", base.App},
		{"Wavefront", func() app.Spec {
			s := gems.App
			s.Name = "milc-as-wavefront"
			return s
		}()},
		{"TaskPool", func() app.Spec {
			s := km.App
			s.Name = "milc-as-taskpool"
			return s
		}()},
	}
	for _, v := range variants {
		w := base
		w.Name = v.spec.Name
		w.App = v.spec
		curve, err := l.curveAtPressure(w, 8)
		if err != nil {
			return nil, err
		}
		curveRow(tb, v.label, curve)
	}
	return tb, nil
}

// ablationNoise sweeps the per-iteration compute jitter of a BSP code.
func (l *Lab) ablationNoise() (*report.Table, error) {
	base, err := workloads.ByName("M.milc")
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(
		"Ablation 2: BSP compute noise sigma (M.milc, pressure 8); noise drives post-jump growth",
		curveHeaders()...)
	for _, sigma := range []float64{0, 0.035, 0.10} {
		w := base
		w.App.NoiseSigma = sigma
		w.App.Name = fmt.Sprintf("milc-sigma-%v", sigma)
		w.Name = w.App.Name
		curve, err := l.curveAtPressure(w, 8)
		if err != nil {
			return nil, err
		}
		curveRow(tb, fmt.Sprintf("sigma=%.3f", sigma), curve)
	}
	return tb, nil
}

// ablationSyncDrag toggles the collective straggler-drag term.
func (l *Lab) ablationSyncDrag() (*report.Table, error) {
	base, err := workloads.ByName("M.milc")
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(
		"Ablation 3: collective sync drag (M.milc, pressure 8); the drag term is what N+1 max models",
		curveHeaders()...)
	for _, drag := range []float64{0, 0.12, 0.30} {
		w := base
		w.App.SyncDrag = drag
		w.App.NoiseSigma = 0 // isolate the drag effect
		w.App.Name = fmt.Sprintf("milc-drag-%v", drag)
		w.Name = w.App.Name
		curve, err := l.curveAtPressure(w, 8)
		if err != nil {
			return nil, err
		}
		curveRow(tb, fmt.Sprintf("drag=%.2f", drag), curve)
	}
	return tb, nil
}

// ablationTaskEngine toggles speculation and locality on the Hadoop
// engine.
func (l *Lab) ablationTaskEngine() (*report.Table, error) {
	base, err := workloads.ByName("H.KM")
	if err != nil {
		return nil, err
	}
	tb := report.NewTable(
		"Ablation 4: task-engine speculation and locality (H.KM profile, one interfered node, by pressure)",
		"variant", "p=2", "p=5", "p=8")
	variants := []struct {
		label       string
		speculative bool
		locality    float64
	}{
		{"speculation on, locality 0.5 (original)", true, 0.5},
		{"speculation off, locality 0.5", false, 0.5},
		{"speculation off, locality 0.9", false, 0.9},
		{"speculation on, locality 0.0", true, 0.0},
	}
	b := l.Env.NewBatch()
	handles := make([][]*measure.Value, len(variants))
	for vi, v := range variants {
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
	for vi, v := range variants {
		row := []string{v.label}
		for _, h := range handles[vi] {
			val, err := h.Result()
			if err != nil {
				return nil, err
			}
			row = append(row, report.Norm(val))
		}
		tb.MustAddRow(row...)
	}
	return tb, nil
}

// ablationModelVsNaive compares prediction errors of the full model and
// the naive proportional baseline over heterogeneous configurations.
func (l *Lab) ablationModelVsNaive() (*report.Table, error) {
	tb := report.NewTable(
		"Ablation 5: prediction error, full model vs. naive proportional baseline (heterogeneous samples)",
		"workload", "model avg err(%)", "naive avg err(%)")
	names := []string{"M.milc", "M.Gems", "H.KM"}
	configs := [][]float64{
		{7, 0, 0, 0, 0, 0, 0, 0},
		{5, 5, 0, 0, 0, 0, 0, 0},
		{8, 4, 2, 1, 0, 0, 0, 0},
		{3, 3, 3, 3, 3, 3, 3, 3},
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		m, err := l.Model(name)
		if err != nil {
			return nil, err
		}
		nm, err := l.Naive(name)
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
		tb.MustAddRow(name, report.F(stats.Mean(modelErrs), 2), report.F(stats.Mean(naiveErrs), 2))
	}
	return tb, nil
}
