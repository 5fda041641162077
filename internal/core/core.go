// Package core assembles the paper's primary contribution: the
// interference-aware performance model for distributed parallel
// applications. A Model couples, per application,
//
//   - the interference propagation matrix (normalized time vs. bubble
//     pressure and number of interfering nodes, Section 3.2),
//   - the best heterogeneity mapping policy (Section 3.3), and
//   - the bubble score the application generates (Section 3.4),
//
// and predicts the normalized execution time of every application in a
// placement from profiling data alone. The package also provides the naive
// proportional model the paper uses as its baseline (Figs. 2 and 10-11).
package core

import (
	"errors"
	"fmt"

	"repro/internal/bubble"
	"repro/internal/cluster"
	"repro/internal/hetero"
	"repro/internal/measure"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Predictor estimates an application's normalized execution time from the
// heterogeneous vector of interference pressures on its nodes.
type Predictor interface {
	PredictPressures(pressures []float64) (float64, error)
}

// Model is the per-application interference model of the paper.
type Model struct {
	Workload    string
	Matrix      *profile.Matrix
	Policy      hetero.Policy
	BubbleScore float64
	// Selection retains the policy-search evidence (Table 2 data).
	Selection hetero.Selection
	// ProfilingCostPct is the fraction of settings measured while
	// building Matrix (Table 3 data).
	ProfilingCostPct float64
}

// PredictPressures converts the heterogeneous pressures with the model's
// policy and evaluates the propagation matrix.
func (m *Model) PredictPressures(pressures []float64) (float64, error) {
	if m.Matrix == nil {
		return 0, errors.New("core: model has no propagation matrix")
	}
	return m.Policy.Predict(m.Matrix, pressures)
}

// NaiveModel is the paper's baseline: heterogeneity is handled with the
// statically chosen N+1 max policy, and propagation is assumed
// proportional — interference on k of n nodes contributes k/n of the
// single-node slowdown (Section 2.2, Section 5.2).
type NaiveModel struct {
	Workload string
	// sensPressures/sensSlowdowns is the single-node sensitivity profile
	// (Bubble-Up, Fig. 1): slowdown vs. bubble pressure.
	sensPressures []float64
	sensSlowdowns []float64
	Nodes         int
	BubbleScore   float64
}

// PredictPressures applies the naive proportional aggregation.
func (nm *NaiveModel) PredictPressures(pressures []float64) (float64, error) {
	if len(nm.sensPressures) == 0 || nm.Nodes <= 0 {
		return 0, errors.New("core: naive model not initialized")
	}
	p, k, err := hetero.NPlus1Max.Convert(pressures)
	if err != nil {
		return 0, err
	}
	if p <= 0 || k <= 0 {
		return 1, nil
	}
	s, err := stats.InterpAt(nm.sensPressures, nm.sensSlowdowns, p)
	if err != nil {
		return 0, err
	}
	if s < 1 {
		s = 1
	}
	return 1 + (s-1)*stats.Clamp(k, 0, float64(nm.Nodes))/float64(nm.Nodes), nil
}

// Algorithm selects the propagation-profiling strategy for BuildModel.
type Algorithm int

// Profiling algorithm choices (Section 4).
const (
	BinaryOptimized Algorithm = iota // Algorithm 2, the paper's default
	BinaryBrute                      // Algorithm 1
	FullBrute                        // exhaustive ground truth
	Random30                         // random-30% baseline
	Random50                         // random-50% baseline
)

// String names the algorithm as in Table 3.
func (a Algorithm) String() string {
	switch a {
	case BinaryOptimized:
		return "binary-optimized"
	case BinaryBrute:
		return "binary-brute"
	case FullBrute:
		return "full-brute"
	case Random30:
		return "random-30%"
	case Random50:
		return "random-50%"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// BuildConfig parameterizes model construction.
type BuildConfig struct {
	Nodes     int       // nodes the application spans while profiled
	Algorithm Algorithm // propagation profiling strategy
	Samples   int       // heterogeneous samples for policy selection
	Seed      int64     // randomness for sampling-based pieces
	// Telemetry, when non-nil, receives per-algorithm measurement
	// counters, per-workload profiling-cost gauges, and cell-provenance
	// counts. Tracer, when non-nil, receives one span per model build.
	Telemetry *telemetry.Registry
	Tracer    *telemetry.Tracer
}

// Metric names recorded by BuildModel when Telemetry is set. The counter
// and provenance names carry an alg/workload label via telemetry.Label.
const (
	MetricProfileMeasurements = "profile_measurements_total"
	metricProfileSettings     = "profile_settings_total"
	metricProfileCostPct      = "profile_cost_pct"
	metricProfileCells        = "profile_cells_total"
	metricModelsBuilt         = "models_built_total"
)

// DefaultBuildConfig mirrors the paper: 8 nodes, binary-optimized
// profiling, 60 heterogeneous samples.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{Nodes: 8, Algorithm: BinaryOptimized, Samples: 60, Seed: 1}
}

// PropagationBatchMeasurer adapts a measurement environment to the
// profiling algorithms: a setting is w's normalized time with Interfering
// nodes at homogeneous Pressure, and each round of settings an algorithm
// requests becomes one measure.Batch fanned over the environment's worker
// pool.
func PropagationBatchMeasurer(env *measure.Env, w workloads.Workload, nodes int) profile.BatchMeasurer {
	return func(settings []profile.Setting) ([]float64, error) {
		b := env.NewBatch()
		handles := make([]*measure.Value, len(settings))
		for i, s := range settings {
			ps, err := measure.HomogeneousPressures(nodes, s.Interfering, s.Pressure)
			if err != nil {
				return nil, err
			}
			handles[i] = b.Normalized(w, ps)
		}
		if err := b.Run(); err != nil {
			return nil, err
		}
		out := make([]float64, len(settings))
		for i, h := range handles {
			v, err := h.Result()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
}

// HeteroBatchMeasurer adapts a measurement environment to the policy
// search: each batch of pressure vectors becomes one measure.Batch.
func HeteroBatchMeasurer(env *measure.Env, w workloads.Workload) hetero.BatchMeasurer {
	return func(configs [][]float64) ([]float64, error) {
		b := env.NewBatch()
		handles := make([]*measure.Value, len(configs))
		for i, cfg := range configs {
			handles[i] = b.Normalized(w, cfg)
		}
		if err := b.Run(); err != nil {
			return nil, err
		}
		out := make([]float64, len(configs))
		for i, h := range handles {
			v, err := h.Result()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
}

// BuildModel constructs the full interference model for one workload by
// profiling the environment: propagation matrix, heterogeneity policy, and
// bubble score.
func BuildModel(env *measure.Env, w workloads.Workload, cfg BuildConfig) (*Model, error) {
	if env == nil {
		return nil, errors.New("core: nil environment")
	}
	if cfg.Nodes <= 0 {
		return nil, errors.New("core: non-positive node count")
	}
	if cfg.Samples <= 0 {
		return nil, errors.New("core: non-positive sample count")
	}
	span := cfg.Tracer.StartSpan("core.build-model/" + w.Name)
	defer span.End()
	meas := PropagationBatchMeasurer(env, w, cfg.Nodes)
	var res profile.Result
	var err error
	rng := sim.NewRNG(cfg.Seed).Stream("build").Stream(w.Name)
	// The binary searches run at profile's default indistinguishability
	// threshold (eps 0).
	switch cfg.Algorithm {
	case BinaryOptimized:
		res, err = profile.BinaryOptimizedBatch(meas, bubble.MaxPressure, cfg.Nodes, 0)
	case BinaryBrute:
		res, err = profile.BinaryBruteBatch(meas, bubble.MaxPressure, cfg.Nodes, 0)
	case FullBrute:
		res, err = profile.FullBruteBatch(meas, bubble.MaxPressure, cfg.Nodes)
	case Random30:
		res, err = profile.RandomFracBatch(meas, bubble.MaxPressure, cfg.Nodes, 0.30, rng.Stream("random"))
	case Random50:
		res, err = profile.RandomFracBatch(meas, bubble.MaxPressure, cfg.Nodes, 0.50, rng.Stream("random"))
	default:
		return nil, fmt.Errorf("core: unknown algorithm %v", cfg.Algorithm)
	}
	if err != nil {
		return nil, fmt.Errorf("core: profiling %s: %w", w.Name, err)
	}
	if tel := cfg.Telemetry; tel != nil {
		alg := cfg.Algorithm.String()
		tel.Counter(telemetry.Label(MetricProfileMeasurements, "alg", alg)).Add(uint64(res.Measured))
		tel.Counter(telemetry.Label(metricProfileSettings, "alg", alg)).Add(uint64(res.Total))
		tel.Gauge(telemetry.Label(metricProfileCostPct, "workload", w.Name)).Set(res.CostPct())
		for prov, n := range res.Provenance {
			tel.Counter(telemetry.Label(metricProfileCells, "alg", alg, "prov", prov)).Add(uint64(n))
		}
		tel.Counter(metricModelsBuilt).Inc()
	}
	sel, err := hetero.SelectBatch(res.Matrix, HeteroBatchMeasurer(env, w), cfg.Nodes, bubble.MaxPressure, cfg.Samples, rng.Stream("hetero"))
	if err != nil {
		return nil, fmt.Errorf("core: policy selection %s: %w", w.Name, err)
	}
	score, err := MeasureBubbleScore(env, w)
	if err != nil {
		return nil, err
	}
	return &Model{
		Workload:         w.Name,
		Matrix:           res.Matrix,
		Policy:           sel.Best,
		BubbleScore:      score,
		Selection:        sel,
		ProfilingCostPct: res.CostPct(),
	}, nil
}

// MeasureBubbleScore measures the average interference intensity the
// workload generates across its nodes (Section 3.4): per-node generation
// profiles (master vs. slaves) are scored on the bubble scale and averaged.
func MeasureBubbleScore(env *measure.Env, w workloads.Workload) (float64, error) {
	scale, err := bubble.NewScale(env.Cluster.HostSpec, env.UnitCores)
	if err != nil {
		return 0, err
	}
	// Slave score, plus the master's when it differs.
	slave, err := scale.Score(w.GenProfile(1), env.UnitCores)
	if err != nil {
		return 0, err
	}
	if w.MasterGenScale == 1 {
		return slave, nil
	}
	master, err := scale.Score(w.GenProfile(0), env.UnitCores)
	if err != nil {
		return 0, err
	}
	// Average over the nodes of an 8-node deployment: one master plus
	// seven slaves.
	const defaultNodes = 8
	return (master + slave*(defaultNodes-1)) / defaultNodes, nil
}

// BuildNaiveModel constructs the baseline model from the single-node
// sensitivity profile only.
func BuildNaiveModel(env *measure.Env, w workloads.Workload, nodes int) (*NaiveModel, error) {
	if env == nil {
		return nil, errors.New("core: nil environment")
	}
	if nodes <= 0 {
		return nil, errors.New("core: non-positive node count")
	}
	ps := bubble.IntegerPressures()
	sens, err := bubble.Sensitivity(env.Cluster.HostSpec, w.Prof, env.UnitCores, ps)
	if err != nil {
		return nil, err
	}
	score, err := MeasureBubbleScore(env, w)
	if err != nil {
		return nil, err
	}
	// Anchor the curve at (0, 1) so sub-unit scores interpolate sanely.
	return &NaiveModel{
		Workload:      w.Name,
		sensPressures: append([]float64{0}, ps...),
		sensSlowdowns: append([]float64{1}, sens...),
		Nodes:         nodes,
		BubbleScore:   score,
	}, nil
}

// PressuresFor derives, for one application in a placement, the
// heterogeneous interference vector its model consumes: one entry per
// *unit* of the application (a unit is one logical node of its distributed
// execution), holding the combined bubble score of the other units sharing
// that unit's host — co-located applications, and sibling units of the
// application itself when two of its units are packed together. Multiple
// co-runners (placements beyond the paper's pairwise rule) are folded with
// the Section 4.4 score-combination rule (bubble.CombineScores); with a
// single co-runner the combination is the identity, so pairwise behaviour
// is unchanged.
func PressuresFor(p *cluster.Placement, appName string, scores map[string]float64) ([]float64, error) {
	if p == nil {
		return nil, errors.New("core: nil placement")
	}
	positions := p.UnitPositions(appName)
	if len(positions) == 0 {
		return nil, fmt.Errorf("core: app %q not in placement", appName)
	}
	out := make([]float64, len(positions))
	for i, up := range positions {
		var coScores []float64
		for s := 0; s < p.HostSlots; s++ {
			if s == up.Slot {
				continue
			}
			other := p.At(up.Host, s)
			if other == "" {
				continue
			}
			sc, ok := scores[other]
			if !ok {
				return nil, fmt.Errorf("core: no bubble score for %q", other)
			}
			coScores = append(coScores, sc)
		}
		combined, err := bubble.CombineScores(coScores, bubble.DefaultCollision)
		if err != nil {
			return nil, err
		}
		out[i] = combined
	}
	return out, nil
}

// PredictPlacement predicts the normalized execution time of every
// application in the placement using the given per-app predictors and
// bubble scores.
func PredictPlacement(p *cluster.Placement, predictors map[string]Predictor, scores map[string]float64) (map[string]float64, error) {
	if p == nil {
		return nil, errors.New("core: nil placement")
	}
	out := map[string]float64{}
	for _, a := range p.Apps() {
		pred, ok := predictors[a]
		if !ok {
			return nil, fmt.Errorf("core: no predictor for %q", a)
		}
		ps, err := PressuresFor(p, a, scores)
		if err != nil {
			return nil, err
		}
		v, err := pred.PredictPressures(ps)
		if err != nil {
			return nil, err
		}
		out[a] = v
	}
	return out, nil
}
