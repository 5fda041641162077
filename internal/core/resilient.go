// Graceful degradation: when profiling data goes missing (the
// profile-cell-loss fault, or any future partial-profiling mode), the
// measured model cannot answer every query — Resilient layers a fallback
// predictor (typically the naive proportional baseline, which needs only
// the single-node sensitivity curve) under the primary one and tags each
// prediction with its provenance, so the placement search keeps running
// on degraded data instead of failing.

package core

import (
	"errors"
	"sync/atomic"

	"repro/internal/telemetry"
)

// MetricModelFallback counts predictions served by a Resilient fallback
// predictor, labelled by application.
const MetricModelFallback = "model_fallback_total"

// Source tags which predictor produced a resilient prediction.
type Source int

// Prediction provenance.
const (
	sourcePrimary  Source = iota // the measured interference model
	SourceFallback               // the fallback (naive) model
)

// String names the source.
func (s Source) String() string {
	if s == SourceFallback {
		return "fallback"
	}
	return "primary"
}

// Partial adapts a Model whose matrix may have lost cells: predictions
// evaluate through profile.Matrix.AtPartial, so queries touching only
// surviving cells still use the measured model and queries over lost
// cells return an error (which a wrapping Resilient turns into a
// fallback). On a complete matrix it predicts exactly like the Model.
type Partial struct{ M *Model }

// PredictPressures converts the pressures with the model's policy and
// evaluates the possibly-incomplete matrix partially.
func (p Partial) PredictPressures(pressures []float64) (float64, error) {
	if p.M == nil || p.M.Matrix == nil {
		return 0, errors.New("core: partial predictor has no model")
	}
	pr, cnt, err := p.M.Policy.Convert(pressures)
	if err != nil {
		return 0, err
	}
	return p.M.Matrix.AtPartial(pr, cnt)
}

// Resilient is a Predictor that answers from primary and falls back to
// fallback when primary errors — the model_fallback_total metric and the
// per-source counters record how often degraded data forced the naive
// path. Both wrapped predictors must be deterministic pure functions of
// the pressure vector (every predictor in this package is, and a
// primary's error set is fixed by its lost cells), so a Resilient is
// itself pure and safe to use under PredictionCache memoization.
// Counters are atomic: the parallel placement search shares one
// Resilient across restarts.
type Resilient struct {
	App      string
	primary  Predictor
	fallback Predictor

	fallbackC           *telemetry.Counter
	primaryN, fallbackN atomic.Uint64
}

// NewResilient wraps primary with a fallback. reg may be nil; with a
// registry, fallback predictions increment model_fallback_total{app=...}.
func NewResilient(app string, primary, fallback Predictor, reg *telemetry.Registry) *Resilient {
	r := &Resilient{App: app, primary: primary, fallback: fallback}
	if reg != nil {
		r.fallbackC = reg.Counter(telemetry.Label(MetricModelFallback, "app", app))
	}
	return r
}

// PredictPressures implements Predictor.
func (r *Resilient) PredictPressures(pressures []float64) (float64, error) {
	v, _, err := r.PredictTagged(pressures)
	return v, err
}

// PredictTagged predicts and reports which predictor answered.
func (r *Resilient) PredictTagged(pressures []float64) (float64, Source, error) {
	if r.primary == nil {
		return 0, sourcePrimary, errors.New("core: resilient predictor has no primary")
	}
	v, perr := r.primary.PredictPressures(pressures)
	if perr == nil {
		r.primaryN.Add(1)
		return v, sourcePrimary, nil
	}
	if r.fallback == nil {
		return 0, sourcePrimary, perr
	}
	v, err := r.fallback.PredictPressures(pressures)
	if err != nil {
		return 0, SourceFallback, err
	}
	r.fallbackN.Add(1)
	if r.fallbackC != nil {
		r.fallbackC.Inc()
	}
	return v, SourceFallback, nil
}

// Sources reports how many predictions each path has served.
func (r *Resilient) Sources() (primary, fallback uint64) {
	return r.primaryN.Load(), r.fallbackN.Load()
}
