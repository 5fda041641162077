// Package drift is the model-drift observability subsystem: it turns the
// live (predicted, observed) slowdown pairs a running deployment produces
// into continuously maintained model-quality signals. The paper profiles
// each application once and trusts the model forever; its own future-work
// section names the reasons that fails in production — new datasets,
// binary updates, platform changes (Section 4.4 "Static Profiling"). The
// Tracker closes the observability half of that loop: every placement
// decision feeds its residual back to the exact propagation-matrix cells
// the prediction interpolated between, so the deployment can *see* which
// parts of which models have gone stale and re-profile only those cells
// with the existing binary-search profiler (ROADMAP item 5).
//
// Per cell the Tracker maintains an EWMA of the signed and absolute
// relative residual plus a staleness score — the number of rounds since an
// observation last *confirmed* the cell (landed within the residual
// threshold). Fleet-level it derives mean and p95 absolute residual, a
// calibration ratio (observed over predicted mass), and the stale-cell
// count, exported as drift_* gauges. EndRound evaluates the thresholds and
// returns drift Events that name the cells to re-profile, ranked by how
// badly they disagree with production.
//
// Observe is the hot path — one call per application per verified placement
// decision, O(1) and allocation-free — so it can sit behind the daemon's
// serving path without showing up in profiles. A "round" here is whatever
// the caller counts; interfd counts verified decisions.
// The companion decision audit log lives in audit.go.
package drift

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// The tracker's fixed tuning (docs/OBSERVABILITY.md, "Why these values").
const (
	// alpha is the EWMA learning rate for residuals.
	alpha = 0.25
	// residualThreshold is the absolute relative residual (a fraction)
	// beyond which an observation stops confirming the cells it touches,
	// and beyond which a warm cell or application counts as drifting.
	residualThreshold = 0.10
	// maxCellsPerEvent caps the re-profiling recommendation list of one
	// event.
	maxCellsPerEvent = 16
)

// Config tunes a Tracker. The zero value is invalid; start from
// DefaultConfig.
type Config struct {
	// StaleAfter is the number of rounds a cell may go without a
	// confirming observation before it counts stale.
	StaleAfter int
	// MinObservations is the per-application warm-up before drift events
	// can fire.
	MinObservations int
	// EventCooldown is the minimum number of rounds between two events
	// for the same application, so a persistently drifted model does not
	// fire every round.
	EventCooldown int
}

// DefaultConfig returns the daemon's tuning: staleness after 20
// unconfirmed rounds, an 8-observation warm-up and a 10-round cooldown.
func DefaultConfig() Config {
	return Config{
		StaleAfter:      20,
		MinObservations: 8,
		EventCooldown:   10,
	}
}

func (c Config) validate() error {
	if c.StaleAfter <= 0 {
		return errors.New("drift: non-positive stale-after")
	}
	if c.MinObservations < 1 {
		return errors.New("drift: min observations < 1")
	}
	if c.EventCooldown < 0 {
		return errors.New("drift: negative event cooldown")
	}
	return nil
}

// Metric names recorded when the Tracker is built over a registry. The
// per-application variants carry an app label via telemetry.Label.
const (
	MetricObservations     = "drift_observations_total"
	MetricAbsResidual      = "drift_abs_residual"
	MetricMeanAbsResidual  = "drift_mean_abs_residual"
	MetricP95AbsResidual   = "drift_p95_abs_residual"
	MetricCalibrationRatio = "drift_calibration_ratio"
	MetricStaleCells       = "drift_stale_cells"
	MetricCellsTracked     = "drift_cells_tracked"
	MetricEvents           = "drift_events_total"
	MetricAppResidual      = "drift_app_recent_abs_residual"
	MetricAppStaleCells    = "drift_app_stale_cells"
)

// CellRef names one propagation-matrix cell in the profiler's vocabulary:
// Pressure and Interfering are exactly a profile.Setting, so a re-profiling
// pass can hand the recommendation straight to the binary-search profiler.
type CellRef struct {
	App         string  `json:"app"`
	Pressure    float64 `json:"pressure"`    // bubble pressure of the cell's row
	Interfering int     `json:"interfering"` // interfering-node column
	// Residual is the EWMA of the signed relative residual
	// (observed-predicted)/predicted credited to this cell.
	Residual    float64 `json:"residual"`
	AbsResidual float64 `json:"abs_residual"`
	// Staleness is the number of rounds since an observation last
	// confirmed this cell (its whole tracked life when never confirmed).
	Staleness    int    `json:"staleness"`
	Observations uint32 `json:"observations"`
}

// Event reasons.
const (
	ReasonResidual  = "residual"  // recent error above the threshold
	ReasonStaleness = "staleness" // cells unconfirmed for too long
)

// Event is one threshold crossing: the named application's model disagrees
// with production (or has gone unconfirmed), and Cells lists the exact
// matrix cells a targeted re-profiling pass should re-measure, worst first.
type Event struct {
	Round             int       `json:"round"`
	App               string    `json:"app"`
	Reason            string    `json:"reason"`
	RecentAbsResidual float64   `json:"recent_abs_residual"`
	CalibrationRatio  float64   `json:"calibration_ratio"`
	StaleCells        int       `json:"stale_cells"`
	Cells             []CellRef `json:"cells"`
}

// cellState is the per-matrix-cell drift record. Rounds are stored
// relative to the round the application was registered in.
type cellState struct {
	resid     float64 // EWMA of the signed relative residual
	absResid  float64 // EWMA of the absolute relative residual
	obs       uint32
	lastObs   int32 // last round credited to this cell; -1 never
	lastOK    int32 // last round a confirming observation landed; -1 never
	everStale bool  // reported stale at least once (snapshot bookkeeping)
}

// appState tracks one registered application.
type appState struct {
	name       string
	pressures  int
	nodes      int
	registered int // round the app was registered in
	cells      []cellState

	observations  uint64
	absErrEWMA    float64
	predictedSum  float64
	observedSum   float64
	lastEventAt   int // round of the last fired event; -1 never
	residualGauge *telemetry.Gauge
	staleGauge    *telemetry.Gauge
}

// cell returns the state for matrix row i (pressure i+1), column j.
func (a *appState) cell(i, j int) *cellState { return &a.cells[i*a.nodes+(j-1)] }

// Tracker ingests (predicted, observed) slowdown pairs per placement
// decision and maintains per-cell and fleet-level drift state. Safe for
// concurrent use; Observe is O(1) and allocation-free.
type Tracker struct {
	mu    sync.Mutex
	cfg   Config
	apps  map[string]*appState
	round int // highest round seen

	eventsFired uint64

	// telemetry handles, resolved once (all nil when reg was nil).
	reg        *telemetry.Registry
	obsCounter *telemetry.Counter
	absHist    *telemetry.Histogram
	meanGauge  *telemetry.Gauge
	p95Gauge   *telemetry.Gauge
	calibGauge *telemetry.Gauge
	staleGauge *telemetry.Gauge
	cellsGauge *telemetry.Gauge
	evCounter  *telemetry.Counter

	scratch []float64 // reused by EndRound/Snapshot percentile passes
}

// New builds a Tracker. reg may be nil for an unexported tracker; when
// non-nil the drift_* metrics (with help text) are registered immediately
// so the Prometheus exposition carries them from the first scrape.
func New(cfg Config, reg *telemetry.Registry) (*Tracker, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tracker{cfg: cfg, apps: map[string]*appState{}, reg: reg}
	if reg != nil {
		for name, help := range map[string]string{
			MetricObservations:     "Predicted-vs-observed slowdown pairs ingested by the drift tracker.",
			MetricAbsResidual:      "Absolute relative residual |observed-predicted|/predicted per observation.",
			MetricMeanAbsResidual:  "Mean per-cell EWMA absolute residual over all observed matrix cells.",
			MetricP95AbsResidual:   "95th-percentile per-cell EWMA absolute residual over all observed matrix cells.",
			MetricCalibrationRatio: "Fleet calibration: total observed slowdown mass over total predicted.",
			MetricStaleCells:       "Matrix cells without a confirming observation for longer than the staleness window.",
			MetricCellsTracked:     "Measurable propagation-matrix cells registered with the drift tracker.",
			MetricEvents:           "Drift events fired (threshold crossings recommending cells to re-profile).",
			MetricAppResidual:      "Recent EWMA absolute residual per application.",
			MetricAppStaleCells:    "Stale matrix cells per application.",
		} {
			reg.SetHelp(name, help)
		}
		t.obsCounter = reg.Counter(MetricObservations)
		t.absHist = reg.Histogram(MetricAbsResidual, telemetry.ExpBuckets(0.01, 2, 10))
		t.meanGauge = reg.Gauge(MetricMeanAbsResidual)
		t.p95Gauge = reg.Gauge(MetricP95AbsResidual)
		t.calibGauge = reg.Gauge(MetricCalibrationRatio)
		t.staleGauge = reg.Gauge(MetricStaleCells)
		t.cellsGauge = reg.Gauge(MetricCellsTracked)
		t.evCounter = reg.Counter(MetricEvents)
	}
	return t, nil
}

// Register adds an application whose propagation matrix has the given
// dimensions (pressure rows x interfering-node columns, excluding the
// definitional column 0). round anchors staleness for never-confirmed
// cells. Re-registering an application resets its state (the
// re-profiled-model case).
func (t *Tracker) Register(app string, pressures, nodes, round int) error {
	if app == "" {
		return errors.New("drift: empty application name")
	}
	if pressures <= 0 || nodes <= 0 {
		return fmt.Errorf("drift: non-positive matrix dimensions %dx%d", pressures, nodes)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &appState{
		name: app, pressures: pressures, nodes: nodes, registered: round,
		cells: make([]cellState, pressures*nodes), lastEventAt: -1,
	}
	for i := range st.cells {
		st.cells[i].lastObs, st.cells[i].lastOK = -1, -1
	}
	if t.reg != nil {
		st.residualGauge = t.reg.Gauge(telemetry.Label(MetricAppResidual, "app", app))
		st.staleGauge = t.reg.Gauge(telemetry.Label(MetricAppStaleCells, "app", app))
	}
	t.apps[app] = st
	if t.cellsGauge != nil {
		total := 0
		for _, a := range t.apps {
			total += len(a.cells)
		}
		t.cellsGauge.Set(float64(total))
	}
	return nil
}

// Observe ingests one placement decision's outcome for app: the model
// predicted `predicted`, production observed `observed`, both normalized
// slowdowns, at matrix coordinates (pressure, count) — the homogeneous
// point the application's heterogeneity policy converted its pressure
// vector to. The relative residual updates the application EWMA and is
// distributed over the (up to four) cells the prediction interpolated
// between with bilinear credit, the same assignment online.Estimator uses
// to refine values — here it maintains quality signals instead.
//
// O(1) and allocation-free: one map lookup, constant arithmetic.
func (t *Tracker) Observe(app string, pressure, count, predicted, observed float64, round int) error {
	if predicted <= 0 || observed <= 0 ||
		math.IsNaN(predicted) || math.IsInf(predicted, 0) ||
		math.IsNaN(observed) || math.IsInf(observed, 0) {
		return fmt.Errorf("drift: invalid observation pair (%v, %v)", predicted, observed)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.apps[app]
	if !ok {
		return fmt.Errorf("drift: unregistered application %q", app)
	}
	if round > t.round {
		t.round = round
	}

	relErr := (observed - predicted) / predicted
	absErr := relErr
	if absErr < 0 {
		absErr = -absErr
	}
	st.observations++
	if st.observations == 1 {
		st.absErrEWMA = absErr
	} else {
		st.absErrEWMA = (1-alpha)*st.absErrEWMA + alpha*absErr
	}
	st.predictedSum += predicted
	st.observedSum += observed
	if t.obsCounter != nil {
		t.obsCounter.Inc()
		t.absHist.Observe(absErr)
	}

	if pressure <= 0 || count <= 0 {
		// Interference-free decisions touch only the definitional column
		// 0; there is no cell to credit.
		return nil
	}
	if pressure > float64(st.pressures) {
		pressure = float64(st.pressures)
	}
	if count > float64(st.nodes) {
		count = float64(st.nodes)
	}
	confirming := absErr <= residualThreshold

	// Bilinear credit over the surrounding integer cells — row i holds
	// pressure i+1, row -1 is the virtual all-ones row, column 0 is
	// pinned; neither definitional edge is tracked. The four corners are
	// unrolled into fixed arrays so the hot path never allocates.
	pLo := int(math.Floor(pressure)) - 1
	pFrac := pressure - math.Floor(pressure)
	cLo := int(math.Floor(count))
	cFrac := count - math.Floor(count)
	rows := [4]int{pLo, pLo, pLo + 1, pLo + 1}
	cols := [4]int{cLo, cLo + 1, cLo, cLo + 1}
	weights := [4]float64{
		(1 - pFrac) * (1 - cFrac),
		(1 - pFrac) * cFrac,
		pFrac * (1 - cFrac),
		pFrac * cFrac,
	}
	for k := 0; k < 4; k++ {
		w := weights[k]
		if w == 0 {
			continue
		}
		i, j := rows[k], cols[k]
		if i < 0 || i >= st.pressures || j < 1 || j > st.nodes {
			continue
		}
		c := st.cell(i, j)
		rate := alpha * w
		if c.obs == 0 {
			c.resid = relErr
			c.absResid = absErr
		} else {
			c.resid = (1-rate)*c.resid + rate*relErr
			c.absResid = (1-rate)*c.absResid + rate*absErr
		}
		c.obs++
		c.lastObs = int32(round)
		if confirming {
			c.lastOK = int32(round)
		}
	}
	return nil
}

// staleness returns the cell's rounds-without-confirmation at `round`.
// Never-confirmed cells age from the application's registration round.
func (a *appState) staleness(c *cellState, round int) int {
	anchor := a.registered
	if c.lastOK >= 0 {
		anchor = int(c.lastOK)
	}
	s := round - anchor
	if s < 0 {
		return 0
	}
	return s
}

// staleCells counts the application's cells past the staleness window. A
// cell participates once it has been observed at least once — cells the
// deployment's decisions never exercise carry no production evidence and
// are not declared stale.
func (a *appState) staleCells(round, after int) int {
	n := 0
	for i := range a.cells {
		c := &a.cells[i]
		if c.obs > 0 && a.staleness(c, round) > after {
			n++
		}
	}
	return n
}

func (a *appState) calibration() float64 {
	if a.predictedSum <= 0 {
		return 1
	}
	return a.observedSum / a.predictedSum
}

// EndRound closes round bookkeeping: it refreshes the fleet and per-app
// gauges from the current cell state and returns the drift events that
// fired this round (nil when none). Events are deterministic for a
// deterministic observation stream and ordered by application name.
func (t *Tracker) EndRound(round int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if round > t.round {
		t.round = round
	}

	names := make([]string, 0, len(t.apps))
	for name := range t.apps {
		names = append(names, name)
	}
	sort.Strings(names)

	var events []Event
	t.scratch = t.scratch[:0]
	var predictedSum, observedSum float64
	staleTotal := 0
	for _, name := range names {
		st := t.apps[name]
		stale := st.staleCells(round, t.cfg.StaleAfter)
		staleTotal += stale
		predictedSum += st.predictedSum
		observedSum += st.observedSum
		for i := range st.cells {
			if st.cells[i].obs > 0 {
				t.scratch = append(t.scratch, st.cells[i].absResid)
			}
		}
		if st.residualGauge != nil {
			st.residualGauge.Set(st.absErrEWMA)
			st.staleGauge.Set(float64(stale))
		}
		if ev, ok := t.eventFor(st, round, stale); ok {
			events = append(events, ev)
			st.lastEventAt = round
			t.eventsFired++
			if t.evCounter != nil {
				t.evCounter.Inc()
			}
		}
	}

	mean, p95 := residualStats(t.scratch)
	calib := 1.0
	if predictedSum > 0 {
		calib = observedSum / predictedSum
	}
	if t.meanGauge != nil {
		t.meanGauge.Set(mean)
		t.p95Gauge.Set(p95)
		t.calibGauge.Set(calib)
		t.staleGauge.Set(float64(staleTotal))
	}
	return events
}

// eventFor evaluates the thresholds for one application at round end.
func (t *Tracker) eventFor(st *appState, round, stale int) (Event, bool) {
	if st.observations < uint64(t.cfg.MinObservations) {
		return Event{}, false
	}
	if st.lastEventAt >= 0 && round-st.lastEventAt < t.cfg.EventCooldown {
		return Event{}, false
	}
	reason := ""
	switch {
	case st.absErrEWMA > residualThreshold:
		reason = ReasonResidual
	case stale > 0:
		reason = ReasonStaleness
	default:
		return Event{}, false
	}
	return Event{
		Round:             round,
		App:               st.name,
		Reason:            reason,
		RecentAbsResidual: st.absErrEWMA,
		CalibrationRatio:  st.calibration(),
		StaleCells:        stale,
		Cells:             t.recommendLocked(st, round),
	}, true
}

// recommendLocked ranks the application's cells worth re-profiling: every
// observed cell whose EWMA absolute residual exceeds the threshold or
// whose staleness passed the window, worst residual first (ties broken by
// matrix position for determinism), capped at maxCellsPerEvent. When no
// individual cell crosses a threshold (early drift dilutes over bilinear
// weights) the event still recommends the worst observed cells, so a
// re-profiling pass always has concrete targets.
func (t *Tracker) recommendLocked(st *appState, round int) []CellRef {
	var out, all []CellRef
	for i := 0; i < st.pressures; i++ {
		for j := 1; j <= st.nodes; j++ {
			c := st.cell(i, j)
			if c.obs == 0 {
				continue
			}
			staleness := st.staleness(c, round)
			ref := CellRef{
				App:      st.name,
				Pressure: float64(i + 1), Interfering: j,
				Residual: c.resid, AbsResidual: c.absResid,
				Staleness: staleness, Observations: c.obs,
			}
			all = append(all, ref)
			if c.absResid <= residualThreshold && staleness <= t.cfg.StaleAfter {
				continue
			}
			if staleness > t.cfg.StaleAfter {
				c.everStale = true
			}
			out = append(out, ref)
		}
	}
	if len(out) == 0 {
		out = all
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].AbsResidual != out[b].AbsResidual {
			return out[a].AbsResidual > out[b].AbsResidual
		}
		if out[a].Pressure != out[b].Pressure {
			return out[a].Pressure < out[b].Pressure
		}
		return out[a].Interfering < out[b].Interfering
	})
	if len(out) > maxCellsPerEvent {
		out = out[:maxCellsPerEvent]
	}
	return out
}

// residualStats returns the mean and 95th percentile of vs (which it
// sorts in place); (0, 0) when empty.
func residualStats(vs []float64) (mean, p95 float64) {
	if len(vs) == 0 {
		return 0, 0
	}
	sort.Float64s(vs)
	var sum float64
	for _, v := range vs {
		sum += v
	}
	idx := int(math.Ceil(0.95*float64(len(vs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sum / float64(len(vs)), vs[idx]
}

// AppSnapshot summarizes one application's drift state.
type AppSnapshot struct {
	App               string    `json:"app"`
	Observations      uint64    `json:"observations"`
	RecentAbsResidual float64   `json:"recent_abs_residual"`
	CalibrationRatio  float64   `json:"calibration_ratio"`
	StaleCells        int       `json:"stale_cells"`
	ObservedCells     int       `json:"observed_cells"`
	TotalCells        int       `json:"total_cells"`
	WorstCells        []CellRef `json:"worst_cells,omitempty"`
}

// Snapshot is the queryable drift state served at /api/drift and embedded
// as the final RunReport drift section.
type Snapshot struct {
	Round            int           `json:"round"`
	Observations     uint64        `json:"observations"`
	MeanAbsResidual  float64       `json:"mean_abs_residual"`
	P95AbsResidual   float64       `json:"p95_abs_residual"`
	CalibrationRatio float64       `json:"calibration_ratio"`
	StaleCells       int           `json:"stale_cells"`
	CellsTracked     int           `json:"cells_tracked"`
	EventsFired      uint64        `json:"events_fired"`
	Apps             []AppSnapshot `json:"apps"`
}

// worstCellsCap bounds the per-app cell list in a Snapshot.
const worstCellsCap = 8

// Snapshot captures the current drift state: fleet aggregates plus per-app
// summaries with their worst cells, deterministically ordered.
func (t *Tracker) Snapshot() Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.apps))
	for name := range t.apps {
		names = append(names, name)
	}
	sort.Strings(names)

	snap := Snapshot{Round: t.round, EventsFired: t.eventsFired}
	t.scratch = t.scratch[:0]
	var predictedSum, observedSum float64
	for _, name := range names {
		st := t.apps[name]
		observed := 0
		var worst []CellRef
		for i := 0; i < st.pressures; i++ {
			for j := 1; j <= st.nodes; j++ {
				c := st.cell(i, j)
				if c.obs == 0 {
					continue
				}
				observed++
				t.scratch = append(t.scratch, c.absResid)
				worst = append(worst, CellRef{
					App:      st.name,
					Pressure: float64(i + 1), Interfering: j,
					Residual: c.resid, AbsResidual: c.absResid,
					Staleness: st.staleness(c, t.round), Observations: c.obs,
				})
			}
		}
		sort.Slice(worst, func(a, b int) bool {
			if worst[a].AbsResidual != worst[b].AbsResidual {
				return worst[a].AbsResidual > worst[b].AbsResidual
			}
			if worst[a].Pressure != worst[b].Pressure {
				return worst[a].Pressure < worst[b].Pressure
			}
			return worst[a].Interfering < worst[b].Interfering
		})
		if len(worst) > worstCellsCap {
			worst = worst[:worstCellsCap]
		}
		stale := st.staleCells(t.round, t.cfg.StaleAfter)
		snap.Apps = append(snap.Apps, AppSnapshot{
			App:               st.name,
			Observations:      st.observations,
			RecentAbsResidual: st.absErrEWMA,
			CalibrationRatio:  st.calibration(),
			StaleCells:        stale,
			ObservedCells:     observed,
			TotalCells:        len(st.cells),
			WorstCells:        worst,
		})
		snap.Observations += st.observations
		snap.StaleCells += stale
		snap.CellsTracked += len(st.cells)
		predictedSum += st.predictedSum
		observedSum += st.observedSum
	}
	snap.MeanAbsResidual, snap.P95AbsResidual = residualStats(t.scratch)
	snap.CalibrationRatio = 1
	if predictedSum > 0 {
		snap.CalibrationRatio = observedSum / predictedSum
	}
	return snap
}

// SnapshotAny is Snapshot behind an any-typed function value, the shape
// telemetry.RunReport.SetDriftSource and obs.Options.DriftSnapshot want.
func (t *Tracker) SnapshotAny() any { return t.Snapshot() }
