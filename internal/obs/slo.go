package obs

import (
	"errors"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// SLO metric and event names. The burn-rate convention follows the SRE
// error-budget formulation: a burn rate of 1.0 consumes exactly the
// allowed budget; above 1.0 the budget is being spent faster than the SLO
// permits.
const (
	SLOMetricRequests        = "slo_requests_total"
	sloMetricViolations      = "slo_violations_total"
	sloMetricBreaches        = "slo_breaches_total"
	SLOMetricBurnRate        = "slo_burn_rate"
	sloMetricWindowRate      = "slo_window_violation_rate"
	sloMetricBudgetRemaining = "slo_error_budget_remaining"

	// EventSLOBreach is the SSE event type published when the burn rate
	// crosses the breach threshold (cooldown-limited).
	EventSLOBreach = "slo_breach"
)

// SLOConfig tunes an SLOTracker.
type SLOConfig struct {
	// TargetSeconds is the end-to-end latency objective: an observation
	// above it violates the SLO.
	TargetSeconds float64
	// Budget is the allowed violating fraction of requests (the error
	// budget), e.g. 0.05 for "95% of requests under target".
	Budget float64
	// Window is the count-based sliding window over which the burn rate
	// is computed. Counting requests instead of wall time keeps the
	// tracker deterministic under test and independent of arrival rate.
	Window int
	// MinRequests gates breach events until the window has seen at
	// least this many observations, so a cold start cannot alert.
	MinRequests int
	// burnThreshold is the burn rate at or above which a breach event
	// fires (default 1: the budget is being consumed at the allowed
	// rate or faster).
	burnThreshold float64
	// Cooldown is the minimum wall-clock gap between consecutive
	// slo_breach events, so a sustained breach alerts once per window
	// rather than once per request.
	Cooldown time.Duration
}

// DefaultSLOConfig returns the daemon's default SLO tuning: 500ms target,
// 5% error budget over a 256-request window, breach events at burn rate 1
// with a 10s cooldown.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		TargetSeconds: 0.5,
		Budget:        0.05,
		Window:        256,
		MinRequests:   10,
		burnThreshold: 1,
		Cooldown:      10 * time.Second,
	}
}

// sloBreach is the payload of an EventSLOBreach bus event.
type sloBreach struct {
	TargetSeconds   float64 `json:"target_seconds"`
	LatencySeconds  float64 `json:"latency_seconds"` // the observation that tripped it
	WindowRate      float64 `json:"window_violation_rate"`
	BurnRate        float64 `json:"burn_rate"`
	Requests        uint64  `json:"requests"`
	Violations      uint64  `json:"violations"`
	Breaches        uint64  `json:"breaches"`
	BudgetRemaining float64 `json:"budget_remaining"`
}

// SLOSnapshot is the /api/slo view of the tracker.
type SLOSnapshot struct {
	TargetSeconds   float64 `json:"target_seconds"`
	Budget          float64 `json:"budget"`
	Window          int     `json:"window"`
	Requests        uint64  `json:"requests"`
	Violations      uint64  `json:"violations"`
	WindowRate      float64 `json:"window_violation_rate"`
	BurnRate        float64 `json:"burn_rate"`
	BudgetRemaining float64 `json:"budget_remaining"`
	Breaches        uint64  `json:"breaches"`
}

// SLOTracker accounts one latency SLO: it counts violations against the
// target, maintains a sliding-window burn rate, exports the slo_* metric
// family, and publishes cooldown-limited slo_breach events on the bus.
// Observe is safe for concurrent callers.
type SLOTracker struct {
	cfg SLOConfig
	bus *Bus

	mu         sync.Mutex
	ring       []bool // true = violation, most recent Window observations
	idx        int
	filled     int
	windowViol int
	total      uint64
	viol       uint64
	breaches   uint64
	lastBreach time.Time
	breached   bool // a breach has fired at least once
	now        func() time.Time

	reqC, violC, breachC *telemetry.Counter
	burnG, rateG, remG   *telemetry.Gauge
}

// NewSLOTracker builds a tracker recording into reg and publishing breach
// events on bus (nil bus disables events; metrics still export).
func NewSLOTracker(cfg SLOConfig, reg *telemetry.Registry, bus *Bus) (*SLOTracker, error) {
	if reg == nil {
		return nil, errors.New("obs: SLO tracker needs a registry")
	}
	if cfg.TargetSeconds <= 0 {
		return nil, errors.New("obs: non-positive SLO target")
	}
	if cfg.Budget <= 0 || cfg.Budget >= 1 {
		return nil, errors.New("obs: SLO budget must be in (0,1)")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultSLOConfig().Window
	}
	if cfg.MinRequests <= 0 {
		cfg.MinRequests = 1
	}
	if cfg.burnThreshold <= 0 {
		cfg.burnThreshold = 1
	}
	t := &SLOTracker{
		cfg:     cfg,
		bus:     bus,
		ring:    make([]bool, cfg.Window),
		now:     time.Now,
		reqC:    reg.Counter(SLOMetricRequests),
		violC:   reg.Counter(sloMetricViolations),
		breachC: reg.Counter(sloMetricBreaches),
		burnG:   reg.Gauge(SLOMetricBurnRate),
		rateG:   reg.Gauge(sloMetricWindowRate),
		remG:    reg.Gauge(sloMetricBudgetRemaining),
	}
	reg.SetHelp(SLOMetricRequests, "Requests observed against the latency SLO.")
	reg.SetHelp(sloMetricViolations, "Requests whose end-to-end latency exceeded the SLO target.")
	reg.SetHelp(sloMetricBreaches, "Cooldown-limited SLO breach events fired.")
	reg.SetHelp(SLOMetricBurnRate, "Sliding-window violation rate divided by the error budget (1 = burning exactly the allowed budget).")
	reg.SetHelp(sloMetricWindowRate, "Fraction of the sliding window violating the SLO target.")
	reg.SetHelp(sloMetricBudgetRemaining, "1 - overall violation rate / budget (negative once the lifetime budget is overspent).")
	t.remG.Set(1)
	return t, nil
}

// SetNow replaces the tracker's clock — a test hook for deterministic
// cooldown behavior.
func (t *SLOTracker) SetNow(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// Observe records one end-to-end request latency (seconds), updates the
// slo_* metrics, and publishes a breach event when the burn rate crosses
// the threshold and the cooldown has elapsed.
func (t *SLOTracker) Observe(latencySeconds float64) {
	if t == nil {
		return
	}
	v := latencySeconds > t.cfg.TargetSeconds

	t.mu.Lock()
	t.total++
	if v {
		t.viol++
	}
	if t.filled == len(t.ring) {
		if t.ring[t.idx] {
			t.windowViol--
		}
	} else {
		t.filled++
	}
	t.ring[t.idx] = v
	if v {
		t.windowViol++
	}
	t.idx = (t.idx + 1) % len(t.ring)

	windowRate := float64(t.windowViol) / float64(t.filled)
	burn := windowRate / t.cfg.Budget
	remaining := 1 - (float64(t.viol)/float64(t.total))/t.cfg.Budget

	var breach *sloBreach
	if t.filled >= t.cfg.MinRequests && burn >= t.cfg.burnThreshold {
		now := t.now()
		if !t.breached || now.Sub(t.lastBreach) >= t.cfg.Cooldown {
			t.breached = true
			t.lastBreach = now
			t.breaches++
			breach = &sloBreach{
				TargetSeconds:   t.cfg.TargetSeconds,
				LatencySeconds:  latencySeconds,
				WindowRate:      windowRate,
				BurnRate:        burn,
				Requests:        t.total,
				Violations:      t.viol,
				Breaches:        t.breaches,
				BudgetRemaining: remaining,
			}
		}
	}
	t.mu.Unlock()

	t.reqC.Inc()
	if v {
		t.violC.Inc()
	}
	t.burnG.Set(burn)
	t.rateG.Set(windowRate)
	t.remG.Set(remaining)
	if breach != nil {
		t.breachC.Inc()
		t.bus.Publish(EventSLOBreach, *breach)
	}
}

// Snapshot returns the current SLO accounting for /api/slo.
func (t *SLOTracker) Snapshot() SLOSnapshot {
	if t == nil {
		return SLOSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := SLOSnapshot{
		TargetSeconds: t.cfg.TargetSeconds,
		Budget:        t.cfg.Budget,
		Window:        len(t.ring),
		Requests:      t.total,
		Violations:    t.viol,
		Breaches:      t.breaches,
	}
	if t.filled > 0 {
		s.WindowRate = float64(t.windowViol) / float64(t.filled)
		s.BurnRate = s.WindowRate / t.cfg.Budget
		s.BudgetRemaining = 1 - (float64(t.viol)/float64(t.total))/t.cfg.Budget
	} else {
		s.BudgetRemaining = 1
	}
	return s
}
