package placement

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// errPred is a predictor that always fails, so a search over it fails
// while it runs, after validation has passed.
type errPred struct{}

func (errPred) PredictPressures([]float64) (float64, error) {
	return 0, errors.New("errPred: no prediction")
}

// searchAllJobs is a batch mixing what SearchAll must keep apart:
// constrained and unconstrained searches, both goals, both methods,
// crashed hosts, a hierarchical search and unequal restart counts.
func searchAllJobs() []Job {
	cfg := func(seed int64) Config {
		c := DefaultConfig(seed)
		c.Iterations = 300
		return c
	}
	qos := cfg(3)
	qos.QoS = &QoS{App: "sens", MaxNormalized: 1.3}
	worst := cfg(4)
	worst.Goal = Worst
	hill := cfg(5)
	hill.Method, hill.Restarts = HillClimb, 2
	cells := cfg(6)
	cells.Cells = 2
	many := cfg(7)
	many.Restarts = 5
	return []Job{
		{testRequest(), cfg(1)},
		{testRequest(), qos},
		{testRequest(), worst},
		{testRequest(), hill},
		{downRequest(), cfg(2)},
		{testRequest(), cells},
		{testRequest(), many},
	}
}

// searchOneByOne runs jobs through Search, in order, publishing into reg,
// and stops at the first error, which it returns.
func searchOneByOne(jobs []Job, reg *telemetry.Registry) ([]Result, error) {
	var out []Result
	for _, j := range jobs {
		j.Cfg.Telemetry = reg
		res, err := Search(j.Req, j.Cfg)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}

// withTelemetry returns a copy of jobs publishing into reg.
func withTelemetry(jobs []Job, reg *telemetry.Registry) []Job {
	out := append([]Job(nil), jobs...)
	for i := range out {
		out[i].Cfg.Telemetry = reg
	}
	return out
}

// TestSearchAllMatchesSearch: every result of a batched search equals the
// same search run alone, bit for bit — placement, objective, predictions,
// evaluations and combine-memo traffic — at any worker count, and the
// batch leaves a registry exactly as the searches run one by one leave it.
func TestSearchAllMatchesSearch(t *testing.T) {
	jobs := searchAllJobs()
	wantReg := telemetry.NewRegistry()
	want, err := searchOneByOne(jobs, wantReg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		reg := telemetry.NewRegistry()
		got, err := SearchAll(withTelemetry(jobs, reg), workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers %d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if digestResult(got[i]) != digestResult(want[i]) ||
				got[i].CombineHits != want[i].CombineHits || got[i].CombineMisses != want[i].CombineMisses {
				t.Errorf("workers %d, job %d: batched result %+v differs from Search's %+v", workers, i, got[i], want[i])
			}
		}
		if g, w := reg.Snapshot(), wantReg.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Errorf("workers %d: batched telemetry\n%+v\ndiffers from one-by-one\n%+v", workers, g, w)
		}
	}
}

// TestSearchAllFirstError: a batch with failing searches returns the
// first error in job order — a search that fails while it runs ahead of
// one that fails validation — and publishes the telemetry of the
// searches before it only, as a loop of Search calls that stops there
// does.
func TestSearchAllFirstError(t *testing.T) {
	failing := testRequest()
	failing.Predictors = map[string]core.Predictor{}
	for app := range testRequest().Predictors {
		failing.Predictors[app] = errPred{}
	}
	invalid := DefaultConfig(9)
	invalid.Goal, invalid.QoS = Worst, &QoS{App: "sens", MaxNormalized: 1.3}
	jobs := searchAllJobs()
	jobs = append(jobs[:2:2], Job{failing, DefaultConfig(8)}, Job{testRequest(), invalid}, jobs[2])

	wantReg := telemetry.NewRegistry()
	_, wantErr := searchOneByOne(jobs, wantReg)
	if wantErr == nil || !strings.Contains(wantErr.Error(), "errPred") {
		t.Fatalf("one-by-one error %v, want the failing search's", wantErr)
	}
	for _, workers := range []int{1, 2, 8} {
		reg := telemetry.NewRegistry()
		res, err := SearchAll(withTelemetry(jobs, reg), workers)
		if err == nil || err.Error() != wantErr.Error() || res != nil {
			t.Errorf("workers %d: SearchAll = %v, %v; want nil, %v", workers, res, err, wantErr)
		}
		if g, w := reg.Snapshot(), wantReg.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Errorf("workers %d: telemetry after the failure\n%+v\nwant\n%+v", workers, g, w)
		}
	}
}
