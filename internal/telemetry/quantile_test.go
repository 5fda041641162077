package telemetry

import (
	"math"
	"strings"
	"testing"
)

// snap builds a HistogramSnapshot directly, deriving Count from the
// bucket counts.
func snap(uppers []float64, counts []uint64) HistogramSnapshot {
	var total uint64
	for _, c := range counts {
		total += c
	}
	return HistogramSnapshot{Uppers: uppers, Counts: counts, Count: total}
}

func TestHistogramSnapshotQuantile(t *testing.T) {
	cases := []struct {
		name string
		h    HistogramSnapshot
		q    float64
		want float64 // NaN means "expect NaN"
	}{
		{
			name: "median interpolates inside one bucket",
			// 10 observations all in (10, 20]: p50 is halfway through it.
			h: snap([]float64{10, 20, 30}, []uint64{0, 10, 0, 0}),
			q: 0.5, want: 15,
		},
		{
			name: "uniform spread across buckets",
			// 10 per bucket; p75 lands 5/10 into the third bucket.
			h: snap([]float64{10, 20, 30}, []uint64{10, 10, 10, 0}),
			q: 0.75, want: 22.5,
		},
		{
			name: "first bucket interpolates from zero",
			h:    snap([]float64{10, 20}, []uint64{10, 0, 0}),
			q:    0.5, want: 5,
		},
		{
			name: "q zero returns the lower edge of the first populated bucket",
			h:    snap([]float64{10, 20, 30}, []uint64{0, 4, 0, 0}),
			q:    0, want: 10,
		},
		{
			name: "q one reaches the upper edge of the last populated bucket",
			h:    snap([]float64{10, 20, 30}, []uint64{3, 4, 0, 0}),
			q:    1, want: 20,
		},
		{
			name: "overflow bucket clamps to the largest finite upper",
			h:    snap([]float64{10, 20}, []uint64{1, 1, 8}),
			q:    0.99, want: 20,
		},
		{
			name: "all samples in the overflow bucket",
			h:    snap([]float64{10, 20}, []uint64{0, 0, 5}),
			q:    0.5, want: 20,
		},
		{
			name: "negative uppers degenerate without a zero origin",
			// First bucket upper is negative: no interpolation from 0.
			h: snap([]float64{-5, 5}, []uint64{4, 0, 0}),
			q: 0.5, want: -5,
		},
		{
			name: "empty histogram",
			h:    snap([]float64{10, 20}, []uint64{0, 0, 0}),
			q:    0.5, want: math.NaN(),
		},
		{
			name: "q below zero",
			h:    snap([]float64{10}, []uint64{5, 0}),
			q:    -0.1, want: math.NaN(),
		},
		{
			name: "q above one",
			h:    snap([]float64{10}, []uint64{5, 0}),
			q:    1.1, want: math.NaN(),
		},
		{
			name: "malformed counts length",
			h:    HistogramSnapshot{Uppers: []float64{10}, Counts: []uint64{5}, Count: 5},
			q:    0.5, want: math.NaN(),
		},
		{
			name: "no finite buckets at all",
			h:    snap(nil, []uint64{7}),
			q:    0.5, want: math.NaN(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.h.Quantile(tc.q)
			if math.IsNaN(tc.want) {
				if !math.IsNaN(got) {
					t.Fatalf("Quantile(%v) = %v, want NaN", tc.q, got)
				}
				return
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
}

// TestQuantileFromLiveHistogram round-trips through a registry histogram:
// observe a known distribution and read interpolated percentiles back.
func TestQuantileFromLiveHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1, 1})
	for i := 0; i < 90; i++ {
		h.Observe(0.005) // (0.001, 0.01]
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5) // (0.1, 1]
	}
	s := reg.Snapshot().Histograms["lat"]
	p50 := s.Quantile(0.5)
	if p50 <= 0.001 || p50 > 0.01 {
		t.Errorf("p50 = %v, want within (0.001, 0.01]", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 <= 0.1 || p99 > 1 {
		t.Errorf("p99 = %v, want within (0.1, 1]", p99)
	}
	if p50 >= p99 {
		t.Errorf("p50 %v not below p99 %v", p50, p99)
	}
}

// TestExportQuantilesDerivedAtRead: a histogram named to ExportQuantiles
// gains <name>_p50/_p95/_p99 gauges in every read of the registry — equal
// to the quantiles of the histogram state the same read carries, fresh on
// each read with no call in between — and in the Prometheus exposition;
// an empty histogram and an unnamed one gain none.
func TestExportQuantilesDerivedAtRead(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1, 1})
	reg.Histogram("idle", []float64{1})
	reg.Histogram("plain", []float64{1}).Observe(0.5)
	reg.ExportQuantiles("lat", "idle")

	if g := reg.Snapshot().Gauges; len(g) != 0 {
		t.Errorf("gauges before any observation: %v", g)
	}
	for round, v := range []float64{0.005, 0.5} {
		for i := 0; i < 50; i++ {
			h.Observe(v)
		}
		got := reg.Snapshot()
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.5}, {"_p95", 0.95}, {"_p99", 0.99}} {
			g, ok := got.Gauges["lat"+q.suffix]
			if want := got.Histograms["lat"].Quantile(q.q); !ok || g != want {
				t.Errorf("round %d: lat%s = %v (present %v), want %v", round, q.suffix, g, ok, want)
			}
		}
		if len(got.Gauges) != 3 {
			t.Errorf("round %d: gauges = %v, want the three of lat only", round, got.Gauges)
		}
	}
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE lat_p99 gauge\nlat_p99 ") {
		t.Errorf("exposition lacks the derived gauge:\n%s", buf.String())
	}
}
