package experiments

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/measure"
	"repro/internal/placement"
	"repro/internal/telemetry"
)

// TestSharedCacheDedupAcrossExperiments asserts the lab-wide measurement
// cache eliminates the duplicated work between experiment families: the
// Table 6 EC2 model builds re-measure propagation cells that Figure 12
// already produced, so running Table 6 after Figure 12 must register new
// cache hits (previously those settings were silently re-simulated).
func TestSharedCacheDedupAcrossExperiments(t *testing.T) {
	lab, err := NewLab(Config{Seed: 2016, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lab.figure12(); err != nil {
		t.Fatal(err)
	}
	hits := lab.Cache.Hits()
	if _, err := lab.table6(); err != nil {
		t.Fatal(err)
	}
	if got := lab.Cache.Hits(); got <= hits {
		t.Errorf("Table 6 after Figure 12 added no cache hits (%d -> %d)", hits, got)
	}
	if lab.Cache.Len() == 0 {
		t.Error("shared cache is empty after two experiments")
	}
}

// TestWorkerCountDoesNotChangeOutputs renders the same experiments from
// labs that differ only in worker count; the reports must be identical to
// the byte, on the private cluster and on the background-noisy EC2
// environment alike, and for the placement studies, whose searches and
// measurements fan out together.
func TestWorkerCountDoesNotChangeOutputs(t *testing.T) {
	render := func(workers int) string {
		lab, err := NewLab(Config{Seed: 2016, Quick: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, id := range []string{"figure2", "figure3", "figure8", "figure10", "figure11", "figure12", "table6", "figure13"} {
			r, err := RunnerByID(id)
			if err != nil {
				t.Fatal(err)
			}
			o, err := r.Run(lab)
			if err != nil {
				t.Fatal(err)
			}
			out += o.Render()
		}
		return out
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Error("workers=8 output differs from workers=1")
	}
}

// TestWorkerCountDoesNotChangeTelemetry: an instrumented lab running the
// placement studies publishes the same counters and gauges at one worker
// and at two — the searches' closing gauges included, which the batched
// searches publish in job order. The one gauge left out is
// measure_batch_workers, which reports the worker count itself.
func TestWorkerCountDoesNotChangeTelemetry(t *testing.T) {
	report := func(workers int) telemetry.Snapshot {
		reg := telemetry.NewRegistry()
		lab, err := NewLab(Config{Seed: 2016, Quick: true, Workers: workers, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lab.figure10(); err != nil {
			t.Fatal(err)
		}
		if _, err := lab.figure11(); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		delete(snap.Gauges, measure.MetricBatchWorkers)
		return snap
	}
	serial, parallel := report(1), report(2)
	if !maps.Equal(serial.Counters, parallel.Counters) {
		t.Errorf("counters differ:\nworkers 1: %v\nworkers 2: %v", serial.Counters, parallel.Counters)
	}
	if !reflect.DeepEqual(serial.Gauges, parallel.Gauges) {
		t.Errorf("gauges differ:\nworkers 1: %v\nworkers 2: %v", serial.Gauges, parallel.Gauges)
	}
	if serial.Gauges[placement.MetricBestObjective] == 0 || serial.Counters[measure.MetricPlacementRuns] == 0 {
		t.Error("the placement studies published no search or placement telemetry")
	}
}
