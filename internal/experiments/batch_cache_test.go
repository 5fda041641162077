package experiments

import "testing"

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
// environment alike.
func TestWorkerCountDoesNotChangeOutputs(t *testing.T) {
	render := func(workers int) string {
		lab, err := NewLab(Config{Seed: 2016, Quick: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, id := range []string{"figure2", "figure3", "figure12", "table6", "figure13"} {
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
