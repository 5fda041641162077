package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden corpus pins the exact rendered bytes of every runner at the
// fixed quick-mode seed (2016). Regenerate after an intentional change
// with:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden corpus from the current output")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

// checkGolden compares a runner's rendering with testdata/golden/<id>.txt,
// or rewrites that file under -update.
func checkGolden(t *testing.T, id string, out Output) {
	t.Helper()
	got, path := []byte(out.Render()), goldenPath(id)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden copy; if the change is intentional, rerun with -update.\n--- got ---\n%s--- want ---\n%s", id, got, want)
	}
}

// checkGoldenRunner runs one runner on the shared quick lab and checks its
// golden copy.
func checkGoldenRunner(t *testing.T, id string) {
	t.Helper()
	r, err := RunnerByID(id)
	if err != nil {
		t.Fatal(err)
	}
	out, err := r.Run(quickLab(t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, id, out)
}

func TestGoldenFigure2(t *testing.T)  { checkGoldenRunner(t, "figure2") }
func TestGoldenFigure3(t *testing.T)  { checkGoldenRunner(t, "figure3") }
func TestGoldenTable2(t *testing.T)   { checkGoldenRunner(t, "table2") }
func TestGoldenFigure10(t *testing.T) { checkGoldenRunner(t, "figure10") }
func TestGoldenFigure11(t *testing.T) { checkGoldenRunner(t, "figure11") }

// TestGolden checks every runner's rendering against
// testdata/golden/<id>.txt exactly as `paperrepro -quick -extras` prints
// it: one fresh quick lab at seed 2016, the paper artifacts and then the
// extras, in registry order.
func TestGolden(t *testing.T) {
	l, err := NewLab(Config{Seed: 2016, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(Runners(), ExtraRunners()...) {
		out, err := r.Run(l)
		if err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		checkGolden(t, r.ID, out)
	}
}

// TestRunnerAloneMatchesFullRun: every paper runner, run alone on a fresh
// lab as `paperrepro -only <id>` runs it, renders exactly its section of
// one full RunAll on another fresh lab, in quick and in full mode at seed
// 2016. No artifact depends on what the lab measured before it, on the EC2
// env included.
func TestRunnerAloneMatchesFullRun(t *testing.T) {
	for _, quick := range []bool{true, false} {
		cfg := Config{Seed: 2016, Quick: quick}
		full, err := NewLab(cfg)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := full.RunAll()
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range Runners() {
			alone, err := NewLab(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := r.Run(alone)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			if got, want := out.Render(), outs[i].Render(); got != want {
				t.Errorf("quick %t: %s alone differs from its section of the full run\n--- alone ---\n%s--- full run ---\n%s",
					quick, r.ID, got, want)
			}
		}
	}
}

// TestGoldenDetectsCellPerturbation demonstrates the corpus's
// sensitivity: scaling a single value of the typed Figure 3 curves by 5%
// must break the byte comparison against the committed golden file.
func TestGoldenDetectsCellPerturbation(t *testing.T) {
	if *update {
		t.Skip("perturbation check is meaningless while rewriting goldens")
	}
	r, err := quickLab(t).figure3()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("figure3"))
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal([]byte(r.output().Render()), want) {
		t.Fatal("figure3 does not match its golden copy; fix that before testing perturbation")
	}
	// The lowest pressure at zero interfering nodes of the first app.
	r[0].values[0][0] *= 1.05
	if bytes.Equal([]byte(r.output().Render()), want) {
		t.Error("a 5% one-value perturbation of the Figure 3 curves went undetected by the golden comparison")
	}
}
