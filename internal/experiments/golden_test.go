package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/report"
)

// The golden corpus pins the exact rendered bytes of the headline paper
// artifacts at the fixed quick-mode seed (2016). Regenerate after an
// intentional change with:
//
//	go test ./internal/experiments -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden corpus from the current output")

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

func checkGolden(t *testing.T, name string, out Output) {
	t.Helper()
	got := []byte(out.Render())
	path := goldenPath(name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden copy; if the change is intentional, rerun with -update.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFigure2(t *testing.T) {
	out, err := quickLab(t).Figure2()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure2", out)
}

func TestGoldenFigure3(t *testing.T) {
	out, err := quickLab(t).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure3", out)
}

func TestGoldenTable2(t *testing.T) {
	out, err := quickLab(t).Table2Figure4()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2", out)
}

func TestGoldenFigure10(t *testing.T) {
	out, err := quickLab(t).Figure10()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure10", out)
}

func TestGoldenFigure11(t *testing.T) {
	out, err := quickLab(t).Figure11Table5()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure11", out)
}

// TestGoldenDetectsCellPerturbation demonstrates the corpus's
// sensitivity: nudging a single cell of the Figure 3 matrix by 5% must
// break the byte comparison against the committed golden file.
func TestGoldenDetectsCellPerturbation(t *testing.T) {
	if *update {
		t.Skip("perturbation check is meaningless while rewriting goldens")
	}
	out, err := quickLab(t).Figure3()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("figure3"))
	if err != nil {
		t.Fatalf("golden file missing (regenerate with -update): %v", err)
	}
	if !bytes.Equal([]byte(out.Render()), want) {
		t.Fatal("figure3 does not match its golden copy; fix that before testing perturbation")
	}

	// Rebuild the first table with cell (0, 1) — the lowest pressure at
	// zero interfering nodes — inflated by 5%.
	orig := out.Tables[0]
	perturbed := report.NewTable(orig.Title, orig.Headers...)
	for r := 0; r < orig.Rows(); r++ {
		row := make([]string, len(orig.Headers))
		for c := range orig.Headers {
			cell, err := orig.Cell(r, c)
			if err != nil {
				t.Fatal(err)
			}
			if r == 0 && c == 1 {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					t.Fatalf("cell (0,1) = %q not numeric: %v", cell, err)
				}
				cell = report.Norm(v * 1.05)
			}
			row[c] = cell
		}
		perturbed.MustAddRow(row...)
	}
	mutant := out
	mutant.Tables = append([]*report.Table{perturbed}, out.Tables[1:]...)
	if bytes.Equal([]byte(mutant.Render()), want) {
		t.Error("a 5% one-cell perturbation of the Figure 3 matrix went undetected by the golden comparison")
	}
}
