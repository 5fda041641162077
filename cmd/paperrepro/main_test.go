package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// cli runs the command in-process.
func cli(args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	return out.String(), errb.String(), err
}

// wallClock matches the two lines of the output that report elapsed time.
var wallClock = regexp.MustCompile(`(?m)^(total runtime: |Regenerated by .* in ).*$`)

// entryPoints are the subcommand prefixes of the four entry points; the
// bare reproduction has none.
var entryPoints = []struct {
	name string
	sub  []string
}{
	{"paperrepro", nil},
	{"sim", []string{"sim"}},
	{"profile", []string{"profile"}},
	{"place", []string{"place"}},
}

// TestGoldenSmoke: each entry point's smoke runs are pure functions of
// their flags (apart from the reproduction's wall-clock lines) and match
// the committed outputs. Each run is repeated with the entry point's
// again flags (one worker where the entry point has -workers) and must
// print the same bytes. The place run's QoS line is what the deleted
// root facade test asserted: the bound is satisfiable in the model and
// the simulator agrees within the model's error.
func TestGoldenSmoke(t *testing.T) {
	type golden struct {
		file string
		args []string
	}
	for _, tc := range []struct {
		name     string
		goldens  []golden
		again    []string
		contains string
	}{
		{"paperrepro", []golden{
			{"table4", []string{"-quick", "-only", "table4", "-log-level", "error"}},
			{"table4-markdown", []string{"-quick", "-only", "table4", "-log-level", "error", "-markdown"}},
		}, []string{"-workers", "1"}, "total runtime: "},
		{"sim", []golden{
			{"sim-list", []string{"sim", "-list"}},
			{"sim-hetero", []string{"sim", "-workload", "M.lesl", "-pressures", "8,5,0,0,3,0,0,0", "-seed", "3", "-log-level", "error"}},
			{"sim-ec2", []string{"sim", "-workload", "M.milc", "-ec2", "-nodes", "32", "-interfering", "16", "-pressure", "4", "-log-level", "error"}},
		}, nil, "engine"},
		{"profile", []golden{
			{"profile-smoke", []string{"profile", "-workload", "M.milc", "-samples", "6", "-seed", "3", "-log-level", "error"}},
		}, []string{"-workers", "1"}, "bubble score"},
		{"place", []golden{
			{"place-smoke", []string{"place", "-iters", "200", "-qos", "M.milc", "-bound", "1.25", "-seed", "3", "-log-level", "error"}},
		}, nil, "M.milc <= 1.25: true"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range tc.goldens {
				got, _, err := cli(g.args...)
				if err != nil {
					t.Fatalf("%s: %v", g.file, err)
				}
				if !strings.Contains(got, tc.contains) {
					t.Errorf("%s: no %q in the output:\n%s", g.file, tc.contains, got)
				}
				got = wallClock.ReplaceAllString(got, "$1<elapsed>")
				again, _, _ := cli(append(g.args, tc.again...)...)
				if again = wallClock.ReplaceAllString(again, "$1<elapsed>"); again != got {
					t.Errorf("%s: same flags plus %v, different output:\n%s\nvs\n%s", g.file, tc.again, got, again)
				}
				path := filepath.Join("testdata", g.file+".golden")
				if *update {
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s: output drifted from %s (rerun with -update if intended):\n%s", g.file, path, got)
				}
			}
		})
	}
}

// TestWritesOutputFile: -o sends the rendering to a file and only a
// pointer to stdout.
func TestWritesOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	got, _, err := cli("-quick", "-only", "table4", "-o", path, "-log-level", "error")
	if err != nil {
		t.Fatal(err)
	}
	if got != "wrote "+path+"\n" {
		t.Errorf("stdout = %q", got)
	}
	if raw, err := os.ReadFile(path); err != nil || !strings.Contains(string(raw), "total runtime: ") {
		t.Errorf("output file: err %v, content %q", err, raw)
	}
}

// TestRejectsBadInputBeforeRunning: input the flags alone show to be wrong
// fails before the run opens — nothing is measured, profiled or written.
// That covers a positional argument, which no entry point takes, and an
// unknown subcommand.
func TestRejectsBadInputBeforeRunning(t *testing.T) {
	rejects := map[string][][]string{
		"paperrepro": {{"-only", "table99"}, {"-quick", "bogus"}, {"-quick", "sim"}},
		"sim":        {{"-workload", "no.such"}, {"-pressures", "8,five,0"}, {"-nodes", "4", "-interfering", "5"}, {"bogus"}},
		"profile":    {{"-alg", "guesswork"}, {"-workload", "no.such"}, {"-samples", "6", "extra-arg"}},
		"place":      {{"-goal", "wurst"}, {"-apps", "M.milc,no.such,H.KM,M.lmps"}, {"-restarts", "2"}, {"-iters", "50", "extra-arg"}},
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			for _, bad := range append(rejects[ep.name], []string{"-no-such-flag"}, []string{"-log-level", "loud"}) {
				metrics := filepath.Join(t.TempDir(), "m.json")
				args := append(append(append([]string{}, ep.sub...), "-metrics", metrics), bad...)
				if _, _, err := cli(args...); err == nil {
					t.Errorf("%v: accepted", args)
				}
				if _, err := os.Stat(metrics); err == nil {
					t.Errorf("%v: a run was opened (metrics file written) for rejected input", args)
				}
			}
		})
	}
	t.Run("unknown subcommand", func(t *testing.T) {
		metrics := filepath.Join(t.TempDir(), "m.json")
		if _, _, err := cli("simulate", "-metrics", metrics); err == nil {
			t.Error("unknown subcommand: accepted")
		}
		if _, err := os.Stat(metrics); err == nil {
			t.Error("unknown subcommand: a run was opened (metrics file written)")
		}
	})
}

// TestFailedRunStillWritesMetrics: a run that fails after it opened still
// closes — the -metrics report is on disk and names the entry point.
func TestFailedRunStillWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	fails := map[string][]string{
		// -o into a directory that does not exist.
		"paperrepro": {"-quick", "-only", "table4", "-o", filepath.Join(dir, "missing", "out.txt")},
		// An unreadable fault plan.
		"sim": {"-faults", filepath.Join(dir, "no-such-plan.json")},
		// -nodes 0, which the model build rejects.
		"profile": {"-samples", "6", "-nodes", "0"},
		// A QoS app outside the mix, which the search refuses after profiling.
		"place": {"-iters", "50", "-qos", "NOPE"},
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			metrics := filepath.Join(t.TempDir(), "m.json")
			args := append(append(append([]string{}, ep.sub...), "-metrics", metrics, "-log-level", "error"), fails[ep.name]...)
			if _, _, err := cli(args...); err == nil {
				t.Fatalf("%v: accepted", args)
			}
			raw, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatalf("failed run left no RunReport: %v", err)
			}
			var rep struct {
				Tool string `json:"tool"`
			}
			want := strings.Join(append([]string{"paperrepro"}, ep.sub...), " ")
			if err := json.Unmarshal(raw, &rep); err != nil || rep.Tool != want {
				t.Errorf("RunReport tool = %q, want %q, err %v", rep.Tool, want, err)
			}
		})
	}
}

// TestMetricsReportIsBounded: the exit report holds counters, gauges and
// histograms, none of which grows with the number of annealing steps, so
// a whole -quick reproduction reports in a few KB. With a per-step series
// of every search it was 4.66 MB.
func TestMetricsReportIsBounded(t *testing.T) {
	const ceiling = 64 << 10
	metrics := filepath.Join(t.TempDir(), "m.json")
	if _, _, err := cli("-quick", "-metrics", metrics, "-log-level", "error"); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > ceiling {
		t.Errorf("-quick -metrics report is %d B, ceiling %d", fi.Size(), ceiling)
	}
	t.Logf("-quick -metrics report: %d B", fi.Size())
}
