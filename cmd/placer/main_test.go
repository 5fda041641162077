package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
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

// TestGoldenSmoke: a short QoS-constrained search end to end — profile the
// mix, search, simulate the chosen placement — is a pure function of its
// flags and matches the committed output. (The QoS line is what the
// deleted root facade test asserted: the bound is satisfiable in the model
// and the simulator agrees within the model's error.)
func TestGoldenSmoke(t *testing.T) {
	args := []string{"-iters", "200", "-qos", "M.milc", "-bound", "1.25", "-seed", "3", "-log-level", "error"}
	got, _, err := cli(args...)
	if err != nil {
		t.Fatal(err)
	}
	if again, _, _ := cli(args...); again != got {
		t.Errorf("same flags, different output:\n%s\nvs\n%s", got, again)
	}
	if !strings.Contains(got, "M.milc <= 1.25: true") {
		t.Errorf("QoS bound not met by the model:\n%s", got)
	}
	golden := filepath.Join("testdata", "smoke.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (rerun with -update if intended):\n%s", golden, got)
	}
}

// TestRejectsBadInputBeforeProfiling: input the flags alone show to be
// wrong fails before the run opens — nothing is profiled, logged or
// written.
func TestRejectsBadInputBeforeProfiling(t *testing.T) {
	for _, bad := range [][]string{
		{"-goal", "wurst"},
		{"-apps", "M.milc,no.such,H.KM,M.lmps"},
		{"-no-such-flag"},
	} {
		metrics := filepath.Join(t.TempDir(), "m.json")
		_, stderr, err := cli(append(bad, "-metrics", metrics)...)
		if err == nil {
			t.Errorf("%v: accepted", bad)
		}
		if strings.Contains(stderr, "profiling workload") {
			t.Errorf("%v: profiling started before the input was rejected:\n%s", bad, stderr)
		}
		if _, err := os.Stat(metrics); err == nil {
			t.Errorf("%v: a run was opened (metrics file written) for rejected input", bad)
		}
	}
	if _, _, err := cli("-log-level", "loud"); err == nil {
		t.Error("-log-level loud: accepted")
	}
}

// TestFailedRunStillWritesMetrics: a run that fails after it opened (here
// the search refuses a QoS app outside the mix, after profiling) still
// closes — the -metrics report is on disk.
func TestFailedRunStillWritesMetrics(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	if _, _, err := cli("-iters", "50", "-qos", "NOPE", "-metrics", metrics, "-log-level", "error"); err == nil {
		t.Fatal("QoS app outside the mix: accepted")
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("failed run left no RunReport: %v", err)
	}
	var rep struct {
		Tool string `json:"tool"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Tool != "placer" {
		t.Errorf("RunReport tool = %q, err %v", rep.Tool, err)
	}
}
