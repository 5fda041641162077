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

// TestGoldenSmoke: one small model build end to end is a pure function of
// its flags and matches the committed output.
func TestGoldenSmoke(t *testing.T) {
	args := []string{"-workload", "M.milc", "-samples", "6", "-seed", "3", "-log-level", "error"}
	got, _, err := cli(args...)
	if err != nil {
		t.Fatal(err)
	}
	if again, _, _ := cli(append(args, "-workers", "1")...); again != got {
		t.Errorf("same flags at one worker, different output:\n%s\nvs\n%s", got, again)
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
		{"-alg", "guesswork"},
		{"-workload", "no.such"},
		{"-no-such-flag"},
	} {
		metrics := filepath.Join(t.TempDir(), "m.json")
		_, stderr, err := cli(append(bad, "-metrics", metrics)...)
		if err == nil {
			t.Errorf("%v: accepted", bad)
		}
		if strings.Contains(stderr, "building interference model") {
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
// on -nodes 0, which the model build rejects) still closes — the -metrics
// report is on disk.
func TestFailedRunStillWritesMetrics(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "m.json")
	if _, _, err := cli("-samples", "6", "-nodes", "0", "-metrics", metrics, "-log-level", "error"); err == nil {
		t.Fatal("-nodes 0: accepted")
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("failed run left no RunReport: %v", err)
	}
	var rep struct {
		Tool string `json:"tool"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Tool != "profiler" {
		t.Errorf("RunReport tool = %q, err %v", rep.Tool, err)
	}
}
