package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// cli runs the command in-process.
func cli(args ...string) (stdout, stderr string, err error) {
	var out, errb bytes.Buffer
	err = run(args, &out, &errb)
	return out.String(), errb.String(), err
}

// TestGoldenSmoke: the workload listing and one heterogeneous run are pure
// functions of their flags and match the committed outputs.
func TestGoldenSmoke(t *testing.T) {
	for name, args := range map[string][]string{
		"list":   {"-list"},
		"hetero": {"-workload", "M.lesl", "-pressures", "8,5,0,0,3,0,0,0", "-seed", "3", "-log-level", "error"},
		"ec2":    {"-workload", "M.milc", "-ec2", "-nodes", "32", "-interfering", "16", "-pressure", "4", "-log-level", "error"},
	} {
		got, _, err := cli(args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, _, _ := cli(args...); again != got {
			t.Errorf("%s: same flags, different output:\n%s\nvs\n%s", name, got, again)
		}
		golden := filepath.Join("testdata", name+".golden")
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
			t.Errorf("%s: output drifted from %s (rerun with -update if intended):\n%s", name, golden, got)
		}
	}
}

// TestRejectsBadInputBeforeRunning: input the flags alone show to be wrong
// fails before the run opens — nothing is simulated or written.
func TestRejectsBadInputBeforeRunning(t *testing.T) {
	for _, bad := range [][]string{
		{"-workload", "no.such"},
		{"-pressures", "8,five,0"},
		{"-nodes", "4", "-interfering", "5"},
		{"-no-such-flag"},
	} {
		metrics := filepath.Join(t.TempDir(), "m.json")
		if _, _, err := cli(append(bad, "-metrics", metrics)...); err == nil {
			t.Errorf("%v: accepted", bad)
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
// on an unreadable fault plan) still closes — the -metrics report is on
// disk.
func TestFailedRunStillWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	if _, _, err := cli("-faults", filepath.Join(dir, "no-such-plan.json"), "-metrics", metrics, "-log-level", "error"); err == nil {
		t.Fatal("missing fault plan: accepted")
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("failed run left no RunReport: %v", err)
	}
	var rep struct {
		Tool string `json:"tool"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil || rep.Tool != "interfsim" {
		t.Errorf("RunReport tool = %q, err %v", rep.Tool, err)
	}
}
