package obs

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBatchRunLifecycle drives the shared CLI prologue end to end: flags
// register → Start → Close, on a clean and on a failed run.
func TestBatchRunLifecycle(t *testing.T) {
	boom := errors.New("run failed")
	for _, tc := range []struct {
		name   string
		runErr error // what the tool's run body returned
	}{
		{"clean run", nil},
		{"failed run", boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
			args := []string{"-metrics", metrics, "-trace", trace, "-log-format", "json", "-log-level", "debug"}
			var f Flags
			fs := flag.NewFlagSet("tool", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f.Register(fs)
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			var logs strings.Builder
			r, err := f.Start("tool", 7, args, &logs)
			if err != nil {
				t.Fatal(err)
			}
			r.Registry.Counter("work_total").Add(3)
			r.Tracer.StartSpan("work").End()
			r.Logger.Info("working")

			err = tc.runErr
			r.Close(&err)
			if err != tc.runErr {
				t.Errorf("Close turned the run's error %v into %v", tc.runErr, err)
			}
			var rep struct {
				Tool    string `json:"tool"`
				Seed    int64  `json:"seed"`
				Metrics struct {
					Counters map[string]uint64 `json:"counters"`
				} `json:"metrics"`
			}
			raw, rerr := os.ReadFile(metrics)
			if rerr != nil {
				t.Fatalf("no RunReport after Close: %v", rerr)
			}
			if err := json.Unmarshal(raw, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Tool != "tool" || rep.Seed != 7 || rep.Metrics.Counters["work_total"] != 3 {
				t.Errorf("RunReport = %+v", rep)
			}
			if raw, err := os.ReadFile(trace); err != nil || !strings.Contains(string(raw), `"work"`) {
				t.Errorf("trace dump: err %v, content %s", err, raw)
			}
			if !strings.Contains(logs.String(), `"msg":"working"`) {
				t.Errorf("logger is not the JSON logger on stderr: %s", logs.String())
			}
		})
	}
}

// TestBatchRunRejectsAndReports: a bad logging flag fails Start before
// anything is opened; an unwritable -metrics path is the run's error when
// it has none, and never masks one it has.
func TestBatchRunRejectsAndReports(t *testing.T) {
	for _, f := range []Flags{{logLevel: "loud"}, {logFormat: "xml"}} {
		if _, err := f.Start("tool", 1, nil, io.Discard); err == nil {
			t.Errorf("%+v: Start accepted", f)
		}
	}

	f := Flags{Metrics: filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")}
	r, err := f.Start("tool", 1, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	r.Close(&err)
	if err == nil {
		t.Error("unwritable -metrics path: Close reported nothing")
	}
	boom := errors.New("run failed")
	if r, err = f.Start("tool", 1, nil, io.Discard); err != nil {
		t.Fatal(err)
	}
	err = boom
	r.Close(&err)
	if err != boom {
		t.Errorf("Close masked the run's error with %v", err)
	}
}

// TestRegisterLoggingIsTheSharedSubset: the daemon's subset registers
// exactly -trace, -log-format and -log-level; the batch set adds -metrics.
func TestRegisterLoggingIsTheSharedSubset(t *testing.T) {
	names := func(register func(*flag.FlagSet)) string {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		register(fs)
		var out []string
		fs.VisitAll(func(fl *flag.Flag) { out = append(out, fl.Name) })
		return strings.Join(out, " ")
	}
	var f Flags
	if got := names(f.RegisterLogging); got != "log-format log-level trace" {
		t.Errorf("RegisterLogging registered %q", got)
	}
	if got := names(f.Register); got != "log-format log-level metrics trace" {
		t.Errorf("Register registered %q", got)
	}
}
