package obs

import (
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// probe returns the HTTP status of GET url.
func probe(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestBatchRunLifecycle drives the shared CLI prologue end to end: flags
// register → Start → Ready → Close, with and without a plane, on a clean
// and on a failed run.
func TestBatchRunLifecycle(t *testing.T) {
	boom := errors.New("run failed")
	for _, tc := range []struct {
		name   string
		listen bool  // register and set -listen
		runErr error // what the tool's run body returned
	}{
		{"no plane, clean run", false, nil},
		{"plane, clean run", true, nil},
		{"plane, failed run", true, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			metrics, trace := filepath.Join(dir, "m.json"), filepath.Join(dir, "t.json")
			args := []string{"-metrics", metrics, "-trace", trace, "-log-format", "json", "-log-level", "debug"}
			if tc.listen {
				args = append(args, "-listen", "127.0.0.1:0")
			}
			var f Flags
			fs := flag.NewFlagSet("tool", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f.Register(fs, tc.listen)
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

			var base string
			if tc.listen {
				base = "http://" + r.plane.Addr
				if got := probe(t, base+"/readyz"); got != http.StatusServiceUnavailable {
					t.Errorf("/readyz before Ready = %d, want 503", got)
				}
				r.Ready()
				if got := probe(t, base+"/readyz"); got != http.StatusOK {
					t.Errorf("/readyz after Ready = %d, want 200", got)
				}
				if got := probe(t, base+"/api/report"); got != http.StatusOK {
					t.Errorf("/api/report = %d, want 200", got)
				}
			} else {
				r.Ready() // a no-op without a plane
			}

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
			if tc.listen {
				if !strings.Contains(logs.String(), `"msg":"observability plane listening"`) {
					t.Errorf("logger is not the JSON logger on stderr: %s", logs.String())
				}
				// Close freed the port.
				ln, err := net.Listen("tcp", r.plane.Addr)
				if err != nil {
					t.Fatalf("port still held after Close: %v", err)
				}
				ln.Close()
			}
		})
	}
}

// TestBatchRunRejectsAndReports: a bad logging flag fails Start before
// anything is opened; an unwritable -metrics path is the run's error when
// it has none, and never masks one it has.
func TestBatchRunRejectsAndReports(t *testing.T) {
	for _, f := range []Flags{{LogLevel: "loud"}, {LogFormat: "xml"}} {
		if _, err := f.Start("tool", 1, nil, io.Discard); err == nil {
			t.Errorf("%+v: Start accepted", f)
		}
	}
	if _, err := (&Flags{Listen: "256.0.0.1:bad"}).Start("tool", 1, nil, io.Discard); err == nil {
		t.Error("unbindable -listen: Start accepted")
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
// exactly -trace, -log-format and -log-level; the batch set adds -metrics
// and, on request, -listen.
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
	if got := names(func(fs *flag.FlagSet) { f.Register(fs, false) }); got != "log-format log-level metrics trace" {
		t.Errorf("Register(false) registered %q", got)
	}
	if got := names(func(fs *flag.FlagSet) { f.Register(fs, true) }); got != "listen log-format log-level metrics trace" {
		t.Errorf("Register(true) registered %q", got)
	}
}
