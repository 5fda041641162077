package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "ERROR": slog.LevelError,
	} {
		got, err := parseLevel(in)
		if err != nil || got != want {
			t.Errorf("parseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := parseLevel("shout"); err == nil {
		t.Error("parseLevel accepted an unknown level")
	}
}

func TestNewLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l, err := newLogger(&buf, logJSON, slog.LevelInfo, "placer", "placer-1-abc")
	if err != nil {
		t.Fatal(err)
	}
	WithSpan(l, "core.build-model/M.milc", 3).Info("profiling", "workload", "M.milc")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v (%q)", err, buf.String())
	}
	for k, want := range map[string]string{
		"tool": "placer", "run_id": "placer-1-abc",
		"span": "core.build-model/M.milc", "msg": "profiling", "workload": "M.milc",
	} {
		if rec[k] != want {
			t.Errorf("attr %s = %v, want %v", k, rec[k], want)
		}
	}
	if rec["span_seq"] != float64(3) {
		t.Errorf("span_seq = %v, want 3", rec["span_seq"])
	}
}

func TestNewLoggerTextAndLevels(t *testing.T) {
	var buf bytes.Buffer
	l, err := newLogger(&buf, logText, slog.LevelWarn, "interfd", "id")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("suppressed")
	l.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "suppressed") || !strings.Contains(out, "kept") {
		t.Errorf("level filtering broken: %q", out)
	}
	if !strings.Contains(out, "tool=interfd") {
		t.Errorf("missing tool attr: %q", out)
	}
}

func TestNewLoggerRejectsUnknownFormat(t *testing.T) {
	if _, err := newLogger(&bytes.Buffer{}, "yaml", slog.LevelInfo, "t", "r"); err == nil {
		t.Error("accepted unknown format")
	}
}

func TestRunIDUnique(t *testing.T) {
	a, b := newRunID("x"), newRunID("x")
	if a == b {
		t.Errorf("two run IDs collide: %s", a)
	}
	if !strings.HasPrefix(a, "x-") {
		t.Errorf("run ID %q lacks tool prefix", a)
	}
}

func TestNopLoggerSilent(t *testing.T) {
	Nop().Error("nothing happens")      // must not panic or print
	WithSpan(nil, "x", 1).Info("quiet") // nil parent falls back to Nop
}
