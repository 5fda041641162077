package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"time"
)

// Log formats accepted by newLogger and the cmd/ tools' -log-format flag.
const (
	logText = "text"
	logJSON = "json"
)

// parseLevel maps the -log-level flag values (debug, info, warn, error) to
// slog levels.
func parseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
	}
}

// newLogger builds the shared structured logger of the cmd/ tools: a text
// or JSON slog handler on w, stamped with the tool name and a run ID so
// interleaved logs from concurrent runs stay attributable.
func newLogger(w io.Writer, format string, level slog.Level, tool, runID string) (*slog.Logger, error) {
	var h slog.Handler
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", logText:
		h = slog.NewTextHandler(w, opts)
	case logJSON:
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	return slog.New(h).With("tool", tool, "run_id", runID), nil
}

// Nop returns a logger that discards everything.
func Nop() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
}

// newRunID returns a process-unique run identifier: tool, PID, and start
// time. It is attached to every log line, so logs, metrics files, and
// scrapes from the same invocation correlate.
func newRunID(tool string) string {
	return fmt.Sprintf("%s-%d-%x", strings.ReplaceAll(tool, " ", "-"), os.Getpid(), time.Now().UnixNano())
}

// WithSpan returns a child logger carrying span attributes, matching the
// telemetry tracer's naming so log lines correlate with /api/spans output.
func WithSpan(l *slog.Logger, name string, seq uint64) *slog.Logger {
	if l == nil {
		return Nop()
	}
	return l.With("span", name, "span_seq", seq)
}
