package drift

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// Decision is one structured audit record: everything one verified
// placement decision chose and what production then observed, enough to
// replay *why* it chose what it chose. All fields are plain data with
// deterministic JSON encodings (Go maps marshal with sorted keys, and
// there are no wall-clock fields), so a fixed seed produces byte-identical
// JSONL.
type Decision struct {
	// Round is the record's sequence number — the count of decisions
	// verified before it — and Request the ID of the placement request
	// that was verified.
	Round   int    `json:"round"`
	Request string `json:"request"`
	// Assignment maps application name -> its unit positions as
	// "host:slot" strings, the chosen placement in replayable form.
	Assignment   map[string][]string `json:"assignment"`
	Objective    float64             `json:"objective"`
	Evaluations  int                 `json:"evaluations"`
	QoSSatisfied bool                `json:"qos_satisfied"`
	// Predicted and Observed are per-application normalized slowdowns;
	// Residuals holds (observed-predicted)/predicted for apps present in
	// both.
	Predicted map[string]float64 `json:"predicted"`
	Observed  map[string]float64 `json:"observed,omitempty"`
	Residuals map[string]float64 `json:"residuals,omitempty"`
	// CombineHits/Misses are the search's own combine-memo traffic
	// (placement.Result).
	CombineHits   uint64 `json:"combine_hits"`
	CombineMisses uint64 `json:"combine_misses"`
	// DownHosts lists the crashed hosts the search avoided;
	// DegradedHosts maps host -> slowdown factor at verification.
	DownHosts     []int           `json:"down_hosts,omitempty"`
	DegradedHosts map[int]float64 `json:"degraded_hosts,omitempty"`
	// FaultEvents counts injected faults observed so far.
	FaultEvents uint64 `json:"fault_events,omitempty"`
	// DriftEvents holds the drift events EndRound fired for this record.
	DriftEvents []Event `json:"drift_events,omitempty"`
}

// DefaultAuditCap bounds the audit ring when the caller passes cap <= 0.
const DefaultAuditCap = 4096

// AuditLog is a bounded ring buffer of placement Decisions. Once full,
// each Append evicts the oldest record, so a long-lived daemon keeps the
// most recent window without unbounded growth. Safe for concurrent use.
type AuditLog struct {
	mu      sync.Mutex
	buf     []Decision
	start   int // index of the oldest record
	n       int // live records
	total   uint64
	dropped uint64
}

// NewAuditLog returns a log retaining at most capacity records
// (DefaultAuditCap when capacity <= 0).
func NewAuditLog(capacity int) *AuditLog {
	if capacity <= 0 {
		capacity = DefaultAuditCap
	}
	return &AuditLog{buf: make([]Decision, capacity)}
}

// Append records one decision, evicting the oldest when full.
func (l *AuditLog) Append(d Decision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = d
		l.n++
	} else {
		l.buf[l.start] = d
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
	}
	l.total++
}

// Len returns the number of retained records.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Total returns the number of records ever appended; Dropped how many the
// ring evicted.
func (l *AuditLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Dropped returns the count of evicted records.
func (l *AuditLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Records returns the retained decisions oldest-first.
func (l *AuditLog) Records() []Decision {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// WriteJSONL streams the retained decisions oldest-first, one JSON object
// per line. The encoding has no map-iteration or clock nondeterminism, so
// identical logs produce identical bytes.
func (l *AuditLog) WriteJSONL(w io.Writer) error {
	records := l.Records()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return fmt.Errorf("drift: encode audit record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// SaveFile writes the JSONL audit to path atomically — temp file in the
// same directory, then rename — so a drain interrupted mid-write never
// leaves a truncated decision log. An empty path is a no-op.
func (l *AuditLog) SaveFile(path string) error {
	if path == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("drift: write audit log: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("drift: rename audit log: %w", err)
	}
	return nil
}

// LoadAuditJSONL parses a JSONL decision log back into records — the
// replay half of the audit plane, used by tests and offline tooling.
func LoadAuditJSONL(r io.Reader) ([]Decision, error) {
	var out []Decision
	dec := json.NewDecoder(r)
	for {
		var d Decision
		if err := dec.Decode(&d); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			return out, fmt.Errorf("drift: parse audit record %d: %w", len(out), err)
		}
		out = append(out, d)
	}
}
