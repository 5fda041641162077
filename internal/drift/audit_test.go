package drift

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sampleDecision(round int) Decision {
	return Decision{
		Round: round, Request: fmt.Sprintf("round-%d", round),
		Assignment: map[string][]string{
			"M.lmps": {"0:0", "0:1", "1:0", "1:1"},
			"C.libq": {"2:0", "2:1"},
		},
		Objective:     3.25,
		Evaluations:   512,
		QoSSatisfied:  true,
		Predicted:     map[string]float64{"M.lmps": 1.21, "C.libq": 1.08},
		Observed:      map[string]float64{"M.lmps": 1.33, "C.libq": 1.07},
		Residuals:     map[string]float64{"M.lmps": 0.0991, "C.libq": -0.0093},
		CombineHits:   40,
		CombineMisses: 12,
		DownHosts:     []int{3},
		DegradedHosts: map[int]float64{1: 1.5},
		FaultEvents:   2,
	}
}

func TestAuditRingEviction(t *testing.T) {
	l := NewAuditLog(3)
	for r := 0; r < 5; r++ {
		l.Append(sampleDecision(r))
	}
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	if l.Total() != 5 || l.Dropped() != 2 {
		t.Errorf("total/dropped = %d/%d, want 5/2", l.Total(), l.Dropped())
	}
	recs := l.Records()
	for i, want := range []int{2, 3, 4} {
		if recs[i].Round != want {
			t.Errorf("records[%d].Round = %d, want %d (oldest first)", i, recs[i].Round, want)
		}
	}
}

func TestAuditDefaultCap(t *testing.T) {
	if got := len(NewAuditLog(0).buf); got != DefaultAuditCap {
		t.Errorf("cap = %d, want %d", got, DefaultAuditCap)
	}
	if got := len(NewAuditLog(-5).buf); got != DefaultAuditCap {
		t.Errorf("cap = %d, want %d", got, DefaultAuditCap)
	}
}

// TestAuditJSONLDeterministic: the same log written twice must be
// byte-identical — the acceptance criterion for the replayable audit.
func TestAuditJSONLDeterministic(t *testing.T) {
	l := NewAuditLog(8)
	for r := 0; r < 4; r++ {
		l.Append(sampleDecision(r))
	}
	var a, b bytes.Buffer
	if err := l.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two serializations of the same log differ")
	}
	if got := strings.Count(a.String(), "\n"); got != 4 {
		t.Errorf("JSONL lines = %d, want 4", got)
	}
}

func TestAuditRoundTrip(t *testing.T) {
	l := NewAuditLog(8)
	want := []Decision{sampleDecision(0), sampleDecision(1)}
	for _, d := range want {
		l.Append(d)
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAuditJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Errorf("round trip lost data:\ngot  %s\nwant %s", mustJSON(t, got), mustJSON(t, want))
	}
}

func TestLoadAuditJSONLBadInput(t *testing.T) {
	recs, err := LoadAuditJSONL(strings.NewReader("{\"round\":1}\nnot json\n"))
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if len(recs) != 1 || recs[0].Round != 1 {
		t.Errorf("valid prefix not returned: %+v", recs)
	}
}

// TestAuditSaveFileAtomic checks the tmp+rename contract: the final file
// exists with the full payload and no .tmp residue remains.
func TestAuditSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "decisions.jsonl")
	l := NewAuditLog(4)
	l.Append(sampleDecision(0))
	l.Append(sampleDecision(1))
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := LoadAuditJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Round != 0 || recs[1].Round != 1 {
		t.Errorf("saved log = %+v, want rounds 0,1", recs)
	}
	// Empty path is the flag-off no-op.
	if err := l.SaveFile(""); err != nil {
		t.Errorf("SaveFile(\"\") = %v, want nil", err)
	}
}

func TestAuditSaveFileBadDir(t *testing.T) {
	l := NewAuditLog(2)
	l.Append(sampleDecision(0))
	if err := l.SaveFile(filepath.Join(t.TempDir(), "missing", "x.jsonl")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

// TestAuditConcurrent exercises the ring under -race.
func TestAuditConcurrent(t *testing.T) {
	l := NewAuditLog(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append(Decision{Round: g*100 + i})
				if i%10 == 0 {
					_ = l.Records()
					var buf bytes.Buffer
					_ = l.WriteJSONL(&buf)
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Total() != 800 {
		t.Errorf("total = %d, want 800", l.Total())
	}
	if l.Len() != 64 {
		t.Errorf("len = %d, want 64", l.Len())
	}
}

// TestTrackerConcurrent exercises Observe/EndRound/Snapshot under -race.
func TestTrackerConcurrent(t *testing.T) {
	reg := telemetry.NewRegistry()
	tr, err := New(DefaultConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"a", "b", "c", "d"}
	for _, app := range apps {
		if err := tr.Register(app, 4, 6, 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g, app := range apps {
		wg.Add(1)
		go func(g int, app string) {
			defer wg.Done()
			for r := 1; r <= 200; r++ {
				p := 1 + float64((g+r)%3)
				if err := tr.Observe(app, p, p, 1.0, 1.0+0.05*float64(g), r); err != nil {
					panic(fmt.Sprintf("observe: %v", err))
				}
			}
		}(g, app)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 1; r <= 50; r++ {
			tr.EndRound(r)
			_ = tr.Snapshot()
		}
	}()
	wg.Wait()
	snap := tr.Snapshot()
	if snap.Observations != 800 {
		t.Errorf("observations = %d, want 800", snap.Observations)
	}
}
