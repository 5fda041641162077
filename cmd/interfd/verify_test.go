package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/drift"
	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// contentHash recomputes serve's request content hash (FNV-64a over
// NUL-terminated parts; pinned by serve's TestRequestIdentityPinned) so a
// test can pick bodies on either side of the verification sample without
// the daemon's help. TestDaemonServedDecisionAudited checks it against the
// IDs the daemon derives.
func contentHash(req serve.PlaceRequest) uint64 {
	h := fnv.New64a()
	part := func(s string) { io.WriteString(h, s); h.Write([]byte{0}) }
	part("place")
	for _, a := range req.Apps {
		part(a.App)
		part(strconv.Itoa(a.Units))
	}
	part(req.QoSApp)
	part(strconv.FormatFloat(req.QoSMax, 'g', -1, 64))
	part(strconv.FormatInt(req.Seed, 10))
	part(strconv.Itoa(req.Iterations))
	part(strconv.Itoa(req.Restarts))
	return h.Sum64()
}

// seededBodies returns the first n two-app requests (sixteen units, so the
// apps are co-located whatever the search picks), by ascending seed,
// whose content hash is (or is not) in the verification sample.
func seededBodies(n int, sampled bool) []serve.PlaceRequest {
	var out []serve.PlaceRequest
	for seed := int64(1); len(out) < n; seed++ {
		req := serve.PlaceRequest{
			Apps: []serve.AppDemand{{App: "M.lmps", Units: 8}, {App: "C.libq", Units: 8}},
			Seed: seed, Iterations: 40,
		}
		if (contentHash(req)&sampleMask == 0) == sampled {
			out = append(out, req)
		}
	}
	return out
}

func liveDecisions(t *testing.T, base string) []drift.Decision {
	t.Helper()
	code, body := get(t, base+"/api/decisions")
	if code != http.StatusOK {
		t.Fatalf("/api/decisions = %d", code)
	}
	recs, err := drift.LoadAuditJSONL(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/api/decisions is not parsable JSONL: %v", err)
	}
	return recs
}

func awaitExit(t *testing.T, errCh chan error) {
	t.Helper()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
}

func loadAuditFile(t *testing.T, path string) []drift.Decision {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("flushed decision audit missing: %v", err)
	}
	defer f.Close()
	recs, err := drift.LoadAuditJSONL(f)
	if err != nil {
		t.Fatalf("flushed audit is not parsable: %v", err)
	}
	return recs
}

// hostsUsed lists the hosts an audited assignment ("host:slot" strings)
// puts units on.
func hostsUsed(t *testing.T, rec drift.Decision) map[int]bool {
	t.Helper()
	used := map[int]bool{}
	for _, positions := range rec.Assignment {
		for _, pos := range positions {
			h, err := strconv.Atoi(pos[:strings.IndexByte(pos, ':')])
			if err != nil {
				t.Fatalf("bad position %q", pos)
			}
			used[h] = true
		}
	}
	return used
}

// TestDaemonPlaceAvoidsCrashedHosts: a host the fault plan crashes at round
// 0 is down for the placement API too, not only for the self-driver —
// /api/place used to search as if the whole cluster were up.
func TestDaemonPlaceAvoidsCrashedHosts(t *testing.T) {
	const down = 3
	base, cancel, _ := serveOnlyDaemon(t, func(c *daemonConfig) {
		c.faultsPath = writePlan(t, fault.Plan{Seed: 1, Faults: []fault.Fault{{Kind: fault.NodeCrash, Host: down}}})
	})
	defer cancel()
	// Seven units each on fourteen surviving slots: every seed would like
	// the sixteenth slot's host.
	for seed := int64(1); seed <= 8; seed++ {
		code, body := post(t, base+"/api/place", serve.PlaceRequest{
			Apps: []serve.AppDemand{{App: "M.lmps", Units: 7}, {App: "C.libq", Units: 7}},
			Seed: seed,
		})
		if code != http.StatusOK {
			t.Fatalf("/api/place = %d: %s", code, body)
		}
		var resp serve.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		for s, app := range resp.Placement[down] {
			if app != "" {
				t.Errorf("seed %d: %s placed on crashed host %d slot %d", seed, app, down, s)
			}
		}
	}
	// And capacity shrank with it.
	if code, _ := post(t, base+"/api/place", serve.PlaceRequest{
		Apps: []serve.AppDemand{{App: "M.lmps", Units: 8}, {App: "C.libq", Units: 8}},
	}); code != http.StatusBadRequest {
		t.Errorf("16 units on 14 surviving slots = %d, want 400", code)
	}
}

// TestDaemonRearmsOnLateCrash: a crash the plan schedules for round 1 arms
// once decision 0 is verified, and the service is re-armed with it before
// decision 1 is asked for.
func TestDaemonRearmsOnLateCrash(t *testing.T) {
	const down = 5
	var auditPath string
	_, cancel, errCh, _ := startTestDaemon(t, func(c *daemonConfig) {
		c.faultsPath = writePlan(t, fault.Plan{Seed: 1, Faults: []fault.Fault{{Kind: fault.NodeCrash, Host: down, Round: 1}}})
		c.rounds = 3
		auditPath = c.driftAuditPath
	})
	defer cancel()
	awaitExit(t, errCh)
	recs := loadAuditFile(t, auditPath)
	if len(recs) != 3 {
		t.Fatalf("audited decisions = %d, want 3", len(recs))
	}
	if len(recs[0].DownHosts) != 0 || len(hostsUsed(t, recs[0])) != 8 {
		t.Errorf("decision 0 ran on a degraded cluster: down %v, hosts used %d", recs[0].DownHosts, len(hostsUsed(t, recs[0])))
	}
	for _, rec := range recs[1:] {
		if len(rec.DownHosts) != 1 || rec.DownHosts[0] != down {
			t.Errorf("decision %d searched under down hosts %v, want [%d]", rec.Round, rec.DownHosts, down)
		}
		if hostsUsed(t, rec)[down] {
			t.Errorf("decision %d placed units on crashed host %d: %v", rec.Round, down, rec.Assignment)
		}
		// 14 surviving slots hold three units of each of the four apps.
		for app, positions := range rec.Assignment {
			if len(positions) != 3 {
				t.Errorf("decision %d: %s has %d units, want 3", rec.Round, app, len(positions))
			}
		}
	}
}

// TestDaemonServedDecisionAudited: with no self-driver, a decision the API
// served whose content hash falls in the fixed sample is measured on the
// ground truth, drift-observed and audited; one outside the sample is not.
func TestDaemonServedDecisionAudited(t *testing.T) {
	base, cancel, _ := serveOnlyDaemon(t, nil)
	defer cancel()
	sampled, unsampled := seededBodies(1, true)[0], seededBodies(1, false)[0]

	var ids []string
	for _, req := range []serve.PlaceRequest{unsampled, sampled} {
		code, body := post(t, base+"/api/place", req)
		if code != http.StatusOK {
			t.Fatalf("/api/place = %d: %s", code, body)
		}
		var resp serve.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("req-%016x", contentHash(req)); resp.ID != want {
			t.Fatalf("derived request ID %s, test's content hash says %s", resp.ID, want)
		}
		ids = append(ids, resp.ID)
	}

	// Verification runs after the caller is released.
	var recs []drift.Decision
	waitFor(t, "the sampled decision on /api/decisions", 30*time.Second, func() bool {
		recs = liveDecisions(t, base)
		return len(recs) > 0
	})
	if len(recs) != 1 || recs[0].Request != ids[1] || recs[0].Round != 0 {
		t.Fatalf("audited %+v, want exactly the sampled request %s as decision 0", recs, ids[1])
	}
	rec := recs[0]
	if len(rec.Assignment) != 2 || len(rec.Predicted) != 2 || len(rec.Observed) != 2 || len(rec.Residuals) != 2 {
		t.Errorf("record incomplete: %+v", rec)
	}
	if rec.CombineHits+rec.CombineMisses == 0 {
		t.Error("record carries no combine-memo traffic")
	}

	_, body := get(t, base+"/api/drift")
	var snap drift.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/api/drift is not a snapshot: %v", err)
	}
	if snap.Observations != 2 || snap.MeanAbsResidual <= 0 {
		t.Errorf("drift snapshot after one verified two-app decision: %d observations, mean abs residual %v",
			snap.Observations, snap.MeanAbsResidual)
	}
	_, metrics := get(t, base+"/metrics")
	for _, want := range []string{drift.MetricObservations + " 2", drift.MetricMeanAbsResidual + " "} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, drift.MetricMeanAbsResidual+" 0\n") {
		t.Errorf("%s did not move", drift.MetricMeanAbsResidual)
	}
}

// TestDaemonDrainLosesNoDecision cancels the daemon under concurrent API
// load: every sampled request that was answered 200 is in the flushed
// audit file exactly once, the report is on disk, and no goroutine of the
// daemon outlives it.
func TestDaemonDrainLosesNoDecision(t *testing.T) {
	http.DefaultClient.CloseIdleConnections() // other tests' keep-alives are not this one's goroutines
	time.Sleep(10 * time.Millisecond)
	before := runtime.NumGoroutine()

	var auditPath string
	base, cancel, errCh, reportPath := startTestDaemon(t, func(c *daemonConfig) {
		c.serveOnly = true
		c.mix = []string{"M.lmps", "C.libq"}
		c.samples = 4
		c.workers = 2
		auditPath = c.driftAuditPath
	})
	defer cancel()
	client := &http.Client{Transport: &http.Transport{}}
	waitFor(t, "/readyz to flip to 200", 60*time.Second, func() bool {
		resp, err := client.Get(base + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Four clients, each alternating sampled and unsampled bodies under
	// unique explicit IDs (the ID is not part of the content hash), until
	// the daemon stops answering.
	bodies := append(seededBodies(8, true), seededBodies(8, false)...)
	var (
		mu       sync.Mutex
		answered = map[string]bool{} // sampled requests answered 200
		clients  sync.WaitGroup
	)
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for i := 0; ; i++ {
				req := bodies[(i*4+c)%len(bodies)]
				req.ID = fmt.Sprintf("load-%d-%d", c, i)
				raw, _ := json.Marshal(req)
				resp, err := client.Post(base+"/api/place", "application/json", bytes.NewReader(raw))
				if err != nil {
					return // plane down
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if contentHash(req)&sampleMask == 0 {
						mu.Lock()
						answered[req.ID] = true
						mu.Unlock()
					}
				case http.StatusTooManyRequests:
				default:
					return // 503: draining
				}
			}
		}(c)
	}
	waitFor(t, "verified decisions under load", 30*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(answered) >= 20
	})
	cancel()
	awaitExit(t, errCh)
	clients.Wait()
	client.CloseIdleConnections()

	audited := map[string]int{}
	for _, rec := range loadAuditFile(t, auditPath) {
		audited[rec.Request]++
		if rec.Observed == nil {
			t.Errorf("decision %d (%s) flushed without observed values", rec.Round, rec.Request)
		}
	}
	for id := range answered {
		if audited[id] != 1 {
			t.Errorf("request %s was answered 200 and is in the flushed audit %d times", id, audited[id])
		}
	}
	// A request verified during the drain may have lost its answer to the
	// closing plane, never the other way round.
	if len(audited) < len(answered) {
		t.Errorf("%d audited < %d answered", len(audited), len(answered))
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("final report missing: %v", err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("final report is not JSON: %v", err)
	}
	if got := rep.Metrics.Counters[drift.MetricObservations]; got != uint64(2*len(audited)) {
		t.Errorf("report counts %d drift observations, audit holds %d two-app decisions", got, len(audited))
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after the drain, %d before the daemon started\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
