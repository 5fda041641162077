package serve

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/parity.golden (only to re-baseline the wire contract on purpose)")

// TestWireParity pins what a client sees — status, X-Request-ID,
// Content-Type and body bytes — for one request of every kind the service
// answers: placements with and without QoS and tuning, what-ifs, every
// validation and decode failure, and each of 429, 500 and both 503s. The
// golden file was captured from the batch-dispatcher implementation this
// package replaced, by this same test, so it also pins the derived request
// IDs and search seeds (they are in the bodies). A change to it is a
// change to the wire contract.
func TestWireParity(t *testing.T) {
	var got bytes.Buffer
	record := func(name string, resp *http.Response) {
		t.Helper()
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s\n%d\nX-Request-ID: %s\nContent-Type: %s\n%s",
			name, resp.StatusCode, resp.Header.Get("X-Request-ID"), resp.Header.Get("Content-Type"), body)
	}
	post := func(name, url, header, body string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set("X-Request-ID", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		record(name, resp)
	}

	const (
		four = `{"app":"sens","units":4},{"app":"quiet","units":4},{"app":"noisy1","units":4},{"app":"noisy2","units":4}`
		grid = `[["sens","noisy1"],["sens","quiet"],["quiet","noisy2"],["noisy1","noisy2"],["",""],["sens",""],["",""],["",""]]`
	)
	s, _, _ := newTestService(t, nil)
	b := testBackend()
	b.Predictors["boom"], b.Scores["boom"] = panicPred{}, 3
	s.SetBackend(b)
	base := obsServerFor(t, s).URL
	for _, c := range []struct{ name, path, header, body string }{
		{"place", "/api/place", "", `{"apps":[` + four + `]}`},
		{"place qos", "/api/place", "", `{"apps":[` + four + `],"qos_app":"sens","qos_max":1.75}`},
		{"place unmet qos", "/api/place", "", `{"apps":[` + four + `],"qos_app":"sens","qos_max":1.5}`},
		{"place tuned", "/api/place", "", `{"id":"tuned-1","apps":[{"app":"sens","units":3},{"app":"noisy1","units":5}],"seed":-9,"iterations":200,"restarts":3}`},
		{"place header id", "/api/place", "hdr-7", `{"apps":[{"app":"quiet","units":16}]}`},
		{"place unknown field and trailing bytes", "/api/place", "", `{"apps":[{"app":"quiet","units":1}],"zzz":1} trailing`},
		{"whatif", "/api/whatif", "", `{"placement":` + grid + `}`},
		{"whatif qos", "/api/whatif", "", `{"id":"wi-1","placement":` + grid + `,"qos_app":"sens","qos_max":1.2}`},
		{"whatif header id", "/api/whatif", "hdr-8", `{"placement":` + grid + `}`},
		{"malformed", "/api/place", "", `{nope`},
		{"wrong type", "/api/place", "", `{"apps":"sens"}`},
		{"empty body", "/api/place", "", ``},
		{"no apps", "/api/place", "", `{}`},
		{"bad demand", "/api/place", "", `{"apps":[{"app":"sens","units":0}]}`},
		{"duplicate demand", "/api/place", "", `{"apps":[{"app":"sens","units":1},{"app":"sens","units":2}]}`},
		{"unknown app", "/api/place", "", `{"apps":[{"app":"ghost","units":1}]}`},
		{"qos without bound", "/api/place", "", `{"apps":[` + four + `],"qos_app":"sens"}`},
		{"qos app not requested", "/api/place", "", `{"apps":[{"app":"quiet","units":1}],"qos_app":"sens","qos_max":1.5}`},
		{"over capacity", "/api/place", "", `{"apps":[{"app":"quiet","units":99}]}`},
		{"hostage iterations", "/api/place", "hdr-9", `{"apps":[` + four + `],"iterations":2000000000}`},
		{"panicking predictor", "/api/place", "", `{"apps":[{"app":"sens","units":4},{"app":"boom","units":4}]}`},
		{"whatif malformed", "/api/whatif", "", `[`},
		{"whatif wrong hosts", "/api/whatif", "", `{"placement":[["sens",""]]}`},
		{"whatif wrong slots", "/api/whatif", "", `{"placement":[["sens"],[""],[""],[""],[""],[""],[""],[""]]}`},
		{"whatif empty", "/api/whatif", "", `{"placement":[["",""],["",""],["",""],["",""],["",""],["",""],["",""],["",""]]}`},
		{"whatif unknown app", "/api/whatif", "", `{"id":"wi-2","placement":[["ghost",""],["",""],["",""],["",""],["",""],["",""],["",""],["",""]]}`},
		{"whatif qos without bound", "/api/whatif", "", `{"placement":` + grid + `,"qos_app":"sens"}`},
	} {
		post(c.name, base+c.path, c.header, c.body)
	}

	// 429: one worker held inside its search, the one queue slot taken.
	full, _, _ := newTestService(t, func(c *Config) { c.Workers, c.QueueDepth = 1, 1 })
	held, entered, release := gatedBackend("quiet")
	full.SetBackend(held)
	fullBase := obsServerFor(t, full).URL
	quiet := `{"apps":[{"app":"quiet","units":2}]}`
	served := make(chan *http.Response, 2)
	bg := func() {
		resp, err := http.Post(fullBase+"/api/place", "application/json", strings.NewReader(quiet))
		if err != nil {
			t.Error(err)
		}
		served <- resp
	}
	go bg()
	await(t, "the first request to reach its search", entered)
	go bg()
	waitQueued(t, full, 1)
	post("queue full", fullBase+"/api/place", "", quiet)
	release()
	for i := 0; i < 2; i++ {
		if resp := <-served; resp != nil {
			record("behind the gate", resp)
		}
	}

	// 503 before a backend, 503 after Close.
	unarmed, err := New(Config{NumHosts: 8, SlotsPerHost: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(unarmed.Close)
	unarmedBase := obsServerFor(t, unarmed).URL
	post("place unarmed", unarmedBase+"/api/place", "", `{"apps":[`+four+`]}`)
	post("whatif unarmed", unarmedBase+"/api/whatif", "", `{"placement":`+grid+`}`)
	s.Close()
	post("place closed", base+"/api/place", "", `{"apps":[`+four+`]}`)

	const golden = "testdata/parity.golden"
	if *updateParity {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("wire output differs from %s (captured at the parent implementation)\n--- got\n%s\n--- want\n%s", golden, got.Bytes(), want)
	}
}
