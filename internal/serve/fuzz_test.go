package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzPlaceRequestDecode feeds arbitrary bytes to the service's two
// request parsers — the first byte stream in the tree that arrives from
// outside the process. POST /api/place is driven through the real handler
// of an unarmed service (decode, ID propagation, validate, then 503 for
// want of models, so no search runs); the what-if grid goes through
// decodePlacement. Neither may panic, a body that validates stays inside
// the request ceilings, and a grid that decodes is a valid placement.
func FuzzPlaceRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"apps":[{"app":"sens","units":4},{"app":"quiet","units":4}],"qos_app":"sens","qos_max":1.5}`,
		`{"id":"x","apps":[{"app":"a","units":1}],"seed":-9,"iterations":50,"restarts":2}`,
		`{"apps":[{"app":"a","units":4611686018427387904},{"app":"b","units":4611686018427387904}]}`,
		`{"apps":[{"app":"a","units":1}],"iterations":2000000000,"restarts":1073741824}`,
		`{"placement":[["a","b"],["a",""],["",""],["",""],["",""],["",""],["",""],["",""]]}`,
		`{"placement":[["a","b","c"]],"qos_app":"a"}`,
		`{"apps":null,"placement":null}`,
		`{"apps":[{"app":" ","units":1e99}]}`,
		`[]`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{NumHosts: 8, SlotsPerHost: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.handlePlace(rec, httptest.NewRequest(http.MethodPost, "/api/place", bytes.NewReader(body)))
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("unarmed /api/place answered %d to %q", rec.Code, body)
		}
		var pr PlaceRequest
		if json.Unmarshal(body, &pr) == nil && pr.validate() == nil {
			if pr.Iterations > maxRequestIterations || pr.Restarts > maxRequestRestarts {
				t.Fatalf("validated request exceeds the tuning ceilings: %+v", pr)
			}
			total := 0
			for _, d := range pr.demands() {
				if total += d.Units; d.Units <= 0 || total <= 0 {
					t.Fatalf("validated request has a non-positive unit total: %+v", pr)
				}
			}
			if pr.requestID() == "" || pr.searchSeed(1) != pr.searchSeed(1) {
				t.Fatalf("request identity unstable: %+v", pr)
			}
		}
		var wr WhatIfRequest
		if json.Unmarshal(body, &wr) == nil {
			_ = whatIfHash(wr)
			if p, err := decodePlacement(wr.Placement, 8, 2, 0); err == nil {
				if err := p.Validate(); err != nil {
					t.Fatalf("decoded placement is invalid: %v (%q)", err, body)
				}
			}
		}
	})
}
