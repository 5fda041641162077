package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// The daemon's wire contract (internal/serve's JSON bodies), restated here
// so the generator and the verifier depend on the bytes a client sees and
// not on the program's Go types.

type appDemand struct {
	App   string `json:"app"`
	Units int    `json:"units"`
}

type placeRequest struct {
	Apps   []appDemand `json:"apps"`
	QoSApp string      `json:"qos_app,omitempty"`
	QoSMax float64     `json:"qos_max,omitempty"`
	Seed   int64       `json:"seed"`
}

type whatIfRequest struct {
	Placement [][]string `json:"placement"`
	QoSApp    string     `json:"qos_app,omitempty"`
	QoSMax    float64    `json:"qos_max,omitempty"`
}

type placeResponse struct {
	Endpoint     string             `json:"endpoint"`
	Placement    [][]string         `json:"placement"`
	Objective    float64            `json:"objective"`
	Predicted    map[string]float64 `json:"predicted"`
	QoSSatisfied bool               `json:"qos_satisfied"`
	Evaluations  int                `json:"evaluations"`
}

// The paper-scale cluster every HTTP request is placed on: interfd's
// fixed 8 hosts x 2 slots.
const (
	paperHosts = 8
	paperSlots = 2
	// qosBound is the QoS bound a quarter of the requests carry.
	qosBound = 1.5
	// whatIfShare is the share of whatif_mix requests that re-score.
	whatIfShare = 0.8
)

// stream is one client's seeded request sequence. The same (seed, client)
// always yields the same requests.
type stream struct {
	rng  *rand.Rand
	apps []string
	perm []int
}

func newStream(apps []string, seed int64, client int) *stream {
	return &stream{
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
		apps: apps,
		perm: make([]int, len(apps)),
	}
}

// nextPlace draws one placement request: 1-4 distinct apps of 2 or 4
// units each (at most 16 units, the whole cluster), a QoS bound on one of
// them a quarter of the time, and an explicit non-zero search seed.
func (s *stream) nextPlace() placeRequest {
	k := 1 + s.rng.Intn(4)
	for i := range s.perm {
		s.perm[i] = i
	}
	req := placeRequest{Apps: make([]appDemand, k)}
	for i := 0; i < k; i++ {
		j := i + s.rng.Intn(len(s.perm)-i)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		req.Apps[i] = appDemand{App: s.apps[s.perm[i]], Units: 2 + 2*s.rng.Intn(2)}
	}
	if s.rng.Intn(4) == 0 {
		req.QoSApp = req.Apps[s.rng.Intn(k)].App
		req.QoSMax = qosBound
	}
	req.Seed = 1 + s.rng.Int63n(1<<62)
	return req
}

// nextIsWhatIf decides whether the next whatif_mix request re-scores the
// latest placement rather than searching a new one.
func (s *stream) nextIsWhatIf() bool { return s.rng.Float64() < whatIfShare }

// decodeResponse parses a 200 body.
func decodeResponse(body []byte) (placeResponse, error) {
	var resp placeResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&resp); err != nil {
		return resp, fmt.Errorf("decode response: %w", err)
	}
	return resp, nil
}

// verifyGrid checks a returned placement against the demands it answers:
// the grid has the cluster's shape, every app has exactly its requested
// units, no host holds more than two apps, and no unit sits on a down
// host.
func verifyGrid(grid [][]string, want []appDemand, hosts, slots int, down map[int]bool) error {
	if len(grid) != hosts {
		return fmt.Errorf("placement has %d hosts, want %d", len(grid), hosts)
	}
	got := make(map[string]int, len(want))
	for h, row := range grid {
		if len(row) != slots {
			return fmt.Errorf("host %d has %d slots, want %d", h, len(row), slots)
		}
		var first, second string
		for _, a := range row {
			if a == "" {
				continue
			}
			if down[h] {
				return fmt.Errorf("unit of %q on down host %d", a, h)
			}
			got[a]++
			switch {
			case first == "" || a == first:
				first = a
			case second == "" || a == second:
				second = a
			default:
				return fmt.Errorf("host %d holds more than two apps", h)
			}
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("placement holds %d apps, want %d", len(got), len(want))
	}
	for _, d := range want {
		if got[d.App] != d.Units {
			return fmt.Errorf("app %q has %d units, want %d", d.App, got[d.App], d.Units)
		}
	}
	return nil
}

// verifyPlace checks one /api/place answer.
func verifyPlace(req placeRequest, resp placeResponse) error {
	if resp.Endpoint != "place" {
		return fmt.Errorf("endpoint %q, want place", resp.Endpoint)
	}
	if !(resp.Objective > 0) {
		return errors.New("non-positive objective")
	}
	if len(resp.Predicted) != len(req.Apps) {
		return fmt.Errorf("%d predictions for %d apps", len(resp.Predicted), len(req.Apps))
	}
	return verifyGrid(resp.Placement, req.Apps, paperHosts, paperSlots, nil)
}

// verifyWhatIf checks one /api/whatif answer against the placement answer
// whose grid it re-scored: same grid back, and exactly the same objective,
// since both endpoints evaluate the same model.
func verifyWhatIf(placed placeResponse, resp placeResponse) error {
	if resp.Endpoint != "whatif" {
		return fmt.Errorf("endpoint %q, want whatif", resp.Endpoint)
	}
	if resp.Objective != placed.Objective {
		return fmt.Errorf("whatif objective %v differs from placed %v", resp.Objective, placed.Objective)
	}
	if !slices.EqualFunc(resp.Placement, placed.Placement, slices.Equal[[]string]) {
		return errors.New("whatif returned a different grid")
	}
	return nil
}
