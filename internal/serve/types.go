// Package serve turns the placement engine into a service. Admission
// validates a request and puts it on a bounded queue (QueueDepth; a full
// queue answers 429); a pool of Workers goroutines takes requests off it
// one at a time, and each worker owns its request from dequeue to reply —
// the search, the request's metrics and spans, the release of the caller.
// Concurrent requests therefore run side by side, up to Workers of them,
// and share nothing mutable: the armed backend is an immutable snapshot
// and every search brings its own prediction cache. Every response is a
// pure function of its request content (seeds derive from content, never
// from arrival), so identical bodies get identical bytes whatever else is
// in flight. What is *not* ordered is the requests' side effects: counters,
// histograms, SLO observations and span ends land in completion order,
// not admission order — all of them are commutative, and no response
// depends on them. A finished decision can be handed on (Config.OnDecision:
// the daemon audits and drift-checks what it served) once its caller has
// been released. Request observability rides on the existing planes: a
// propagated request ID and a causal span tree per request in the
// telemetry tracer, per-stage latency histograms with interpolated
// p50/p95/p99 gauges derived when the registry is read, and a latency SLO
// tracker publishing burn-rate breaches on the event bus.
package serve

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cluster"
)

// AppDemand asks for one application at a unit count.
type AppDemand struct {
	App   string `json:"app"`
	Units int    `json:"units"`
}

// PlaceRequest is the body of POST /api/place: run the interference-aware
// placement search for the listed applications on the service's cluster.
// Every field besides Apps is optional. The response is a deterministic
// function of this content — two identical requests always produce
// bit-identical responses, regardless of arrival order or concurrency.
type PlaceRequest struct {
	// ID names the request in spans and logs; derived from the content
	// hash when empty.
	ID   string      `json:"id,omitempty"`
	Apps []AppDemand `json:"apps"`
	// QoSApp/QoSMax optionally constrain one application's predicted
	// normalized time (placement.QoS).
	QoSApp string  `json:"qos_app,omitempty"`
	QoSMax float64 `json:"qos_max,omitempty"`
	// Seed fixes the search seed; 0 derives one from the content hash.
	Seed int64 `json:"seed,omitempty"`
	// Iterations/Restarts override the service's search defaults.
	Iterations int `json:"iterations,omitempty"`
	Restarts   int `json:"restarts,omitempty"`
}

// WhatIfRequest is the body of POST /api/whatif: score one concrete
// placement (host-by-slot application grid, "" = empty slot) under the
// service's model without searching.
type WhatIfRequest struct {
	ID        string     `json:"id,omitempty"`
	Placement [][]string `json:"placement"`
	QoSApp    string     `json:"qos_app,omitempty"`
	QoSMax    float64    `json:"qos_max,omitempty"`
}

// Response answers both endpoints. Wall-clock latency lives in the
// serve_* histograms and the SLO tracker, never in the response, so
// responses stay byte-reproducible.
type Response struct {
	ID           string             `json:"id"`
	Endpoint     string             `json:"endpoint"`
	Seed         int64              `json:"seed"`
	Placement    [][]string         `json:"placement"`
	Objective    float64            `json:"objective"`
	Predicted    map[string]float64 `json:"predicted"`
	QoSSatisfied bool               `json:"qos_satisfied"`
	Evaluations  int                `json:"evaluations"`
}

// Ceilings on what one request may ask of the pool's workers: a
// body can lengthen its own search, not occupy the daemon with it.
const (
	maxRequestUnits      = 1 << 20 // per app; also keeps the unit total from overflowing
	maxRequestIterations = 1_000_000
	maxRequestRestarts   = 64
)

// validate rejects malformed placement requests before admission.
func (r PlaceRequest) validate() error {
	if len(r.Apps) == 0 {
		return errors.New("serve: no apps requested")
	}
	seen := map[string]bool{}
	for _, a := range r.Apps {
		if a.App == "" || a.Units <= 0 || a.Units > maxRequestUnits {
			return fmt.Errorf("serve: bad demand %+v", a)
		}
		if seen[a.App] {
			return fmt.Errorf("serve: duplicate demand for %q", a.App)
		}
		seen[a.App] = true
	}
	if (r.QoSApp == "") != (r.QoSMax == 0) {
		return errors.New("serve: qos_app and qos_max must be set together")
	}
	if r.QoSApp != "" && !seen[r.QoSApp] {
		return fmt.Errorf("serve: qos app %q not among requested apps", r.QoSApp)
	}
	if r.Iterations < 0 || r.Iterations > maxRequestIterations || r.Restarts < 0 || r.Restarts > maxRequestRestarts {
		return fmt.Errorf("serve: search tuning outside [0, %d] iterations, [0, %d] restarts",
			maxRequestIterations, maxRequestRestarts)
	}
	return nil
}

// digest is a running FNV-64a (the parameters of hash/fnv.New64a) over
// NUL-terminated parts, kept as a value so hashing a request allocates
// nothing.
type digest uint64

const (
	fnvOffset64 digest = 14695981039346656037
	fnvPrime64  digest = 1099511628211
)

func (d digest) bytes(b []byte) digest {
	for _, c := range b {
		d = (d ^ digest(c)) * fnvPrime64
	}
	return d
}

// end folds the NUL that terminates a part (d ^ 0 is d).
func (d digest) end() digest { return d * fnvPrime64 }

// str folds s as one part.
func (d digest) str(s string) digest {
	for i := 0; i < len(s); i++ {
		d = (d ^ digest(s[i])) * fnvPrime64
	}
	return d.end()
}

// num folds v in decimal.
func (d digest) num(v int64) digest {
	var buf [24]byte
	return d.bytes(strconv.AppendInt(buf[:0], v, 10)).end()
}

// tail folds the parts every digested request ends with.
func (d digest) tail(qosApp string, qosMax float64, seed int64, iterations, restarts int) uint64 {
	var buf [32]byte
	d = d.str(qosApp).bytes(strconv.AppendFloat(buf[:0], qosMax, 'g', -1, 64)).end()
	return uint64(d.num(seed).num(int64(iterations)).num(int64(restarts)))
}

// hash folds the request content into an FNV-64a digest — the basis for
// the derived request ID and search seed, so identical content means an
// identical search no matter when or beside what it runs.
func (r PlaceRequest) hash() uint64 {
	d := fnvOffset64.str("place")
	for _, a := range r.Apps {
		d = d.str(a.App).num(int64(a.Units))
	}
	return d.tail(r.QoSApp, r.QoSMax, r.Seed, r.Iterations, r.Restarts)
}

// whatIfHash digests a what-if request for ID derivation: the digest of
// the placement request that demands one unit of "<host>/<slot>/<app>"
// per occupied slot.
func whatIfHash(req WhatIfRequest) uint64 {
	d := fnvOffset64.str("place")
	var buf [48]byte
	for h, row := range req.Placement {
		for s, app := range row {
			if app != "" {
				b := strconv.AppendInt(buf[:0], int64(h), 10)
				b = strconv.AppendInt(append(b, '/'), int64(s), 10)
				d = d.bytes(append(b, '/')).str(app).num(1)
			}
		}
	}
	return d.tail(req.QoSApp, req.QoSMax, 0, 0, 0)
}

// requestID returns the explicit ID or one derived from the content hash.
func (r PlaceRequest) requestID() string {
	if r.ID != "" {
		return r.ID
	}
	return fmt.Sprintf("req-%016x", r.hash())
}

// searchSeed mixes the service's base seed with the request: an explicit
// request seed wins, otherwise the content hash decides — never arrival
// order, so concurrency cannot perturb a response.
func (r PlaceRequest) searchSeed(base int64) int64 {
	if r.Seed != 0 {
		return r.Seed
	}
	return base*1_000_003 + int64(r.hash()%(1<<62))
}

// encodePlacement materializes a placement as its host-by-slot grid.
func encodePlacement(p *cluster.Placement) [][]string {
	out := make([][]string, p.NumHosts)
	for h := 0; h < p.NumHosts; h++ {
		row := make([]string, p.HostSlots)
		for s := 0; s < p.HostSlots; s++ {
			row[s] = p.At(h, s)
		}
		out[h] = row
	}
	return out
}

// decodePlacement rebuilds a cluster.Placement from a grid, enforcing the
// service's cluster dimensions and the co-location rule via Set.
func decodePlacement(grid [][]string, numHosts, slotsPerHost, appsLimit int) (*cluster.Placement, error) {
	if len(grid) != numHosts {
		return nil, fmt.Errorf("serve: placement has %d hosts, cluster has %d", len(grid), numHosts)
	}
	p, err := cluster.NewPlacementLimit(numHosts, slotsPerHost, appsLimit)
	if err != nil {
		return nil, err
	}
	for h, row := range grid {
		if len(row) != slotsPerHost {
			return nil, fmt.Errorf("serve: host %d has %d slots, cluster has %d", h, len(row), slotsPerHost)
		}
		for s, app := range row {
			if app == "" {
				continue
			}
			if err := p.Set(h, s, app); err != nil {
				return nil, fmt.Errorf("serve: host %d slot %d: %w", h, s, err)
			}
		}
	}
	return p, nil
}

// demands converts the request's app list to cluster demands.
func (r PlaceRequest) demands() []cluster.Demand {
	out := make([]cluster.Demand, len(r.Apps))
	for i, a := range r.Apps {
		out[i] = cluster.Demand{App: a.App, Units: a.Units}
	}
	return out
}
