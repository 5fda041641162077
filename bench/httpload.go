package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// sample is one completed request of the closed loop.
type sample struct {
	start, end time.Time
	whatIf     bool
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6 }

// quality accumulates the deterministic part of a client's stream: its
// first `want` placement answers, whose content depends only on the seed.
type quality struct {
	want             int
	n                int
	objective        float64 // sum of the answers' objectives
	qosAsked, qosMet int
}

// loadClient is one closed-loop caller: it sends its next request only
// after the previous answer arrived, over one keep-alive connection.
type loadClient struct {
	hc     *http.Client
	base   string
	st     *stream
	mix    bool // whatif_mix traffic instead of placements only
	latest placeResponse
	have   bool
	buf    bytes.Buffer
	q      quality
	sent   int // requests drawn from the stream
	out    []sample
	errs   []error // first few failures, for the log

	attempted, failed int // every request sent, re-sends included
}

func newLoadClient(base string, apps []string, seed int64, id int, mix bool, want int) *loadClient {
	return &loadClient{
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   10 * time.Second,
		},
		base: base, st: newStream(apps, seed, id), mix: mix,
		q: quality{want: want},
	}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// post sends one body and returns the 200 answer's bytes (valid until the
// next post).
func (c *loadClient) post(path string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), nil
}

func (c *loadClient) fail(err error) {
	c.failed++
	if len(c.errs) < 3 {
		c.errs = append(c.errs, err)
	}
}

// resendEvery is how often a request is sent a second time to check that
// the daemon answers identical content with identical bytes.
const resendEvery = 100

// one sends the client's next request and verifies the answer. It reports
// whether the answer was a verified 200; only then, and only when record is
// set, is the timing appended to out, so a daemon that fails fast never
// reads as a fast one.
func (c *loadClient) one(record bool) bool {
	whatIf := c.mix && c.have && c.st.nextIsWhatIf()
	var (
		path string
		body []byte
		req  placeRequest
	)
	if whatIf {
		path = "/api/whatif"
		body, _ = json.Marshal(whatIfRequest{Placement: c.latest.Placement}) // strings only: cannot fail
	} else {
		path = "/api/place"
		req = c.st.nextPlace()
		body, _ = json.Marshal(req) // plain struct: cannot fail
	}
	c.sent++
	c.attempted++
	t0 := time.Now()
	ans, err := c.post(path, body)
	t1 := time.Now()
	var resp placeResponse
	if err == nil {
		resp, err = decodeResponse(ans)
	}
	if err == nil {
		if whatIf {
			err = verifyWhatIf(c.latest, resp)
		} else {
			err = verifyPlace(req, resp)
		}
	}
	if err != nil {
		c.fail(err)
		return false
	}
	if record {
		c.out = append(c.out, sample{start: t0, end: t1, whatIf: whatIf})
	}
	if !whatIf {
		c.latest, c.have = resp, true
		if c.q.n < c.q.want {
			c.q.n++
			c.q.objective += resp.Objective
			if req.QoSApp != "" {
				c.q.qosAsked++
				if resp.QoSSatisfied {
					c.q.qosMet++
				}
			}
		}
	}
	if c.sent%resendEvery == 0 {
		first := append([]byte(nil), ans...)
		c.attempted++
		again, err := c.post(path, body)
		if err == nil && !bytes.Equal(first, again) {
			err = fmt.Errorf("%s answered the same request with different bytes", path)
		}
		if err != nil {
			c.fail(err)
			return false
		}
	}
	return true
}

// topUpLimit bounds the untimed requests after the window that complete
// the quality sample. At full size the sample fills inside the window, so
// the limit only matters when the daemon has slowed or stopped answering.
const topUpLimit = 20 * time.Second

// run drives the closed loop: discarded warm-up until windowStart, timed
// requests until windowEnd, then untimed requests until the deterministic
// quality sample is complete. The top-up ends at the first failure or
// after topUpLimit, whichever comes first, and leaves the sample short: a
// daemon that stops answering ends the run as a failed one, not as a hang.
func (c *loadClient) run(windowStart, windowEnd time.Time) {
	for {
		now := time.Now()
		timed := now.Before(windowEnd)
		if !timed && (c.q.n >= c.q.want || now.After(windowEnd.Add(topUpLimit))) {
			return
		}
		if ok := c.one(timed && !now.Before(windowStart)); !ok && !timed {
			return
		}
	}
}

// httpLoad is what one loaded window against a live daemon yields.
type httpLoad struct {
	samples           []sample // in-window, all clients
	window            time.Duration
	q                 quality // summed over clients
	before, after     map[string]float64
	allocBytes        float64 // daemon TotalAlloc delta over the window
	windowStart       time.Time
	errs              []error
	attempted, failed int
}

// driveLoad runs `clients` closed-loop callers against d for warm-up plus
// window, scraping the daemon's own counters at the window's edges.
func driveLoad(d *daemon, apps []string, seed int64, clients int, mix bool, warm, window time.Duration, want int) (httpLoad, error) {
	cs := make([]*loadClient, clients)
	for i := range cs {
		cs[i] = newLoadClient(d.base, apps, seed, i, mix, want)
		defer cs[i].close()
	}
	t0 := time.Now()
	start, end := t0.Add(warm), t0.Add(warm+window)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			c.run(start, end)
		}(c)
	}
	var res httpLoad
	var scrapeErr error
	scrape := func(at time.Time) (map[string]float64, float64) {
		time.Sleep(time.Until(at))
		m, err := d.counters()
		if err != nil && scrapeErr == nil {
			scrapeErr = err
		}
		a, err := d.totalAllocBytes()
		if err != nil && scrapeErr == nil {
			scrapeErr = err
		}
		return m, a
	}
	var a0, a1 float64
	res.before, a0 = scrape(start)
	res.after, a1 = scrape(end)
	wg.Wait()
	if scrapeErr != nil {
		return res, scrapeErr
	}
	res.allocBytes = a1 - a0
	res.window = window
	res.windowStart = start
	for _, c := range cs {
		// A request straddling an edge of the window is outside it.
		for _, s := range c.out {
			if !s.start.Before(start) && !s.end.After(end) {
				res.samples = append(res.samples, s)
			}
		}
		res.q.n += c.q.n
		res.q.objective += c.q.objective
		res.q.qosAsked += c.q.qosAsked
		res.q.qosMet += c.q.qosMet
		res.attempted += c.attempted
		res.failed += c.failed
		res.errs = append(res.errs, c.errs...)
	}
	return res, nil
}

// subWindows is how many equal slices a timed window is cut into; each
// latency metric is the median over the slices of the slice's percentile,
// which keeps one noisy second from moving the figure.
const subWindows = 5

// slicedPercentile cuts [start, start+window) into subWindows slices by
// completion time, takes percentile p of the latencies (ms) of the kept
// samples in each (keep == nil keeps all), and returns the median over
// the non-empty slices.
func slicedPercentile(samples []sample, start time.Time, window time.Duration, p float64, keep func(sample) bool) float64 {
	slices := make([][]float64, subWindows)
	width := window / subWindows
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		i := int(s.end.Sub(start) / width)
		if i < 0 {
			i = 0
		}
		if i >= subWindows {
			i = subWindows - 1
		}
		slices[i] = append(slices[i], s.ms())
	}
	var per []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			per = append(per, percentile(sortedCopy(sl), p))
		}
	}
	return median(per)
}
