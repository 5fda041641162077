package app

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
)

// Factors is the jitter of one run stream, in draw order: for node i the
// JitterAround1(NoiseSigma) values of the stream's StreamN("node", i), and
// for stage k the TasksPerStage JitterAround1(TaskSkewSigma) values of its
// StreamN("skew", k). Every engine reads its factors through a table, so a
// run's jitter is a function of (run stream, node or stage, position, σ)
// alone, whoever filled the table and in which order.
//
// The zero value is an empty table. The first run that reads it binds it to
// its run stream (Params.RNG's seed) and its spec's two sigmas; a later run
// on another stream or with other sigmas fails rather than read factors
// that are not its own. A table is safe for concurrent runs: it fills under
// its lock, and a filled factor never moves or changes.
//
// A node's sequence does not depend on the run's width, so one table serves
// runs of any width. Sequences fill on demand from a borrowed generator —
// a table keeps no generator, only its factors — in chunks that are never
// copied: a fixed-count engine's first run fills exactly what it reads,
// and a task engine's sequences grow as schedules reach further. σ = 0
// draws and stores nothing.
type Factors struct {
	mu    sync.Mutex
	bound bool
	root  sim.RNG // the run stream; only its children are drawn from
	noise float64
	skew  float64
	node  []factorSeq
	stage []factorSeq // stage k at k-1
}

// factorSeq is one stream's factors: chunks in draw order, each full up to
// the one being filled. A private table keeps its chunks' storage across
// runs, so after a reset the chunks past the filled ones are empty.
type factorSeq struct {
	chunks [][]float64
	n      int // factors filled: the sum of the chunks' lengths
}

// ones stands in for the factors of a σ = 0 sequence, which are all 1.
var ones = func() (v [256]float64) {
	for i := range v {
		v[i] = 1
	}
	return v
}()

// rngPool lends the generators tables fill from. A pooled stream keeps its
// source across re-targeting (sim.RNG.StreamNInto), so a fill allocates no
// generator state.
var rngPool = sync.Pool{New: func() any { return new(sim.RNG) }}

// bind binds an unbound table to a run, or checks that a bound one belongs
// to it. The caller holds f.mu.
func (f *Factors) bind(seed int64, s *Spec) error {
	if !f.bound {
		f.root.Reset(seed)
		f.noise, f.skew, f.bound = s.NoiseSigma, s.TaskSkewSigma, true
		return nil
	}
	if f.root.Seed() != seed || math.Float64bits(f.noise) != math.Float64bits(s.NoiseSigma) ||
		math.Float64bits(f.skew) != math.Float64bits(s.TaskSkewSigma) {
		return fmt.Errorf("app %s: jitter table belongs to another run stream or sigma", s.Name)
	}
	return nil
}

// reset empties a private table for its next run, keeping its storage.
func (f *Factors) reset() {
	f.bound = false
	for i := range f.node {
		f.node[i].reset()
	}
	for i := range f.stage {
		f.stage[i].reset()
	}
}

func (q *factorSeq) reset() {
	for c := range q.chunks {
		q.chunks[c] = q.chunks[c][:0]
	}
	q.n = 0
}

// from returns the filled factors from position pos (< q.n) to the end of
// the chunk holding it.
func (q *factorSeq) from(pos int) []float64 {
	for _, c := range q.chunks {
		if pos < len(c) {
			return c[pos:]
		}
		pos -= len(c)
	}
	panic("app: factor position past the filled sequence")
}

// fill extends q to n factors of the run stream's child (name, idx). The
// borrowed generator skips the factors q already holds and draws the rest
// into the first chunk with room, then into one new chunk of exactly the
// missing length. The caller holds f.mu.
func (f *Factors) fill(q *factorSeq, name string, idx int, sigma float64, n int) {
	if q.n >= n {
		return
	}
	g := rngPool.Get().(*sim.RNG)
	f.root.StreamNInto(g, name, idx)
	g.SkipJitter(q.n, sigma)
	c := 0
	for c < len(q.chunks) && len(q.chunks[c]) == cap(q.chunks[c]) {
		c++
	}
	for ; q.n < n; c++ {
		if c == len(q.chunks) {
			q.chunks = append(q.chunks, make([]float64, 0, n-q.n))
		}
		ch := q.chunks[c]
		for len(ch) < cap(ch) && q.n < n {
			ch = append(ch, g.JitterAround1(sigma))
			q.n++
		}
		q.chunks[c] = ch
	}
	rngPool.Put(g)
}

// nodeFrom returns node i's factors from position pos to the end of their
// chunk, first filling the sequence to pos+step if it stops short of pos.
func (f *Factors) nodeFrom(i, pos, step int) []float64 {
	if f.noise == 0 {
		return ones[:]
	}
	f.mu.Lock()
	q := &f.node[i]
	if pos >= q.n {
		f.fill(q, "node", i, f.noise, pos+step)
	}
	v := q.from(pos)
	f.mu.Unlock()
	return v
}

// open binds the table to a run and points a cursor at the start of each
// of its nodes' sequences, filling every sequence to at least want.
func (f *Factors) open(seed int64, s *Spec, cur []cursor, want, step int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.bind(seed, s); err != nil {
		return err
	}
	f.node = extendTo(f.node, len(cur))
	if f.skew != 0 {
		f.stage = extendTo(f.stage, s.NumStages)
	}
	for i := range cur {
		rest := ones[:]
		if f.noise != 0 {
			q := &f.node[i]
			f.fill(q, "node", i, f.noise, want)
			rest = q.from(0)
		}
		cur[i] = cursor{rest: rest, f: f, node: i, step: step}
	}
	return nil
}

// extendTo returns v extended with empty sequences to length n, in one
// allocation.
func extendTo(v []factorSeq, n int) []factorSeq {
	if len(v) >= n {
		return v
	}
	return append(v, make([]factorSeq, n-len(v))...)
}

// skewInto returns stage k's n task-skew factors (k counts from 1, and the
// run has opened the table) in dst's storage.
func (f *Factors) skewInto(dst []float64, k, n int) []float64 {
	dst = dst[:0]
	if f.skew == 0 {
		for len(dst) < n {
			dst = append(dst, 1)
		}
		return dst
	}
	f.mu.Lock()
	q := &f.stage[k-1]
	f.fill(q, "skew", k, f.skew, n)
	for _, c := range q.chunks {
		dst = append(dst, c[:min(len(c), n-len(dst))]...)
	}
	f.mu.Unlock()
	return dst
}

// cursor reads one node's factors in order.
type cursor struct {
	rest []float64 // the filled factors from pos to the end of their chunk
	pos  int
	f    *Factors
	node int
	step int // how far past pos a refill fills the sequence
}

// next returns the node's next factor.
func (c *cursor) next() float64 {
	if len(c.rest) == 0 {
		c.rest = c.f.nodeFrom(c.node, c.pos, c.step)
	}
	v := c.rest[0]
	c.rest = c.rest[1:]
	c.pos++
	return v
}

// runJitter is one run's view of its factors: a cursor per node over the
// shared table the run was handed, or over the run's own private table,
// filled from Params.RNG. Views live in a pool like the engines, so a warm
// run's private table reuses the storage an earlier run filled.
type runJitter struct {
	f    *Factors // the table the run reads: shared, or &own
	own  Factors
	node []cursor
}

var jitterPool = sync.Pool{New: func() any { return new(runJitter) }}

// openJitter opens the run's view over n nodes, filling each node's
// sequence to want factors; a read past the filled end fills step more.
func (s *Spec) openJitter(p Params, want, step int) (*runJitter, error) {
	j := jitterPool.Get().(*runJitter)
	j.f = p.Factors
	if j.f == nil {
		j.f = &j.own
		j.f.reset()
	}
	j.node = resize(j.node, len(p.Slowdown))
	if err := j.f.open(p.RNG.Seed(), s, j.node, want, step); err != nil {
		j.release()
		return nil, err
	}
	return j, nil
}

// release returns the view to the pool, dropping its hold on a shared
// table.
func (j *runJitter) release() {
	j.f = nil
	clear(j.node)
	jitterPool.Put(j)
}
