// The cross-cell exchange phase: deterministic batched annealing over the
// fleet grid, the hierarchical search's last phase (hier.go).
//
// A textbook annealer is inherently sequential: proposal i+1's
// evaluation depends on whether proposal i was accepted. The exchange
// breaks the dependency without giving up determinism, by splitting the
// randomness and the evaluation:
//
//   - Geometry (which cells/hosts/slots to swap) is drawn for a whole
//     batch of K proposals up front from Stream("exchange"). The draw
//     schedule depends only on static shape — cell count, host lists,
//     the down set — never on search state, so the proposal sequence is
//     a pure function of the seed, identical for every evaluator count
//     and batch size.
//   - Acceptance uniforms come from a second stream,
//     Stream("exchange-accept"), consumed lazily in commit order (only
//     when an uphill move needs a Metropolis coin). Commit order is draw
//     order, so this consumption too is independent of K and N.
//
// Evaluators then score the batch concurrently against a frozen
// snapshot of the pre-batch state (each owns a grid + postings mirror
// and a memo cache in a pooled workspace), and the commit loop walks the
// batch in draw order, driving the same walk as a flat restart:
//
//   - A proposal is *clean* when no earlier commit in the same batch
//     dirtied either of its hosts or any of its affected apps. A clean
//     proposal's speculative predictions are bitwise what an
//     authoritative evaluation would produce: an app is affected only
//     through the pressure vectors of its own units, those vectors
//     change only on dirtied hosts, and every predictor/memo in the
//     engine is a pure function of the vector bits. Clean results are
//     therefore committed as-is (the commit loop recomputes only the
//     full-sum objective, in the same accumulation order as the flat
//     engine).
//   - A dirty proposal is re-evaluated serially against the
//     authoritative engine — counted in
//     placement_exchange_conflicts_total — so the accepted trajectory
//     is exactly what a one-proposal-at-a-time annealer running this
//     two-stream draw discipline would produce.
//
// Both the host check and the app check are required: two proposals
// can touch disjoint hosts while sharing an affected app (its units
// spread across both pairs), and its speculated prediction would then
// be stale.
//
// A mirror is copied from the fleet grid once per search; at each later
// batch its evaluator replays the swaps the previous batch committed, in
// commit order. A grid is a pure function of its swap sequence, and
// sorted postings segments are canonical, so the replayed mirror is the
// authoritative state again without re-copying thousands of cells.
//
// This is the one exchange algorithm at every evaluator count, one
// included: Config.ExchangeWorkers only caps how many goroutines score a
// batch, it never selects a different trajectory.

package placement

import (
	"runtime"
	"slices"

	"repro/internal/sim"
)

// exchangeBatch is K, the number of proposals speculated per round.
// Larger batches amortize evaluator synchronization but raise the conflict
// rate (more commits dirty more hosts before later proposals commit);
// 32 keeps conflicts in the low percents at fleet-bench acceptance
// rates. The trajectory does not depend on this value.
const exchangeBatch = 32

// Speculative proposal verdicts.
const (
	exSkip    uint8 = iota // ca == cb: no proposal this iteration
	exDown    uint8 = iota // touches a crashed host (static verdict)
	exPending              // awaiting worker evaluation
	exSame                 // both slots hold the same content (frozen state)
	exInvalid              // violates the co-location rule (frozen state)
	exEvaled               // evaluated: aff/val carry the speculative deltas
	exFailed               // evaluation errored (err carries it)
)

// exProposal is one drawn proposal plus its speculative result.
type exProposal struct {
	ha, sa, hb, sb int
	kind           uint8
	aff            []int32   // affected apps (both rows, post-swap, dedup)
	val            []float64 // speculative predictions, parallel to aff
	err            error
}

// speculate runs one pending proposal against a worker's frozen mirror
// of the engine and undoes it: every verdict and value is a function of
// the frozen state only.
func (p *exProposal) speculate(e *incEval) {
	if e.grid.Cell(p.ha, p.sa) == e.grid.Cell(p.hb, p.sb) {
		p.kind = exSame
		return
	}
	valid, err := e.propose(p.ha, p.sa, p.hb, p.sb)
	if !valid {
		p.kind = exInvalid
		return
	}
	p.kind, p.err = exEvaled, err
	if err != nil {
		p.kind = exFailed
	}
	p.aff = append(p.aff[:0], e.affected...)
	p.val = p.val[:0]
	for _, id := range p.aff {
		p.val = append(p.val, e.cand[id])
	}
	e.reject()
}

// swapMove is one committed swap, as the evaluators replay it.
type swapMove struct{ ha, sa, hb, sb int }

// exchangeOutcome carries the exchange phase's counters: the walk's
// tally plus conflicts (proposals re-evaluated serially) and occupancy
// (mean per-batch fraction of speculative evaluations consumed as-is).
type exchangeOutcome struct {
	tally
	conflicts uint64
	occupancy float64
}

// exchange anneals cross-cell swaps over the fleet grid in ws: each
// proposal picks two distinct cells and a random slot in each
// (within-cell pairs were already annealed by the cell phase). Its
// trajectory — objective, placement, predictions, evaluation count — is
// a pure function of (Request, Config.Seed), identical for every
// evaluator count; only the cache hit/miss split varies with it (each
// evaluator warms its own memo). The walk starts from the predictions
// the cell phase left in ws.e.pred, re-predicting only ws.stale. The
// best state is left in ws.best. onBatch, when non-nil, sees the
// authoritative engine and the evaluators once each batch's speculation
// is done, before its commits (tests check the mirrors there).
func exchange(ws *workspace, b *bound, cfg *Config, sign float64, cells [][]int, onBatch func(auth *incEval, evaluators []*workspace)) (exchangeOutcome, error) {
	span := cfg.Tracer.StartSpan("placement.exchange")
	defer span.End()
	var w walk
	if err := w.begin(ws, &b.problem, sign); err != nil {
		return exchangeOutcome{}, err
	}
	e := w.e
	iters := cfg.ExchangeIters
	if iters <= 0 {
		iters = cfg.Iterations
	}
	rg, ra := &ws.draw, &ws.aux
	rg.Reset(streamSeed(cfg.Seed, "exchange"))
	ra.Reset(streamSeed(cfg.Seed, "exchange-accept"))

	// Each evaluator speculates on a pooled engine that mirrors e; like
	// the cell phase, the phase sizes itself to the machine unless capped.
	evaluators := cfg.ExchangeWorkers
	if evaluators <= 0 {
		evaluators = runtime.GOMAXPROCS(0)
	}
	workers := ws.evaluators[:0]
	for range min(evaluators, exchangeBatch) {
		workers = append(workers, acquireWorkspace())
	}
	ws.evaluators = workers
	if len(ws.props) < exchangeBatch {
		ws.props = make([]exProposal, exchangeBatch)
	}
	props := ws.props
	// Dirtiness epochs: hostEp/appEp hold the last batch epoch that
	// committed a change to the host/app; comparing against the current
	// epoch makes per-batch clearing free.
	hostEp := resetEpochs(&ws.hostEp, b.hosts)
	appEp := resetEpochs(&ws.appEp, len(b.ix.Apps))
	ep := 0
	// commits is the current batch's committed swaps, in commit order:
	// what the evaluators replay at the next batch's start.
	commits := ws.commits[:0]

	var o exchangeOutcome
	finish := func(temp float64) {
		w.finish(temp)
		for i, wk := range workers {
			h, m := wk.e.cache.Stats()
			w.hits += h
			w.misses += m
			ch, cm := wk.e.cache.CombineStats()
			w.chits += ch
			w.cmisses += cm
			releaseWorkspace(wk)
			workers[i] = nil
		}
		ws.commits = commits
		o.tally = w.tally
	}

	temp, cool := initTemp, coolRate(iters)
	var batches, occSum float64

	// clean reports whether no commit of the current batch has touched
	// p's hosts or, for an evaluated proposal, its affected apps.
	clean := func(p *exProposal) bool {
		if hostEp[p.ha] == ep || hostEp[p.hb] == ep {
			return false
		}
		if p.kind == exEvaled {
			for _, id := range p.aff {
				if appEp[id] == ep {
					return false
				}
			}
		}
		return true
	}
	objs := &ws.objs
	objs.drop()

	// speculate brings evaluator wi's mirror to the pre-batch state — a
	// full copy at the first batch, a replay of the previous batch's
	// commits after that — and scores its deterministic stripe of the
	// current batch (its first n proposals) against it.
	var n int
	speculate := func(wi int) {
		wk := &workers[wi].e
		if ep == 1 {
			wk.mirror(e)
		} else {
			for _, m := range commits {
				wk.swap(m.ha, m.sa, m.hb, m.sb)
			}
		}
		for k := wi; k < n; k += len(workers) {
			if props[k].kind == exPending {
				props[k].speculate(wk)
			}
		}
	}

	for start := 0; start < iters; start += exchangeBatch {
		n = min(iters-start, exchangeBatch)
		ep++
		// Draw the batch's geometry up front (see package comment: the
		// schedule never depends on search state).
		for k := 0; k < n; k++ {
			p := &props[k]
			p.err = nil
			ca := rg.Intn(len(cells))
			cb := rg.Intn(len(cells))
			if ca == cb {
				p.kind = exSkip
				continue
			}
			p.ha = cells[ca][rg.Intn(len(cells[ca]))]
			p.hb = cells[cb][rg.Intn(len(cells[cb]))]
			p.sa = rg.Intn(b.slots)
			p.sb = rg.Intn(b.slots)
			if b.down != nil && (b.down[p.ha] || b.down[p.hb]) {
				p.kind = exDown
				continue
			}
			p.kind = exPending
		}
		sim.FanOut(len(workers), len(workers), speculate)
		if onBatch != nil {
			onBatch(e, workers)
		}
		commits = commits[:0]
		objs.drop()
		speculated, used := 0, 0
		for k := 0; k < n; k++ {
			if props[k].kind == exEvaled {
				speculated++
				w.evals++ // every speculative model evaluation counts, used or not
			}
		}

		// Commit in draw order.
		for k := 0; k < n; k++ {
			temp *= cool
			p := &props[k]
			if p.kind == exSkip {
				continue
			}
			if p.kind == exDown {
				w.invalid++
				continue
			}
			aff := p.aff
			if clean(p) {
				switch p.kind {
				case exSame:
					continue
				case exInvalid:
					w.invalid++
					continue
				case exFailed:
					finish(temp)
					return o, p.err
				}
				// exEvaled, clean: consume the speculative result.
				used++
				for i, id := range aff {
					e.cand[id] = p.val[i]
				}
				if !objs.holds(k) {
					objs.form(e, props[:n], k, clean)
				}
				candObj := objs.take()
				candEnergy := e.energy(candObj, e.cand)
				if !w.accepts(candEnergy, temp, ra) {
					for _, id := range aff {
						e.cand[id] = e.pred[id]
					}
					objs.drop()
					continue
				}
				e.swap(p.ha, p.sa, p.hb, p.sb)
				for i, id := range aff {
					e.pred[id] = p.val[i]
				}
				w.moved(candObj, candEnergy)
			} else {
				// Conflict: an earlier commit in this batch dirtied one
				// of the proposal's hosts or affected apps — its
				// frozen-state verdict may be stale, so re-run it
				// against the authoritative engine.
				o.conflicts++
				accepted, err := w.try(p.ha, p.sa, p.hb, p.sb, temp, ra)
				if err != nil {
					finish(temp)
					return o, err
				}
				if !accepted {
					continue
				}
				objs.drop()
				aff = e.affected
			}
			commits = append(commits, swapMove{p.ha, p.sa, p.hb, p.sb})
			hostEp[p.ha], hostEp[p.hb] = ep, ep
			for _, id := range aff {
				appEp[id] = ep
			}
		}
		if speculated > 0 {
			batches++
			occSum += float64(used) / float64(speculated)
		}
	}
	o.occupancy = 1
	if batches > 0 {
		o.occupancy = occSum / batches
	}
	finish(temp)
	return o, nil
}

// resetEpochs sizes *buf to n zeroed epochs, reusing its capacity.
func resetEpochs(buf *[]int, n int) []int {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	clear(*buf)
	return *buf
}

// objGroupSize is how many candidate objectives objGroup sums in one
// pass: four chains of dependent adds keep the adder busy where one
// waits out each add's latency.
const objGroupSize = 4

// objGroup computes the commit loop's candidate objectives a few
// proposals at a time. The objective is a sum over every app in index
// order — its rounding pins that order, so one sum cannot be split — and
// at fleet scale it is most of the serial commit loop's work. But the
// sums of consecutive clean proposals are independent of one another
// once each is assumed to follow the accepted ones before it, so one
// pass over the apps carries up to objGroupSize of them side by side,
// each accumulated term by term exactly as incEval.objective would.
type objGroup struct {
	members [objGroupSize]int     // proposal indexes, in commit order
	sums    [objGroupSize]float64 // their candidate objectives
	m, used int                   // members formed, members consumed
	ov      []groupOverlay        // the members' predictions, by app
}

// groupOverlay is one member's prediction for one app.
type groupOverlay struct {
	id     int32
	member int
	val    float64
}

// holds reports whether proposal k is the group's next member.
func (g *objGroup) holds(k int) bool { return g.used < g.m && g.members[g.used] == k }

// take returns the next member's candidate objective.
func (g *objGroup) take() float64 {
	g.used++
	return g.sums[g.used-1]
}

// drop discards the group: a member was rejected, or the state moved
// some other way, so the sums of the members after it no longer hold.
func (g *objGroup) drop() { g.m, g.used = 0, 0 }

// form starts a group at clean evaluated proposal k and extends it with
// the later proposals of the batch that would commit on an unchanged
// footing if every member before them is accepted: evaluated, clean,
// and disjoint in hosts and affected apps from every member — so their
// candidate is the current state plus the deltas of the members up to
// and including them. Proposals that cannot change the state (skipped,
// on a down host, or clean no-ops on other hosts) are passed over; the
// scan stops at anything else.
func (g *objGroup) form(e *incEval, props []exProposal, k int, clean func(*exProposal) bool) {
	g.members[0], g.m, g.used = k, 1, 0
	g.ov = g.ov[:0]
	add := func(j int) {
		p := &props[j]
		for i, id := range p.aff {
			g.ov = append(g.ov, groupOverlay{id: id, member: g.m - 1, val: p.val[i]})
		}
	}
	add(k)
	disjoint := func(p *exProposal) bool {
		for _, mj := range g.members[:g.m] {
			q := &props[mj]
			if p.ha == q.ha || p.ha == q.hb || p.hb == q.ha || p.hb == q.hb {
				return false
			}
			if p.kind != exEvaled {
				continue
			}
			for _, id := range p.aff {
				if slices.Contains(q.aff, id) {
					return false
				}
			}
		}
		return true
	}
scan:
	for j := k + 1; j < len(props) && g.m < objGroupSize; j++ {
		p := &props[j]
		switch {
		case p.kind == exSkip || p.kind == exDown:
		case (p.kind == exSame || p.kind == exInvalid) && clean(p) && disjoint(p):
		case p.kind == exEvaled && clean(p) && disjoint(p):
			g.members[g.m] = j
			g.m++
			add(j)
		default:
			break scan
		}
	}
	// Apps in index order: every chain adds the same term except at the
	// apps a member re-predicted, where the chains of that member and
	// the ones after it add the member's value instead.
	slices.SortFunc(g.ov, func(a, b groupOverlay) int { return int(a.id - b.id) })
	var s [objGroupSize]float64
	lo := 0
	for _, o := range g.ov {
		sumChains(&s, e.pred[lo:o.id], e.units[lo:o.id])
		cur, u := e.pred[o.id], e.units[o.id]
		for c := range s {
			if c < o.member {
				s[c] += cur * u
			} else {
				s[c] += o.val * u
			}
		}
		lo = int(o.id) + 1
	}
	sumChains(&s, e.pred[lo:], e.units[lo:])
	for c := range g.sums {
		g.sums[c] = s[c] / e.weight
	}
}

// sumChains adds pred[i]*units[i] in order to each of the four running
// sums.
func sumChains(s *[objGroupSize]float64, pred, units []float64) {
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	units = units[:len(pred)]
	for i, p := range pred {
		u := units[i]
		s0 += p * u
		s1 += p * u
		s2 += p * u
		s3 += p * u
	}
	s[0], s[1], s[2], s[3] = s0, s1, s2, s3
}
