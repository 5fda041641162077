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
// This is the one exchange algorithm at every evaluator count, one
// included: Config.ExchangeWorkers only caps how many goroutines score a
// batch, it never selects a different trajectory.

package placement

import (
	"math"
	"runtime"

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
// evaluator warms its own memo). The best state is left in ws.best.
func exchange(ws *workspace, b *bound, cfg *Config, sign float64, cells [][]int) (exchangeOutcome, error) {
	span := cfg.Tracer.StartSpan("placement.exchange")
	defer span.End()
	var w walk
	if err := w.begin(ws, &b.problem, cfg, sign); err != nil {
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
	workers := make([]*workspace, min(evaluators, exchangeBatch))
	for i := range workers {
		workers[i] = acquireWorkspace()
	}
	props := make([]exProposal, exchangeBatch)
	for i := range props {
		props[i].aff = make([]int32, 0, 2*b.slots)
		props[i].val = make([]float64, 0, 2*b.slots)
	}
	// Dirtiness epochs: hostEp/appEp hold the last batch epoch that
	// committed a change to the host/app; comparing against the current
	// epoch makes per-batch clearing free.
	hostEp := make([]int, b.hosts)
	appEp := make([]int, len(b.ix.Apps))
	ep := 0

	var o exchangeOutcome
	finish := func(temp float64) {
		w.finish(temp)
		for _, wk := range workers {
			h, m := wk.e.cache.Stats()
			w.hits += h
			w.misses += m
			ch, cm := wk.e.cache.CombineStats()
			w.chits += ch
			w.cmisses += cm
			releaseWorkspace(wk)
		}
		o.tally = w.tally
	}

	temp := cfg.InitTemp
	cool := math.Pow(1e-3, 1/float64(iters))
	var batches, occSum float64

	// speculate scores evaluator wi's deterministic stripe of the current
	// batch (its first n proposals) against the frozen pre-batch state.
	var n int
	speculate := func(wi int) {
		wk := &workers[wi].e
		wk.mirror(e)
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
			clean := hostEp[p.ha] != ep && hostEp[p.hb] != ep
			if clean && p.kind == exEvaled {
				for _, id := range p.aff {
					if appEp[id] == ep {
						clean = false
						break
					}
				}
			}
			aff := p.aff
			if clean {
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
				candObj := e.objective(e.cand)
				candEnergy := e.energy(candObj, e.cand)
				if !w.accepts(candEnergy, temp, ra) {
					for _, id := range aff {
						e.cand[id] = e.pred[id]
					}
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
				aff = e.affected
			}
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
