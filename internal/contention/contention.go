// Package contention models performance interference on a single physical
// node through the two resources the paper identifies as dominant for
// compute-intensive consolidation: shared last-level cache (LLC) capacity
// and memory bandwidth (Section 2.1).
//
// Each co-located occupant (an application's per-node process group, or a
// bubble pressure generator) is described by a MemProfile. The Solve
// function finds the competitive equilibrium of the node:
//
//   - LLC capacity is divided in proportion to each occupant's miss rate
//     (cache insertion pressure), a standard competitive-sharing
//     approximation of set-associative LRU caches;
//   - each occupant's miss ratio rises as its share falls below its working
//     set; and
//   - memory latency inflates with total bandwidth utilization through an
//     M/M/1-style queueing term, which is what makes sensitivity curves
//     saturate at high bubble pressures.
//
// The model also carries the Xen Dom0 blocked-I/O effect the paper uses to
// explain M.Gems' unpredictability (Section 4.3): occupants flagged
// BlockedIO lose performance when co-runners with fluctuating CPU load
// starve the driver domain.
package contention

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Node describes the shared hardware of one physical host. The defaults in
// DefaultNode mirror the paper's testbed (2x Xeon E5-2650 per host).
type Node struct {
	Cores     int     // physical cores
	LLCMB     float64 // total last-level cache in MB
	MemBWGBps float64 // sustainable memory bandwidth in GB/s
	FreqGHz   float64 // core clock
	MemLatNs  float64 // unloaded memory latency
}

// DefaultNode returns the paper's host configuration: 16 cores, 2x20 MB
// LLC, aggregate ~60 GB/s of memory bandwidth at 2.0 GHz.
func DefaultNode() Node {
	return Node{Cores: 16, LLCMB: 40, MemBWGBps: 60, FreqGHz: 2.0, MemLatNs: 80}
}

// Validate reports whether the node configuration is physically meaningful.
func (n Node) Validate() error {
	switch {
	case !finite(n.LLCMB, n.MemBWGBps, n.FreqGHz, n.MemLatNs):
		return fmt.Errorf("contention: non-finite value in node %+v", n)
	case n.Cores <= 0:
		return errors.New("contention: node needs at least one core")
	case n.LLCMB <= 0:
		return errors.New("contention: non-positive LLC capacity")
	case n.MemBWGBps <= 0:
		return errors.New("contention: non-positive memory bandwidth")
	case n.FreqGHz <= 0:
		return errors.New("contention: non-positive frequency")
	case n.MemLatNs <= 0:
		return errors.New("contention: non-positive memory latency")
	}
	return nil
}

// finite reports whether no value is NaN or infinite. The validations'
// ordered comparisons let NaN through, and no equilibrium of a non-finite
// input is a number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// MemProfile characterizes the memory behaviour of one occupant's processes
// on a node. The parameters are per-core averages.
type MemProfile struct {
	CPICore float64 // cycles per instruction excluding LLC-miss stalls
	APKI    float64 // LLC accesses per kilo-instruction
	WSSMB   float64 // working-set size at the LLC level, MB
	MRMin   float64 // LLC miss ratio when the share covers the working set
	MRMax   float64 // LLC miss ratio as the share approaches zero
	Gamma   float64 // shape of the miss-ratio curve vs. normalized share
	MLP     float64 // memory-level parallelism: overlapped misses per stall

	// BlockedIO marks latency-sensitive blocked I/O usage (the paper's
	// M.Gems): performance additionally depends on CPU headroom for the
	// Xen driver domain.
	BlockedIO bool
	// CPUFluct in [0,1] describes how bursty the occupant's CPU load is;
	// bursty co-runners (Hadoop/Spark) starve Dom0 intermittently and
	// hurt BlockedIO occupants.
	CPUFluct float64
}

// The bounds of a profile's two rates, far beyond any workload's: a core
// retires at most 1/minCPICore instructions per cycle, and an instruction
// makes at most maxAPKI/1000 LLC accesses. Beyond them the arithmetic can leave the floats: a core CPI near zero
// gives an instruction rate, and an access rate near the largest float a
// stall time, that overflows on its way to a slowdown.
const (
	minCPICore = 0.01
	maxAPKI    = 1e6
)

// Validate reports whether the profile is physically meaningful.
func (p MemProfile) Validate() error {
	switch {
	case !finite(p.CPICore, p.APKI, p.WSSMB, p.MRMin, p.MRMax, p.Gamma, p.MLP, p.CPUFluct):
		return fmt.Errorf("contention: non-finite value in profile %+v", p)
	case p.CPICore < minCPICore:
		return fmt.Errorf("contention: core CPI %v below %v", p.CPICore, minCPICore)
	case p.APKI < 0 || p.APKI > maxAPKI:
		return fmt.Errorf("contention: APKI %v outside [0,%v]", p.APKI, maxAPKI)
	case p.WSSMB < 0:
		return errors.New("contention: negative working set")
	case p.MRMin < 0 || p.MRMin > 1:
		return fmt.Errorf("contention: MRMin %v outside [0,1]", p.MRMin)
	case p.MRMax < p.MRMin || p.MRMax > 1:
		return fmt.Errorf("contention: MRMax %v outside [MRMin,1]", p.MRMax)
	case p.Gamma <= 0:
		return errors.New("contention: non-positive gamma")
	case p.MLP < 1:
		return errors.New("contention: MLP must be >= 1")
	case p.CPUFluct < 0 || p.CPUFluct > 1:
		return errors.New("contention: CPUFluct outside [0,1]")
	}
	return nil
}

// missCurve is a profile's miss-ratio curve with its constants derived
// once. A share of shareMB has the miss ratio
// MRMax - (MRMax-MRMin)*cover^Gamma, where cover is the share over the
// working set clamped to [0, 1], and MRMin without a working set. It is
// flat without a working set (MRMin) and when MRMax == MRMin, whose
// power-law term is multiplied by zero (MRMax); otherwise it keeps the
// formula's operation order.
type missCurve struct {
	flat  bool
	mrMax float64 // MRMax, or the constant ratio of a flat curve
	span  float64 // MRMax - MRMin
	wss   float64
	gamma float64
}

func curveOf(p *MemProfile) missCurve {
	switch {
	case p.WSSMB <= 0:
		return missCurve{flat: true, mrMax: p.MRMin}
	case p.MRMax == p.MRMin:
		return missCurve{flat: true, mrMax: p.MRMax}
	}
	return missCurve{mrMax: p.MRMax, span: p.MRMax - p.MRMin, wss: p.WSSMB, gamma: p.Gamma}
}

// at returns the miss ratio at shareMB and g, the share times the ratio's
// fall per MB there: Gamma·span·cover^Gamma inside the working set, 0 where
// the curve is flat or the cover clamps. It calls math.Pow once.
func (c *missCurve) at(shareMB float64) (mr, g float64) {
	if c.flat {
		return c.mrMax, 0
	}
	cover := shareMB / c.wss
	switch {
	case cover >= 1:
		return c.mrMax - c.span, 0
	case cover <= 0:
		return c.mrMax, 0
	}
	p := c.span * math.Pow(cover, c.gamma)
	return c.mrMax - p, c.gamma * p
}

// Occupant is one co-located workload component on a node.
type Occupant struct {
	Name  string
	Prof  MemProfile
	Cores int // physical cores the occupant's vCPUs are pinned to
}

// Result reports the node equilibrium for a set of occupants. Slices are
// indexed like the occupant slice passed to Solve.
type Result struct {
	CPI      []float64 // effective cycles/instruction
	Slowdown []float64 // CPI relative to running alone on the node
	ShareMB  []float64 // LLC capacity granted
	MissGBps []float64 // memory traffic generated
	BWUtil   float64   // total bandwidth utilization in [0, ~1)
}

const (
	// The fast path stops when no undamped step of the utilization, or of
	// a share relative to LLCMB, would exceed residualEps. After a Newton
	// step that fails to shrink that residual, it takes a fixed-point step
	// that keeps a weight of damping of the state. After fastPathIters
	// evaluations settle takes over.
	residualEps   = 1e-8
	damping       = 0.2
	fastPathIters = 96
	// rootIters bounds each of settle's root finders; rootTol is the
	// relative step at which one stops early.
	rootIters = 100
	rootTol   = 1e-10
	// bwUtilCap keeps the queueing term finite.
	bwUtilCap = 0.96
	// queueWeight scales the M/M/1 latency inflation.
	queueWeight = 1.0
	// cacheLineBytes converts miss rates to bandwidth.
	cacheLineBytes = 64
	// dom0Penalty scales the blocked-I/O slowdown per unit of co-runner
	// CPU fluctuation weighted by their core share.
	dom0Penalty = 0.35
)

// validate checks a node and its occupants the way Solve documents.
func validate(node Node, occ []Occupant) error {
	if err := node.Validate(); err != nil {
		return err
	}
	if len(occ) == 0 {
		return errors.New("contention: no occupants")
	}
	totalCores := 0
	for i, o := range occ {
		if err := o.Prof.Validate(); err != nil {
			return fmt.Errorf("occupant %d (%s): %w", i, o.Name, err)
		}
		if o.Cores <= 0 {
			return fmt.Errorf("occupant %d (%s): non-positive cores", i, o.Name)
		}
		totalCores += o.Cores
	}
	if totalCores > node.Cores {
		return fmt.Errorf("contention: %d cores requested on a %d-core node", totalCores, node.Cores)
	}
	return nil
}

// Solve computes the contention equilibrium of node with the given
// occupants. Occupants may not oversubscribe the node's cores (the paper's
// testbed never overcommits vCPUs, Section 3.1).
func Solve(node Node, occ []Occupant) (Result, error) {
	if err := validate(node, occ); err != nil {
		return Result{}, err
	}
	n := len(occ)
	// One backing allocation for the five per-occupant vectors; the
	// three-index slices keep their capacities disjoint so no appendable
	// alias escapes in the Result.
	buf := make([]float64, 5*n)
	res := Result{
		ShareMB:  buf[0*n : 1*n : 1*n],
		CPI:      buf[1*n : 2*n : 2*n],
		MissGBps: buf[2*n : 3*n : 3*n],
		Slowdown: buf[4*n : 5*n : 5*n],
	}
	res.BWUtil = equilibrium(node, occ, res.ShareMB, res.CPI, res.MissGBps, buf[3*n:4*n])
	slowdowns(node, occ, res.CPI, res.Slowdown)
	return res, nil
}

// stackOccupants is the occupant count up to which Slowdowns keeps the
// equilibrium's vectors, and equilibrium its per-occupant coefficients, on
// the stack.
const stackOccupants = 8

// Slowdowns fills dst with Solve(node, occ).Slowdown[:len(dst)], bit for
// bit, and computes nothing else that only the rest of a Result would
// carry. It is for a caller that reads the slowdown of the leading
// occupants only — the measurement layer appends background tenants whose
// own slowdown nobody looks at, and each slowdown costs a solo fixed point
// — and that solves often enough to mind Solve's allocation.
func Slowdowns(node Node, occ []Occupant, dst []float64) error {
	if err := validate(node, occ); err != nil {
		return err
	}
	n := len(occ)
	if len(dst) > n {
		return fmt.Errorf("contention: %d slowdowns asked of %d occupants", len(dst), n)
	}
	var stack [4 * stackOccupants]float64
	buf := stack[:]
	if 4*n > len(buf) {
		buf = make([]float64, 4*n)
	}
	cpi := buf[1*n : 2*n]
	equilibrium(node, occ, buf[0*n:1*n], cpi, buf[2*n:3*n], buf[3*n:4*n])
	slowdowns(node, occ, cpi, dst)
	return nil
}

// occCoef is what the equilibrium reads of one occupant, derived once per
// solve, and what the fast path keeps of it between evaluations.
type occCoef struct {
	curve   missCurve
	apkiK   float64 // APKI / 1000
	mlp     float64
	cpiCore float64
	peakIPS float64 // float64(Cores) * FreqGHz * 1e9
	edge    float64 // WSSMB / LLCMB, the fraction of the LLC at the kink
	// newton's state: the share over LLCMB, and the slopes of the misses
	// per second in that fraction and in the utilization.
	f, dmdf, dmdu float64
}

func coefsOf(node Node, occ []Occupant, coef []occCoef) {
	for i := range occ {
		p := &occ[i].Prof
		coef[i] = occCoef{
			curve:   curveOf(p),
			apkiK:   p.APKI / 1000,
			mlp:     p.MLP,
			cpiCore: p.CPICore,
			peakIPS: float64(occ[i].Cores) * node.FreqGHz * 1e9,
			edge:    p.WSSMB / node.LLCMB,
		}
	}
}

// rate returns the occupant's misses per second and its effective CPI when
// it holds shareMB of the LLC and memory answers in latNs.
func (c *occCoef) rate(node *Node, shareMB, latNs float64) (miss, cpi float64) {
	mr, _ := c.curve.at(shareMB)
	return c.rateOf(node, c.apkiK*mr, latNs)
}

// rateOf is rate at missPI misses per instruction.
func (c *occCoef) rateOf(node *Node, missPI, latNs float64) (miss, cpi float64) {
	stallNs := missPI * latNs / c.mlp
	cpi = c.cpiCore + stallNs*node.FreqGHz
	ips := c.peakIPS / cpi // instr/s
	return ips * missPI, cpi
}

// latency is the effective memory latency at bandwidth utilization u.
func latency(node *Node, u float64) float64 {
	return node.MemLatNs * (1 + queueWeight*u/(1-u))
}

// evaluate fills each occupant's misses per second, effective CPI and
// memory traffic at utilization u and the given shares, and returns the
// total traffic in GB/s.
func evaluate(node *Node, coef []occCoef, u float64, share, cpi, missGBps, miss []float64) float64 {
	latNs := latency(node, u)
	var totalGBps float64
	for i := range coef {
		miss[i], cpi[i] = coef[i].rate(node, share[i], latNs)
		missGBps[i] = miss[i] * cacheLineBytes / 1e9
		totalGBps += missGBps[i]
	}
	return totalGBps
}

// equilibrium finds the state where every share is LLCMB*miss_i/Σmiss and
// the utilization is the traffic the misses make, leaving each occupant's
// share, CPI and traffic in the vectors (miss is scratch), and returns the
// utilization. newton reaches it in about four evaluations on almost every
// host; settle takes the rest, mostly equilibria on a miss curve's kink.
func equilibrium(node Node, occ []Occupant, share, cpi, missGBps, miss []float64) float64 {
	var stack [stackOccupants]occCoef
	coef := stack[:]
	if len(occ) > len(coef) {
		coef = make([]occCoef, len(occ))
	}
	coef = coef[:len(occ)]
	coefsOf(node, occ, coef)
	if util, _, ok := newton(&node, coef, share, cpi, missGBps, miss); ok {
		return util
	}
	return settle(&node, coef, share, cpi, missGBps, miss)
}

// newton is the fast path, Newton's method on the residual
// (cap(traffic/bandwidth) − u, m_j/Σm − f_j) in the utilization u and the
// LLC fractions f_j of the occupants whose miss curve is not flat; a flat
// occupant's share is its target at every evaluation. From equal shares and
// an idle bus it steps until the residual is at most residualEps, taking a
// damped fixed-point step after a step that did not shrink it. A step that
// would cross a working set's edge from below stops on that kink, where the
// next takes the curve's slope from inside. Fractions, not MB, keep the
// analytic Jacobian's bits when the LLC and the working sets scale by a
// power of two. It returns the utilization, the evaluations run and
// whether it got there within fastPathIters.
func newton(node *Node, coef []occCoef, share, cpi, missGBps, miss []float64) (util float64, evals int, ok bool) {
	for i := range share {
		coef[i].f = 1 / float64(len(share))
		share[i] = node.LLCMB * coef[i].f
	}
	last := math.Inf(1)
	for evals = 1; evals <= fastPathIters; evals++ {
		latNs := latency(node, util)
		dLdu := node.MemLatNs * queueWeight / ((1 - util) * (1 - util))
		var totalGBps, totalMiss, dTotal float64
		for i := range coef {
			c := &coef[i]
			mr, g := c.curve.at(share[i])
			if c.f == c.edge {
				g = c.curve.gamma * c.curve.span
			}
			missPI := c.apkiK * mr
			miss[i], cpi[i] = c.rateOf(node, missPI, latNs)
			missGBps[i] = miss[i] * cacheLineBytes / 1e9
			totalGBps += missGBps[i]
			totalMiss += miss[i]
			c.dmdu = -miss[i] * missPI / c.mlp * node.FreqGHz / cpi[i] * dLdu
			dTotal += c.dmdu
			if c.dmdf = 0; g != 0 {
				c.dmdf = -c.peakIPS * c.cpiCore / (cpi[i] * cpi[i]) * c.apkiK * g / c.f
			}
		}
		newUtil := capUtil(totalGBps / node.MemBWGBps)
		r := math.Abs(newUtil - util)
		for i := 0; totalMiss > 0 && i < len(coef); i++ {
			if coef[i].curve.flat {
				share[i] = node.LLCMB * miss[i] / totalMiss
			} else {
				r = max(r, math.Abs(miss[i]/totalMiss-coef[i].f))
			}
		}
		if r <= residualEps {
			return util, evals, true
		}
		damped := !(r < last)
		last = r
		if totalMiss == 0 {
			util = newUtil // the shares have nothing to follow and stay
			continue
		}
		// With q_j = m_j/Σm, d_j = ∂m_j/∂f_j/Σm − 1 and e_j = (∂m_j/∂u −
		// q_j·∂Σm/∂u)/Σm, row j of J·Δ = −F reads d_j·Δf_j = f_j − q_j −
		// e_j·Δu + q_j·s, s = Σ ∂m_j/∂f_j·Δf_j/Σm. Putting the rows into s,
		// and s into the utilization's row, gives Δu, then s, then each Δf_j.
		var du, s float64
		if damped {
			util = damping*util + (1-damping)*newUtil
		} else {
			perMiss := cacheLineBytes / 1e9 / node.MemBWGBps // ∂u/∂Σm
			if newUtil == bwUtilCap {
				perMiss = 0
			}
			var ag, ah, aw float64
			for i := range coef {
				if c := &coef[i]; !c.curve.flat {
					q := miss[i] / totalMiss
					d, e := c.dmdf/totalMiss-1, (c.dmdu-q*dTotal)/totalMiss
					ag, ah, aw = ag+c.dmdf*(c.f-q)/d, ah-c.dmdf*e/d, aw+c.dmdf*q/d
				}
			}
			den := totalMiss - aw
			du = (util - newUtil - perMiss*totalMiss*ag/den) / (perMiss*(dTotal+totalMiss*ah/den) - 1)
			s = (ag + ah*du) / den
			util = min(max(util+du, 0), bwUtilCap)
		}
		for i := range coef {
			if c := &coef[i]; !c.curve.flat {
				q := miss[i] / totalMiss
				f := damping*c.f + (1-damping)*q
				if !damped {
					f = c.f + (c.f-q-(c.dmdu-q*dTotal)/totalMiss*du+q*s)/(c.dmdf/totalMiss-1)
				}
				if f = min(max(f, 0), 1); c.f < c.edge && f > c.edge {
					f = c.edge
				}
				c.f, share[i] = f, node.LLCMB*f
			}
		}
	}
	return util, fastPathIters, false
}

// settle solves for the equilibrium by three nested bracketing searches,
// each for the one root of a monotone function, and leaves it in the
// vectors as newton does.
//
//   - For a fixed latency, occupant i's misses per second m_i(s) do not
//     rise with its share s. So, for a fixed λ > 0, λ·s = m_i(s) has one
//     root s_i(λ) in [0, m_i(0)/λ]; beyond the working set m_i is flat,
//     which gives that part in closed form.
//   - Σ s_i(λ) falls as λ rises, so Σ s_i(λ) = LLCMB has one root in
//     [Σ m_i(LLCMB)/LLCMB, Σ m_i(0)/LLCMB]: the shares proportional to the
//     misses.
//   - A higher utilization means a longer latency and fewer misses, so
//     u = cap(traffic(u)/bandwidth) has one root in [0, bwUtilCap].
//
// If no occupant misses at all, the shares stay equal, as in newton. If
// every occupant's misses reach zero within its working set and the
// working sets fit in the LLC, any such shares are an equilibrium; settle
// scales the working sets up to fill the LLC.
func settle(node *Node, coef []occCoef, share, cpi, missGBps, miss []float64) float64 {
	llc := node.LLCMB
	// Each occupant's misses at no share and at its working set, for the
	// latency of the shares call in progress.
	var stack [2 * stackOccupants]float64
	m := stack[:]
	if 2*len(coef) > len(m) {
		m = make([]float64, 2*len(coef))
	}
	m0, mw := m[:len(coef)], m[len(coef):2*len(coef)]
	// shareAt is occupant i's root of λ·s = m_i(s) at latency latNs.
	shareAt := func(i int, lambda, latNs float64) float64 {
		c := &coef[i]
		switch {
		case m0[i] == 0:
			return 0
		case c.curve.flat:
			return m0[i] / lambda
		case mw[i] > lambda*c.curve.wss:
			return mw[i] / lambda // beyond the working set, where m_i is flat
		case lambda == 0:
			return c.curve.wss // where the misses reach zero
		}
		f := func(s float64) float64 {
			m, _ := c.rate(node, s, latNs)
			return lambda*s - m
		}
		if hi := m0[i] / lambda; hi < c.curve.wss {
			return falsi(f, 0, hi, -m0[i], f(hi))
		}
		return falsi(f, 0, c.curve.wss, -m0[i], lambda*c.curve.wss-mw[i])
	}
	// shares fills share with the equilibrium shares at latency latNs.
	shares := func(latNs float64) {
		var lo, hi float64
		for i := range coef {
			c := &coef[i]
			m0[i], _ = c.rate(node, 0, latNs)
			mw[i] = m0[i]
			if !c.curve.flat {
				mw[i], _ = c.rate(node, c.curve.wss, latNs)
			}
			mLLC := mw[i]
			if !c.curve.flat && c.curve.wss > llc {
				mLLC, _ = c.rate(node, llc, latNs)
			}
			lo += mLLC
			hi += m0[i]
		}
		lo, hi = lo/llc, hi/llc
		fill := func(lambda float64) (sum float64) {
			for i := range coef {
				share[i] = shareAt(i, lambda, latNs)
				sum += share[i]
			}
			return sum
		}
		switch {
		case hi == 0:
			for i := range share {
				share[i] = llc / float64(len(share))
			}
			return
		case lo == 0:
			if sum := fill(0); sum <= llc {
				for i := range share {
					share[i] *= llc / sum
				}
				return
			}
			// The root is above 0: halve down to a lower end.
			for lo = hi / 2; lo > 0 && fill(lo) < llc; lo /= 2 {
			}
		}
		// λ·(LLCMB - Σ s_i(λ)) = λ·LLCMB - Σ m_i(s_i(λ)) changes sign where
		// Σ s_i(λ) - LLCMB does, and is closer to linear in λ.
		excess := func(lambda float64) float64 { return lambda * (llc - fill(lambda)) }
		fill(falsi(excess, lo, hi, excess(lo), excess(hi)))
	}
	f := func(u float64) float64 {
		shares(latency(node, u))
		return u - capUtil(evaluate(node, coef, u, share, cpi, missGBps, miss)/node.MemBWGBps)
	}
	u := falsi(f, 0, bwUtilCap, f(0), f(bwUtilCap))
	shares(latency(node, u))
	evaluate(node, coef, u, share, cpi, missGBps, miss)
	return u
}

// falsi returns the root of f in [a, b], where f is monotone and changes
// sign, by the Anderson–Björck variant of regula falsi: the secant of the
// bracket's ends, where an end that stays twice in a row has its value
// scaled down, so that both ends close in. It stops when two successive
// estimates are within rootTol of each other, relatively, or no float lies
// between the ends, and after rootIters estimates at most. If f does not
// change sign over [a, b] — rounding at a root on an end — it returns the
// end where |f| is smaller.
func falsi(f func(float64) float64, a, b, fa, fb float64) float64 {
	if !(fa < 0 && fb > 0 || fa > 0 && fb < 0) {
		if math.Abs(fa) <= math.Abs(fb) {
			return a
		}
		return b
	}
	side, c := 0, math.NaN()
	for range rootIters {
		prev := c
		c = b - fb*(b-a)/(fb-fa)
		if !(c > min(a, b) && c < max(a, b)) {
			c = a + (b-a)/2
			if c == a || c == b {
				return c
			}
		}
		fc := f(c)
		switch {
		case fc == 0 || math.Abs(c-prev) <= rootTol*math.Abs(c):
			return c
		case (fc > 0) == (fb > 0):
			if side == -1 {
				m := 1 - fc/fb
				if m <= 0 {
					m = 0.5
				}
				fa *= m
			}
			b, fb = c, fc
			side = -1
		default:
			if side == 1 {
				m := 1 - fc/fa
				if m <= 0 {
					m = 0.5
				}
				fb *= m
			}
			a, fa = c, fc
			side = 1
		}
	}
	return c
}

// capUtil is math.Min(u, bwUtilCap) as a compare: the same result for
// every u, a NaN staying NaN.
func capUtil(u float64) float64 {
	if u >= bwUtilCap {
		return bwUtilCap
	}
	return u
}

// slowdowns turns equilibrium CPIs into slowdowns relative to running
// alone, for the first len(dst) occupants.
func slowdowns(node Node, occ []Occupant, cpi, dst []float64) {
	for i := range dst {
		o := &occ[i]
		sd := cpi[i] / soloCPI(node, o)
		// Xen Dom0 blocked-I/O effect: co-runners with bursty CPU load
		// intermittently deny the driver domain, hurting blocked I/O.
		if o.Prof.BlockedIO {
			var pressure float64
			for j := range occ {
				if j == i {
					continue
				}
				coreFrac := float64(occ[j].Cores) / float64(node.Cores)
				pressure += occ[j].Prof.CPUFluct * coreFrac
			}
			sd *= 1 + dom0Penalty*pressure
		}
		if sd < 1 {
			sd = 1
		}
		dst[i] = sd
	}
}

// soloKey is the bit pattern of everything soloCPI's arithmetic reads: the
// node's cache, bandwidth, clock and latency, the profile's CPI, access
// rate, miss-ratio curve and MLP, and the core count. Names, the node's
// core count and the blocked-I/O fields do not enter it, so occupants that
// differ only in those share an entry.
type soloKey [12]uint64

func soloKeyOf(node Node, o *Occupant) soloKey {
	p, b := &o.Prof, math.Float64bits
	return soloKey{
		b(node.LLCMB), b(node.MemBWGBps), b(node.FreqGHz), b(node.MemLatNs),
		b(p.CPICore), b(p.APKI), b(p.WSSMB), b(p.MRMin), b(p.MRMax), b(p.Gamma), b(p.MLP),
		uint64(o.Cores),
	}
}

// soloMemo caches soloCPI, which is asked of the same handful of workload
// and bubble profiles millions of times across an experiment run.
// Insertions are bounded so a caller that draws profiles from a continuum
// cannot grow the map without limit; lookups past the cap simply miss and
// recompute.
var soloMemo = struct {
	sync.RWMutex
	m map[soloKey]float64
}{m: map[soloKey]float64{}}

const soloMemoCap = 1 << 14

// soloCPI returns the effective CPI of a validated occupant running alone
// on the node: the equilibrium of that one occupant, with the whole LLC,
// private bandwidth, and still subject to its own queueing.
func soloCPI(node Node, o *Occupant) float64 {
	key := soloKeyOf(node, o)
	soloMemo.RLock()
	cpi, ok := soloMemo.m[key]
	soloMemo.RUnlock()
	if ok {
		return cpi
	}
	var v [4]float64
	equilibrium(node, []Occupant{*o}, v[0:1], v[1:2], v[2:3], v[3:4])
	cpi = v[1]
	soloMemo.Lock()
	if len(soloMemo.m) < soloMemoCap {
		soloMemo.m[key] = cpi
	}
	soloMemo.Unlock()
	return cpi
}
