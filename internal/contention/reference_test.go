package contention

import "math"

// This file solves the model a second way, apart from the kernel: plain
// bisection, nested like settle's searches but sharing none of their code
// — no hoisted constants, no fixed-exponent power, no closed form beyond
// the working set. FuzzEquilibriumMatchesReference and the named-host
// tests hold Solve to it within refTol; residual measures how far a
// returned state is from being its own image.

// refMissRatio is the miss-ratio formula as MemProfile documents it, with
// math.Pow.
func refMissRatio(p MemProfile, shareMB float64) float64 {
	if p.WSSMB <= 0 {
		return p.MRMin
	}
	cover := math.Min(math.Max(shareMB/p.WSSMB, 0), 1)
	return p.MRMax - (p.MRMax-p.MRMin)*math.Pow(cover, p.Gamma)
}

// refRate is occupant o's misses per second and effective CPI when it
// holds shareMB of the LLC at bandwidth utilization u.
func refRate(node Node, o Occupant, shareMB, u float64) (miss, cpi float64) {
	latNs := node.MemLatNs * (1 + queueWeight*u/(1-u))
	missPI := o.Prof.APKI / 1000 * refMissRatio(o.Prof, shareMB)
	cpi = o.Prof.CPICore + missPI*latNs/o.Prof.MLP*node.FreqGHz
	return float64(o.Cores) * node.FreqGHz * 1e9 / cpi * missPI, cpi
}

// bisect returns the point where f, non-decreasing over [lo, hi], turns
// from negative to non-negative: it halves the bracket until it is within
// 1e-15 of its upper end or no float lies between its ends.
func bisect(f func(float64) float64, lo, hi float64) float64 {
	for range 2000 {
		mid := lo + (hi-lo)/2
		if hi-lo <= 1e-15*hi || mid <= lo || mid >= hi {
			break
		}
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + (hi-lo)/2
}

// refShares fills share with the equilibrium shares at utilization u: each
// occupant's share solves λ·s = miss(s), and λ makes them fill the LLC.
func refShares(node Node, occ []Occupant, u float64, share []float64) {
	missAt := func(i int, s float64) float64 {
		m, _ := refRate(node, occ[i], s, u)
		return m
	}
	shareAt := func(i int, lambda float64) float64 {
		m0 := missAt(i, 0)
		if m0 == 0 {
			return 0
		}
		hi := node.LLCMB // at λ = 0, where the misses reach zero
		if lambda > 0 {
			hi = m0 / lambda
		}
		return bisect(func(s float64) float64 { return lambda*s - missAt(i, s) }, 0, hi)
	}
	fill := func(lambda float64) float64 {
		var sum float64
		for i := range occ {
			share[i] = shareAt(i, lambda)
			sum += share[i]
		}
		return sum
	}
	var lo, hi float64
	for i := range occ {
		lo += missAt(i, node.LLCMB) / node.LLCMB
		hi += missAt(i, 0) / node.LLCMB
	}
	switch {
	case hi == 0: // nobody misses: the shares stay equal
		for i := range share {
			share[i] = node.LLCMB / float64(len(occ))
		}
		return
	case lo == 0:
		// Everyone's misses reach zero within the LLC; if the working sets
		// fit, they are scaled up to fill it.
		if sum := fill(0); sum <= node.LLCMB {
			for i := range share {
				share[i] *= node.LLCMB / sum
			}
			return
		}
	}
	fill(bisect(func(lambda float64) float64 { return node.LLCMB - fill(lambda) }, lo, hi))
}

// refSolve is Solve over the bisection reference.
func refSolve(node Node, occ []Occupant) Result {
	n := len(occ)
	res := Result{
		ShareMB:  make([]float64, n),
		CPI:      make([]float64, n),
		MissGBps: make([]float64, n),
		Slowdown: make([]float64, n),
	}
	traffic := func(u float64) float64 {
		refShares(node, occ, u, res.ShareMB)
		var gbps float64
		for i := range occ {
			var m float64
			m, res.CPI[i] = refRate(node, occ[i], res.ShareMB[i], u)
			res.MissGBps[i] = m * cacheLineBytes / 1e9
			gbps += res.MissGBps[i]
		}
		return gbps
	}
	res.BWUtil = bisect(func(u float64) float64 {
		return u - math.Min(traffic(u)/node.MemBWGBps, bwUtilCap)
	}, 0, bwUtilCap)
	traffic(res.BWUtil)
	for i := range occ {
		_, solo := refSoloCPI(node, occ[i])
		res.Slowdown[i] = math.Max(res.CPI[i]/solo*refDom0(node, occ, i), 1)
	}
	return res
}

// refSoloCPI is the one-occupant reference: its utilization and CPI alone
// on the node.
func refSoloCPI(node Node, o Occupant) (u, cpi float64) {
	u = bisect(func(u float64) float64 {
		m, _ := refRate(node, o, node.LLCMB, u)
		return u - math.Min(m*cacheLineBytes/1e9/node.MemBWGBps, bwUtilCap)
	}, 0, bwUtilCap)
	_, cpi = refRate(node, o, node.LLCMB, u)
	return u, cpi
}

// refDom0 is occupant i's blocked-I/O factor.
func refDom0(node Node, occ []Occupant, i int) float64 {
	if !occ[i].Prof.BlockedIO {
		return 1
	}
	var pressure float64
	for j, o := range occ {
		if j != i {
			pressure += o.Prof.CPUFluct * float64(o.Cores) / float64(node.Cores)
		}
	}
	return 1 + dom0Penalty*pressure
}

// residual is the undamped step of a returned state: the largest of the
// utilization's change and each share's change relative to the LLC, were
// the state replaced by what it implies.
func residual(node Node, occ []Occupant, res Result) float64 {
	var gbps, total float64
	miss := make([]float64, len(occ))
	for i := range occ {
		miss[i], _ = refRate(node, occ[i], res.ShareMB[i], res.BWUtil)
		gbps += miss[i] * cacheLineBytes / 1e9
		total += miss[i]
	}
	r := math.Abs(math.Min(gbps/node.MemBWGBps, bwUtilCap) - res.BWUtil)
	if total > 0 {
		for i := range occ {
			r = math.Max(r, math.Abs(node.LLCMB*miss[i]/total-res.ShareMB[i])/node.LLCMB)
		}
	}
	return r
}
