package contention

import "math"

// This file keeps the solver as it was before its constants were hoisted
// and its power function specialised: the reference that the production
// kernel must match bit for bit (FuzzEquilibriumMatchesReference) and that
// the exit-residual and metamorphic tests measure. Its arithmetic is the
// old code's, line for line; refEquilibrium additionally counts its
// iterations and measures its last step, which reads the state and writes
// nothing the arithmetic uses.

// refMissRatio is the old MemProfile.MissRatio, with math.Pow.
func refMissRatio(p MemProfile, shareMB float64) float64 {
	if p.WSSMB <= 0 {
		return p.MRMin
	}
	if p.MRMax == p.MRMin {
		return p.MRMax
	}
	cover := shareMB / p.WSSMB
	if cover > 1 {
		cover = 1
	}
	if cover < 0 {
		cover = 0
	}
	if p.Gamma == 1 {
		return p.MRMax - (p.MRMax-p.MRMin)*cover
	}
	return p.MRMax - (p.MRMax-p.MRMin)*math.Pow(cover, p.Gamma)
}

// refRun is what refEquilibrium reports besides the vectors it fills.
type refRun struct {
	util  float64
	iters int // iterations run: fixedPointIters unless a bitwise fixpoint came first
	// step is the last iteration's largest relative change of the
	// utilization, of a share or of a CPI: 0 at a bitwise fixpoint, the
	// amplitude of a limit cycle that the iteration bound cut.
	step float64
}

// refEquilibrium is the old equilibrium.
func refEquilibrium(node Node, occ []Occupant, share, cpi, missGBps, miss []float64) refRun {
	n := len(occ)
	for i := range share {
		share[i] = node.LLCMB / float64(n)
	}
	util := 0.0
	prevCPI := make([]float64, n)
	run := refRun{}

	for iter := 0; iter < fixedPointIters; iter++ {
		run.iters = iter + 1
		run.step = 0
		copy(prevCPI, cpi)
		latEff := node.MemLatNs * (1 + queueWeight*util/(1-util))
		var totalGBps float64
		for i := range occ {
			o := &occ[i]
			mr := refMissRatio(o.Prof, share[i])
			missPI := o.Prof.APKI / 1000 * mr // misses per instruction
			stallNs := missPI * latEff / o.Prof.MLP
			cpi[i] = o.Prof.CPICore + stallNs*node.FreqGHz
			ips := float64(o.Cores) * node.FreqGHz * 1e9 / cpi[i] // instr/s
			miss[i] = ips * missPI
			missGBps[i] = miss[i] * cacheLineBytes / 1e9
			totalGBps += missGBps[i]
			if iter > 0 {
				run.step = math.Max(run.step, relStep(prevCPI[i], cpi[i]))
			}
		}
		newUtil := math.Min(totalGBps/node.MemBWGBps, bwUtilCap)
		prevUtil := util
		util = damping*util + (1-damping)*newUtil
		run.step = math.Max(run.step, relStep(prevUtil, util))
		stable := util == prevUtil

		var totalMiss float64
		for _, m := range miss {
			totalMiss += m
		}
		if totalMiss > 0 {
			for i := range share {
				target := node.LLCMB * miss[i] / totalMiss
				next := damping*share[i] + (1-damping)*target
				run.step = math.Max(run.step, relStep(share[i], next))
				if next != share[i] {
					stable = false
				}
				share[i] = next
			}
		}
		if stable {
			break
		}
	}
	run.util = util
	return run
}

// relStep is |b-a| relative to |b|, and 0 when a and b are equal.
func relStep(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(b-a) / math.Abs(b)
}

// refSoloCPI is the old soloCPI, without its memo.
func refSoloCPI(node Node, o *Occupant) float64 {
	util := 0.0
	cpi := o.Prof.CPICore
	mr := refMissRatio(o.Prof, node.LLCMB)
	missPI := o.Prof.APKI / 1000 * mr
	for iter := 0; iter < fixedPointIters; iter++ {
		latEff := node.MemLatNs * (1 + queueWeight*util/(1-util))
		cpi = o.Prof.CPICore + missPI*latEff/o.Prof.MLP*node.FreqGHz
		ips := float64(o.Cores) * node.FreqGHz * 1e9 / cpi
		gbps := ips * missPI * cacheLineBytes / 1e9
		newUtil := math.Min(gbps/node.MemBWGBps, bwUtilCap)
		prevUtil := util
		util = damping*util + (1-damping)*newUtil
		if util == prevUtil {
			break
		}
	}
	return cpi
}

// refSolve is the old Solve over the reference kernel, with what the
// reference reports of its run.
func refSolve(node Node, occ []Occupant) (Result, refRun, error) {
	if err := validate(node, occ); err != nil {
		return Result{}, refRun{}, err
	}
	n := len(occ)
	res := Result{
		ShareMB:  make([]float64, n),
		CPI:      make([]float64, n),
		MissGBps: make([]float64, n),
		Slowdown: make([]float64, n),
	}
	run := refEquilibrium(node, occ, res.ShareMB, res.CPI, res.MissGBps, make([]float64, n))
	res.BWUtil = run.util
	for i := range res.Slowdown {
		o := &occ[i]
		sd := res.CPI[i] / refSoloCPI(node, o)
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
		res.Slowdown[i] = sd
	}
	return res, run, nil
}
