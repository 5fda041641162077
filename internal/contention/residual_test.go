package contention

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// apkiCycleHost is a testing/quick host on which the old bounded iteration
// ended in a wide limit cycle: occupant 2's 6.5 MB working set sits where
// its cover clamps at 1. Returning whichever phase the last iteration
// landed on, it broke "raising a co-runner's APKI never lowers anyone's
// slowdown".
func apkiCycleHost() []Occupant {
	return []Occupant{
		{Prof: MemProfile{CPICore: 0.85286782836163, APKI: 12.355927838952551, WSSMB: 86.11336476259515, MRMin: 0.02235816682570646, MRMax: 0.8116207576585843, Gamma: 0.6203319728378668, MLP: 6.462843764487999, CPUFluct: 0.6554534616132187}, Cores: 1},
		{Prof: MemProfile{CPICore: 1.9540740794933538, APKI: 20.94087293505367, WSSMB: 53.12041555463903, MRMin: 0.9276526605942971, MRMax: 0.9501289708335348, Gamma: 1.4055254949364535, MLP: 7.370316336362254, CPUFluct: 0.14561410390280208}, Cores: 2},
		{Prof: MemProfile{CPICore: 0.7936505797638269, APKI: 29.061131217351193, WSSMB: 6.542685789426267, MRMin: 0.03458872172015284, MRMax: 0.622403579170207, Gamma: 2.0181359869523203, MLP: 4.046031370261034, CPUFluct: 0.5932623567951131}, Cores: 4},
		{Prof: MemProfile{CPICore: 1.5237790324462426, APKI: 48.640436028144165, WSSMB: 212.885817630136, MRMin: 0.7942564682771894, MRMax: 0.956764316318967, Gamma: 1, MLP: 7.136124457882669, CPUFluct: 0.7250715402669516}, Cores: 3},
	}
}

// namedHosts are the reproduction's hosts the residual tests name: the EC2
// shape, the two hosts the old iteration left in a limit cycle, and the
// bubble scale's calibration and M.milc's sensitivity curve at each
// pressure.
func namedHosts() map[string][]Occupant {
	hosts := map[string][]Occupant{
		"ec2-host":   ec2Host(),
		"apki-cycle": apkiCycleHost(),
		// bubble.Score's probe beside M.zeus (Table 4): the probe's share
		// settles on its 20 MB working set, the kink of its miss curve.
		"zeus-probe": zeusProbeHost(),
	}
	for p := 1.0; p <= 8; p++ {
		hosts[fmt.Sprint("probe-bubble-", p)] = []Occupant{{Prof: probeProf(), Cores: 8}, {Prof: streamBubble(p), Cores: 8}}
		hosts[fmt.Sprint("milc-bubble-", p)] = []Occupant{{Prof: milcProf(), Cores: 8}, {Prof: streamBubble(p), Cores: 8}}
	}
	return hosts
}

// TestExitResidual: every named solve ends with its undamped residual
// within residualEps and within refTol of the bisection reference.
func TestExitResidual(t *testing.T) {
	node := DefaultNode()
	for name, occ := range namedHosts() {
		got := mustSolve(t, occ)
		if r := residual(node, occ, got); r > residualEps {
			t.Errorf("%s: exit residual %g, want <= %g", name, r, residualEps)
		}
		if msg := agrees(node, got, refSolve(node, occ)); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
}

// fastPath runs newton alone on occ, as equilibrium would.
func fastPath(occ []Occupant) (res Result, iters int, ok bool) {
	node := DefaultNode()
	n := len(occ)
	coef := make([]occCoef, n)
	coefsOf(node, occ, coef)
	res = Result{ShareMB: make([]float64, n), CPI: make([]float64, n), MissGBps: make([]float64, n)}
	res.BWUtil, iters, ok = newton(&node, coef, res.ShareMB, res.CPI, res.MissGBps, make([]float64, n))
	return res, iters, ok
}

// settled runs settle alone on occ.
func settled(occ []Occupant) Result {
	node := DefaultNode()
	n := len(occ)
	coef := make([]occCoef, n)
	coefsOf(node, occ, coef)
	res := Result{ShareMB: make([]float64, n), CPI: make([]float64, n), MissGBps: make([]float64, n)}
	res.BWUtil = settle(&node, coef, res.ShareMB, res.CPI, res.MissGBps, make([]float64, n))
	return res
}

// ec2Budget is the fast path's evaluation budget on ec2Host, the shape of
// almost every solve of a full reproduction: the 4 it takes and 2 more.
const ec2Budget = 6

// TestEC2HostIterationBudget: the fast path settles ec2Host within
// ec2Budget evaluations, so that a change that slows convergence fails here
// and not only in the benchmark.
func TestEC2HostIterationBudget(t *testing.T) {
	if _, iters, ok := fastPath(ec2Host()); !ok || iters > ec2Budget {
		t.Errorf("ec2Host: fast path took %d evaluations (converged %v), budget %d", iters, ok, ec2Budget)
	}
}

// TestSlowdownsAllocFree: Slowdowns on ec2Host keeps all of its state on
// the stack. A solver reached through a func value, for one, lets its
// vectors escape, which multiplies a reproduction's garbage.
func TestSlowdownsAllocFree(t *testing.T) {
	node, occ := DefaultNode(), ec2Host()
	var dst [2]float64
	if n := testing.AllocsPerRun(100, func() {
		if err := Slowdowns(node, occ, dst[:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Slowdowns(ec2Host) allocates %v times per call, want 0", n)
	}
}

// The census's bounds, at what the fast path reaches on it: the hosts that
// go to settle, the mean evaluations per host (a host that goes to settle
// counts fastPathIters) and the largest relative difference between a
// fast-path CPI and settle's.
const (
	censusSettles = 1
	censusEvals   = 3.42
	censusCPIGap  = 2.1e-8
)

// TestConvergenceCensus: on 20 000 property-generator hosts and the named
// ones, every solve ends within residualEps, and settle, forced on every
// host, agrees with the fast path wherever the fast path converges and
// with the bisection reference where it does not. The settle count, the
// mean evaluations and the largest CPI gap stay within the census bounds.
func TestConvergenceCensus(t *testing.T) {
	node := DefaultNode()
	hosts := [][]Occupant{}
	for _, occ := range namedHosts() {
		hosts = append(hosts, occ)
	}
	r := rand.New(rand.NewSource(2))
	for range 20000 {
		hosts = append(hosts, genHost{}.Generate(r, 0).Interface().(genHost).occ)
	}
	fallbacks, iters, worst := 0, 0, 0.0
	for _, occ := range hosts {
		got := mustSolve(t, occ)
		if res := residual(node, occ, got); res > residualEps {
			t.Fatalf("%+v: exit residual %g, want <= %g", occ, res, residualEps)
		}
		fast, n, ok := fastPath(occ)
		iters += n
		forced := settled(occ)
		if res := residual(node, occ, forced); res > residualEps {
			t.Fatalf("%+v: settle's residual %g, want <= %g", occ, res, residualEps)
		}
		forced.Slowdown = got.Slowdown
		if !ok {
			fallbacks++
			if msg := agrees(node, forced, refSolve(node, occ)); msg != "" {
				t.Fatalf("%+v: settle against the reference: %s", occ, msg)
			}
			continue
		}
		fast.Slowdown = got.Slowdown
		if msg := agrees(node, fast, forced); msg != "" {
			t.Fatalf("%+v: fast path against settle: %s", occ, msg)
		}
		for i := range occ {
			worst = max(worst, math.Abs(fast.CPI[i]-forced.CPI[i])/forced.CPI[i])
		}
	}
	mean := float64(iters) / float64(len(hosts))
	t.Logf("%d hosts: %d took settle, %.4f fast-path evaluations per host, CPIs within %.3g of settle's",
		len(hosts), fallbacks, mean, worst)
	if fallbacks > censusSettles || mean > censusEvals || worst > censusCPIGap {
		t.Errorf("census: %d settles (at most %d), %.4f evaluations per host (at most %v), CPI gap %.3g (at most %v)",
			fallbacks, censusSettles, mean, censusEvals, worst, censusCPIGap)
	}
}
