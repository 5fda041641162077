package contention

import "testing"

// residualEps is the largest exit step (refRun.step: the last iteration's
// largest relative change of the utilization, a share or a CPI) that
// counts as converged. A solve stops at a bitwise fixpoint (step 0) or at
// fixedPointIters; most of the latter sit in a last-bit 2-cycle, a step
// below 1e-15.
const residualEps = 1e-12

// apkiCycleHost is a testing/quick counterexample to "raising a
// co-runner's APKI never lowers anyone's slowdown": occupant 2's 6.5 MB
// working set sits where its cover clamps at 1, and the solve is cut by
// the iteration bound in a wide limit cycle.
func apkiCycleHost() []Occupant {
	return []Occupant{
		{Prof: MemProfile{CPICore: 0.85286782836163, APKI: 12.355927838952551, WSSMB: 86.11336476259515, MRMin: 0.02235816682570646, MRMax: 0.8116207576585843, Gamma: 0.6203319728378668, MLP: 6.462843764487999, CPUFluct: 0.6554534616132187}, Cores: 1},
		{Prof: MemProfile{CPICore: 1.9540740794933538, APKI: 20.94087293505367, WSSMB: 53.12041555463903, MRMin: 0.9276526605942971, MRMax: 0.9501289708335348, Gamma: 1.4055254949364535, MLP: 7.370316336362254, CPUFluct: 0.14561410390280208}, Cores: 2},
		{Prof: MemProfile{CPICore: 0.7936505797638269, APKI: 29.061131217351193, WSSMB: 6.542685789426267, MRMin: 0.03458872172015284, MRMax: 0.622403579170207, Gamma: 2.0181359869523203, MLP: 4.046031370261034, CPUFluct: 0.5932623567951131}, Cores: 4},
		{Prof: MemProfile{CPICore: 1.5237790324462426, APKI: 48.640436028144165, WSSMB: 212.885817630136, MRMin: 0.7942564682771894, MRMax: 0.956764316318967, Gamma: 1, MLP: 7.136124457882669, CPUFluct: 0.7250715402669516}, Cores: 3},
	}
}

// TestExitResidual computes the exit step of named solves. The converged
// rows must stay within residualEps. The known misses are solves that the
// iteration bound cuts in a wide limit cycle, so the slowdown they return
// is whichever phase the last iteration lands on; each is pinned with its
// amplitude, and a kernel change that makes them converge must move them
// to the converged rows.
func TestExitResidual(t *testing.T) {
	type row struct {
		name string
		occ  []Occupant
		// amplitude is a known miss's exit step; 0 for a converged row.
		amplitude float64
	}
	rows := []row{
		{"ec2-host", ec2Host(), 0},
		{"apki-cycle", apkiCycleHost(), 0.5218},
		// bubble.Score's probe beside M.zeus (Table 4): from its first
		// iterations the probe's share swings 19.10 <-> 20.21 MB around
		// its 20 MB working set and its CPI 0.929 <-> 0.979.
		{"zeus-probe", zeusProbeHost(), 0.05626},
	}
	for p := 1.0; p <= 8; p++ {
		// The bubble scale's calibration, and M.milc's sensitivity curve.
		rows = append(rows,
			row{"probe-bubble", []Occupant{{Prof: probeProf(), Cores: 8}, {Prof: streamBubble(p), Cores: 8}}, 0},
			row{"milc-bubble", []Occupant{{Prof: milcProf(), Cores: 8}, {Prof: streamBubble(p), Cores: 8}}, 0})
	}
	node := DefaultNode()
	for _, r := range rows {
		want, run, err := refSolve(node, r.occ)
		if err != nil {
			t.Fatal(err)
		}
		// The step is the reference kernel's; the production kernel must
		// have returned the same state.
		got := mustSolve(t, r.occ)
		if !sameFloats(got.ShareMB, want.ShareMB) || !sameFloats(got.CPI, want.CPI) || !sameFloat(got.BWUtil, want.BWUtil) {
			t.Fatalf("%s: Solve differs from the reference", r.name)
		}
		switch {
		case r.amplitude == 0 && run.step > residualEps:
			t.Errorf("%s: exit step %g after %d iterations, want <= %g", r.name, run.step, run.iters, residualEps)
		case r.amplitude != 0 && (run.iters != fixedPointIters || !within(run.step, r.amplitude, 1e-3)):
			t.Errorf("%s: known miss changed: exit step %g after %d iterations, pinned %g after %d; "+
				"if it converges now, make it a converged row", r.name, run.step, run.iters, r.amplitude, fixedPointIters)
		}
	}
}
