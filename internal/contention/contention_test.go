package contention

import (
	"math"
	"testing"
	"testing/quick"
)

// cacheHeavy is a typical cache-sensitive HPC profile used across tests.
func cacheHeavy() MemProfile {
	return MemProfile{CPICore: 0.8, APKI: 20, WSSMB: 30, MRMin: 0.1, MRMax: 0.9, Gamma: 1.2, MLP: 2}
}

// lightProfile barely touches the memory system (Hadoop/Spark-like).
func lightProfile() MemProfile {
	return MemProfile{CPICore: 1.2, APKI: 3, WSSMB: 4, MRMin: 0.2, MRMax: 0.6, Gamma: 1, MLP: 2}
}

// streamBubble emulates the interference generator at a given pressure:
// cache-filling streaming traffic whose miss volume doubles per level.
func streamBubble(pressure float64) MemProfile {
	return MemProfile{
		CPICore: 1.0,
		APKI:    1.5 * math.Pow(2, pressure-1),
		WSSMB:   256,
		MRMin:   1, MRMax: 1,
		Gamma: 1,
		MLP:   8,
	}
}

func TestNodeValidate(t *testing.T) {
	if err := DefaultNode().Validate(); err != nil {
		t.Fatalf("default node invalid: %v", err)
	}
	bad := []Node{
		{},
		{Cores: -1, LLCMB: 1, MemBWGBps: 1, FreqGHz: 1, MemLatNs: 1},
		{Cores: 1, LLCMB: 0, MemBWGBps: 1, FreqGHz: 1, MemLatNs: 1},
		{Cores: 1, LLCMB: 1, MemBWGBps: 0, FreqGHz: 1, MemLatNs: 1},
		{Cores: 1, LLCMB: 1, MemBWGBps: 1, FreqGHz: 0, MemLatNs: 1},
		{Cores: 1, LLCMB: 1, MemBWGBps: 1, FreqGHz: 1, MemLatNs: 0},
	}
	for i, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("bad node %d validated", i)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	if err := cacheHeavy().Validate(); err != nil {
		t.Fatalf("good profile invalid: %v", err)
	}
	mutations := []func(*MemProfile){
		func(p *MemProfile) { p.CPICore = 0 },
		func(p *MemProfile) { p.CPICore = 0.009 },
		func(p *MemProfile) { p.CPICore = 1.4e-76 },                // found by FuzzEquilibriumMatchesReference
		func(p *MemProfile) { p.CPICore, p.APKI = 1e-300, 1e-300 }, // traffic overflows to +Inf without the bound
		func(p *MemProfile) { p.APKI = -1 },
		func(p *MemProfile) { p.APKI = 1.01e6 },
		func(p *MemProfile) { p.APKI = math.MaxFloat64 },
		func(p *MemProfile) { p.WSSMB = -1 },
		func(p *MemProfile) { p.MRMin = -0.1 },
		func(p *MemProfile) { p.MRMax = p.MRMin - 0.01 },
		func(p *MemProfile) { p.MRMax = 1.5 },
		func(p *MemProfile) { p.Gamma = 0 },
		func(p *MemProfile) { p.MLP = 0.5 },
		func(p *MemProfile) { p.CPUFluct = 2 },
	}
	for i, mut := range mutations {
		p := cacheHeavy()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

// TestSolveRejectsNonFinite: a NaN or an infinity in any float field of
// the node or a profile is an error, not a solve. No ordered comparison in
// the validation catches NaN, and neither the fast path's residual nor a
// bracket means anything over one.
func TestSolveRejectsNonFinite(t *testing.T) {
	rows := []struct {
		field string
		set   func(*Node, *MemProfile, float64)
	}{
		{"LLCMB", func(n *Node, _ *MemProfile, v float64) { n.LLCMB = v }},
		{"MemBWGBps", func(n *Node, _ *MemProfile, v float64) { n.MemBWGBps = v }},
		{"FreqGHz", func(n *Node, _ *MemProfile, v float64) { n.FreqGHz = v }},
		{"MemLatNs", func(n *Node, _ *MemProfile, v float64) { n.MemLatNs = v }},
		{"CPICore", func(_ *Node, p *MemProfile, v float64) { p.CPICore = v }},
		{"APKI", func(_ *Node, p *MemProfile, v float64) { p.APKI = v }},
		{"WSSMB", func(_ *Node, p *MemProfile, v float64) { p.WSSMB = v }},
		{"MRMin", func(_ *Node, p *MemProfile, v float64) { p.MRMin = v }},
		{"MRMax", func(_ *Node, p *MemProfile, v float64) { p.MRMax = v }},
		{"Gamma", func(_ *Node, p *MemProfile, v float64) { p.Gamma = v }},
		{"MLP", func(_ *Node, p *MemProfile, v float64) { p.MLP = v }},
		{"CPUFluct", func(_ *Node, p *MemProfile, v float64) { p.CPUFluct = v }},
	}
	for _, r := range rows {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			node, prof := DefaultNode(), cacheHeavy()
			r.set(&node, &prof, v)
			occ := []Occupant{{Name: "a", Prof: prof, Cores: 8}, {Name: "b", Prof: cacheHeavy(), Cores: 8}}
			if _, err := Solve(node, occ); err == nil {
				t.Errorf("%s = %v: Solve accepted it", r.field, v)
			}
			if err := Slowdowns(node, occ, make([]float64, 1)); err == nil {
				t.Errorf("%s = %v: Slowdowns accepted it", r.field, v)
			}
		}
	}
}

// TestSolveFiniteAtValidationBounds: profiles at the rate bounds, and at
// magnitudes validation leaves unbounded, solve to finite outputs alone
// and beside M.milc.
func TestSolveFiniteAtValidationBounds(t *testing.T) {
	mutations := map[string]func(*MemProfile){
		"CPICore at its bound": func(p *MemProfile) { p.CPICore = minCPICore },
		"APKI at its bound":    func(p *MemProfile) { p.APKI = maxAPKI },
		"both rate bounds":     func(p *MemProfile) { p.CPICore, p.APKI, p.MLP = minCPICore, maxAPKI, 1 },
		"tiny APKI":            func(p *MemProfile) { p.CPICore, p.APKI = minCPICore, 5e-324 },
		"huge CPICore":         func(p *MemProfile) { p.CPICore = math.MaxFloat64 },
		"tiny WSSMB":           func(p *MemProfile) { p.WSSMB = 5e-324 },
		"huge WSSMB":           func(p *MemProfile) { p.WSSMB = math.MaxFloat64 },
		"tiny Gamma":           func(p *MemProfile) { p.Gamma = 5e-324 },
		"huge Gamma":           func(p *MemProfile) { p.Gamma = math.MaxFloat64 },
		"huge MLP":             func(p *MemProfile) { p.MLP = math.MaxFloat64 },
	}
	for name, mut := range mutations {
		p := cacheHeavy()
		mut(&p)
		for _, occ := range [][]Occupant{
			{{Name: name, Prof: p, Cores: 8}},
			{{Name: name, Prof: p, Cores: 8}, {Name: "M.milc", Prof: milcProf(), Cores: 8}},
		} {
			res, err := Solve(DefaultNode(), occ)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if msg := nonFinite(res); msg != "" {
				t.Errorf("%s, %d occupants: %s", name, len(occ), msg)
			}
		}
	}
}

func TestMissRatioShape(t *testing.T) {
	p := cacheHeavy()
	if got := p.missRatio(0); !almostEq(got, p.MRMax, 1e-12) {
		t.Errorf("missRatio(0) = %v, want MRMax %v", got, p.MRMax)
	}
	if got := p.missRatio(p.WSSMB); !almostEq(got, p.MRMin, 1e-12) {
		t.Errorf("missRatio(WSS) = %v, want MRMin %v", got, p.MRMin)
	}
	if got := p.missRatio(10 * p.WSSMB); !almostEq(got, p.MRMin, 1e-12) {
		t.Errorf("missRatio beyond WSS = %v, want MRMin", got)
	}
	// Monotone non-increasing in share.
	prev := math.Inf(1)
	for s := 0.0; s <= 40; s += 2 {
		mr := p.missRatio(s)
		if mr > prev+1e-12 {
			t.Fatalf("miss ratio increased with share at %v", s)
		}
		prev = mr
	}
	zeroWSS := p
	zeroWSS.WSSMB = 0
	if got := zeroWSS.missRatio(5); got != p.MRMin {
		t.Errorf("zero-WSS missRatio = %v, want MRMin", got)
	}
}

func TestSolveInputValidation(t *testing.T) {
	node := DefaultNode()
	if _, err := Solve(node, nil); err == nil {
		t.Error("no occupants should error")
	}
	if _, err := Solve(Node{}, []Occupant{{Prof: cacheHeavy(), Cores: 1}}); err == nil {
		t.Error("invalid node should error")
	}
	if _, err := Solve(node, []Occupant{{Prof: MemProfile{}, Cores: 1}}); err == nil {
		t.Error("invalid profile should error")
	}
	if _, err := Solve(node, []Occupant{{Prof: cacheHeavy(), Cores: 0}}); err == nil {
		t.Error("zero cores should error")
	}
	if _, err := Solve(node, []Occupant{
		{Prof: cacheHeavy(), Cores: 10},
		{Prof: cacheHeavy(), Cores: 10},
	}); err == nil {
		t.Error("core oversubscription should error")
	}
}

func TestSoloHasUnitSlowdown(t *testing.T) {
	node := DefaultNode()
	res, err := Solve(node, []Occupant{{Name: "a", Prof: cacheHeavy(), Cores: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Slowdown[0], 1, 1e-6) {
		t.Errorf("solo slowdown = %v, want 1", res.Slowdown[0])
	}
	if !almostEq(res.ShareMB[0], node.LLCMB, 1e-6) {
		t.Errorf("solo share = %v, want full LLC %v", res.ShareMB[0], node.LLCMB)
	}
}

func TestBubblePressureMonotone(t *testing.T) {
	node := DefaultNode()
	app := Occupant{Name: "app", Prof: cacheHeavy(), Cores: 8}
	prev := 0.0
	for p := 1.0; p <= 8; p++ {
		res, err := Solve(node, []Occupant{app, {Name: "bubble", Prof: streamBubble(p), Cores: 8}})
		if err != nil {
			t.Fatal(err)
		}
		sd := res.Slowdown[0]
		if sd < 1 {
			t.Fatalf("slowdown %v below 1 at pressure %v", sd, p)
		}
		if sd < prev-1e-9 {
			t.Fatalf("slowdown not monotone in pressure: %v after %v at p=%v", sd, prev, p)
		}
		prev = sd
	}
	if prev < 1.15 {
		t.Errorf("cache-heavy app slowdown at max pressure = %v, want substantial (>1.15)", prev)
	}
}

func TestLightProfileIsResilient(t *testing.T) {
	node := DefaultNode()
	heavyRes, err := Solve(node, []Occupant{
		{Name: "heavy", Prof: cacheHeavy(), Cores: 8},
		{Name: "bubble", Prof: streamBubble(8), Cores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	lightRes, err := Solve(node, []Occupant{
		{Name: "light", Prof: lightProfile(), Cores: 8},
		{Name: "bubble", Prof: streamBubble(8), Cores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lightRes.Slowdown[0] >= heavyRes.Slowdown[0] {
		t.Errorf("light slowdown %v should be below heavy %v",
			lightRes.Slowdown[0], heavyRes.Slowdown[0])
	}
}

func TestBandwidthUtilizationCapped(t *testing.T) {
	node := DefaultNode()
	res, err := Solve(node, []Occupant{
		{Name: "b1", Prof: streamBubble(8), Cores: 8},
		{Name: "b2", Prof: streamBubble(8), Cores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BWUtil > bwUtilCap+1e-9 {
		t.Errorf("BWUtil %v exceeds cap %v", res.BWUtil, bwUtilCap)
	}
	if res.BWUtil < 0.5 {
		t.Errorf("two max bubbles should saturate bandwidth, got util %v", res.BWUtil)
	}
}

func TestSharesSumToLLC(t *testing.T) {
	node := DefaultNode()
	res, err := Solve(node, []Occupant{
		{Name: "a", Prof: cacheHeavy(), Cores: 8},
		{Name: "b", Prof: streamBubble(4), Cores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.ShareMB[0] + res.ShareMB[1]
	if !almostEq(sum, node.LLCMB, 0.1) {
		t.Errorf("shares sum to %v, want %v", sum, node.LLCMB)
	}
}

func TestBlockedIODom0Effect(t *testing.T) {
	node := DefaultNode()
	gems := cacheHeavy()
	gems.BlockedIO = true
	steady := lightProfile() // CPUFluct 0
	bursty := lightProfile()
	bursty.CPUFluct = 0.8

	withSteady, err := Solve(node, []Occupant{
		{Name: "gems", Prof: gems, Cores: 8},
		{Name: "steady", Prof: steady, Cores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	withBursty, err := Solve(node, []Occupant{
		{Name: "gems", Prof: gems, Cores: 8},
		{Name: "bursty", Prof: bursty, Cores: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withBursty.Slowdown[0] <= withSteady.Slowdown[0] {
		t.Errorf("bursty co-runner should hurt blocked-I/O app more: %v vs %v",
			withBursty.Slowdown[0], withSteady.Slowdown[0])
	}
	// The effect must not apply to non-BlockedIO occupants: the bursty
	// co-runner itself keeps a finite slowdown near its cache effect.
	if withBursty.Slowdown[1] > 3 {
		t.Errorf("co-runner slowdown suspicious: %v", withBursty.Slowdown[1])
	}
}

func TestSoloMissGBpsDoublesWithBubblePressure(t *testing.T) {
	node := DefaultNode()
	// At low pressures the bubble is latency-insensitive, so doubling
	// APKI should roughly double the traffic (the paper's score scale).
	solo := func(pressure float64) float64 {
		res, err := Solve(node, []Occupant{{Prof: streamBubble(pressure), Cores: 8}})
		if err != nil {
			t.Fatal(err)
		}
		return res.MissGBps[0]
	}
	ratio := solo(2) / solo(1)
	if ratio < 1.6 || ratio > 2.1 {
		t.Errorf("pressure 1->2 traffic ratio = %v, want ~2", ratio)
	}
}

func TestSoloCPIErrors(t *testing.T) {
	// soloCPI trusts its caller; what a bad node, profile or core count
	// meets is the validation of the Solve that would ask for it.
	node := DefaultNode()
	if _, err := Solve(Node{}, []Occupant{{Prof: cacheHeavy(), Cores: 1}}); err == nil {
		t.Error("invalid node should error")
	}
	if _, err := Solve(node, []Occupant{{Prof: MemProfile{}, Cores: 1}}); err == nil {
		t.Error("invalid profile should error")
	}
	if _, err := Solve(node, []Occupant{{Prof: cacheHeavy(), Cores: 0}}); err == nil {
		t.Error("zero cores should error")
	}
}

// Property: slowdowns are always >= 1 and finite for arbitrary valid
// profile parameters co-run with a bubble.
func TestSlowdownBoundedProperty(t *testing.T) {
	node := DefaultNode()
	f := func(apkiRaw, wssRaw, mlpRaw uint8, pressureRaw uint8) bool {
		p := MemProfile{
			CPICore: 0.5 + float64(apkiRaw%10)/10,
			APKI:    float64(apkiRaw % 50),
			WSSMB:   float64(wssRaw%64) + 0.5,
			MRMin:   0.05,
			MRMax:   0.95,
			Gamma:   1,
			MLP:     1 + float64(mlpRaw%8),
		}
		pressure := float64(pressureRaw%8) + 1
		res, err := Solve(node, []Occupant{
			{Name: "app", Prof: p, Cores: 8},
			{Name: "bubble", Prof: streamBubble(pressure), Cores: 8},
		})
		if err != nil {
			return false
		}
		sd := res.Slowdown[0]
		return sd >= 1 && !math.IsNaN(sd) && !math.IsInf(sd, 0) && sd < 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
