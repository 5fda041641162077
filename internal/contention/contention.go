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

// Validate reports whether the profile is physically meaningful.
func (p MemProfile) Validate() error {
	switch {
	case p.CPICore <= 0:
		return errors.New("contention: non-positive core CPI")
	case p.APKI < 0:
		return errors.New("contention: negative APKI")
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

// missRatio returns the LLC miss ratio of the profile when granted shareMB
// of cache: MRMax - (MRMax-MRMin)*cover^Gamma, where cover is the share over
// the working set clamped to [0, 1], and MRMin without a working set.
func (p MemProfile) missRatio(shareMB float64) float64 {
	c := curveOf(&p)
	return c.at(shareMB)
}

// missCurve is a profile's miss-ratio curve with its constants derived
// once. Evaluating it is bit for bit the formula missRatio documents. It is
// flat without a working set (MRMin) and when MRMax == MRMin, whose
// power-law term is multiplied by zero (MRMax); otherwise it keeps the
// formula's operation order.
type missCurve struct {
	flat  bool
	mrMax float64 // MRMax, or the constant ratio of a flat curve
	span  float64 // MRMax - MRMin
	wss   float64
	pow   fixedPow // cover^Gamma
}

func curveOf(p *MemProfile) missCurve {
	switch {
	case p.WSSMB <= 0:
		return missCurve{flat: true, mrMax: p.MRMin}
	case p.MRMax == p.MRMin:
		return missCurve{flat: true, mrMax: p.MRMax}
	}
	return missCurve{mrMax: p.MRMax, span: p.MRMax - p.MRMin, wss: p.WSSMB, pow: newFixedPow(p.Gamma)}
}

func (c *missCurve) at(shareMB float64) float64 {
	if c.flat {
		return c.mrMax
	}
	cover := shareMB / c.wss
	if cover > 1 {
		cover = 1
	}
	if cover < 0 {
		cover = 0
	}
	return c.mrMax - c.span*c.pow.of(cover)
}

// Modes of a fixedPow.
const (
	powGeneric  = iota // math.Pow itself
	powIdentity        // y == 1: math.Pow(x, 1) == x for every x
	powNearOne         // y in (0.5, 1.5]: math.Pow's x^(y-1) * x, replayed
)

// fixedPow raises to one exponent y, bit for bit as math.Pow(x, y) wherever
// math.Pow is the pure-Go algorithm: every GOARCH but s390x, whose math.Pow
// is an assembly routine. The miss-ratio curve raises cover to the
// profile's Gamma in every iteration of a solve, and every Gamma the
// workloads use is 1 or lies in (0.5, 1.5]. There math.Pow splits y into an
// integer part 1 and a fractional part yf in [-0.5, 0.5], and returns
// Exp(yf*Log(x)) times x's Frexp mantissa, scaled by Ldexp. fixedPow makes
// that split once and, for x in [0x1p-600, 1), replays the path as one
// product. Everything else goes to math.Pow.
type fixedPow struct {
	y    float64
	yf   float64 // y's fractional part as math.Pow rounds it, for powNearOne
	mode uint8
}

func newFixedPow(y float64) fixedPow {
	f := fixedPow{y: y}
	if y == 1 {
		f.mode = powIdentity
		return f
	}
	yi, yf := math.Modf(y) // NaN and ±Inf give a yi other than 1
	if yf > 0.5 {
		yf--
		yi++
	}
	if yi == 1 {
		f.yf, f.mode = yf, powNearOne
	}
	return f
}

func (f *fixedPow) of(x float64) float64 {
	switch {
	case f.mode == powIdentity:
		return x
	case f.mode == powNearOne && x >= 0x1p-600 && x < 1:
		// math.Pow would multiply Exp(yf*Log(x)) by x's Frexp mantissa and
		// Ldexp the product by x's exponent. Scaling by a power of two is
		// exact while the result stays normal, and with |yf| <= 0.5 it is
		// at least x^1.5 >= 2^-900, so the product with x rounds to the
		// same bits.
		return math.Exp(f.yf*math.Log(x)) * x
	}
	return math.Pow(x, f.y)
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
	// fixedPointIters bounds the damped share/latency iteration. It is a
	// bound, not a convergence guarantee: a cold full reproduction's solves
	// average 53 iterations, and about one in fourteen stops here rather
	// than at a bitwise fixpoint — most in a last-bit 2-cycle, a few in a
	// wide limit cycle whose returned phase depends on this bound's parity
	// (EXPERIMENTS.md, known deviations).
	fixedPointIters = 60
	// damping for the share update.
	damping = 0.5
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

// occCoef is what the equilibrium iteration reads of one occupant, derived
// once per solve. Each field is a left-to-right prefix of the expression it
// stands for in the iteration, so the arithmetic is unchanged.
type occCoef struct {
	curve   missCurve
	apkiK   float64 // APKI / 1000
	mlp     float64
	cpiCore float64
	peakIPS float64 // float64(Cores) * FreqGHz * 1e9
}

// equilibrium runs the damped share/latency iteration for validated
// occupants, leaving each one's LLC share, effective CPI and memory traffic
// in the given vectors (miss is scratch: misses per second, for the share
// competition), and returns the bandwidth utilization.
func equilibrium(node Node, occ []Occupant, share, cpi, missGBps, miss []float64) float64 {
	n := len(occ)
	var stack [stackOccupants]occCoef
	coef := stack[:]
	if n > len(coef) {
		coef = make([]occCoef, n)
	}
	coef = coef[:n]
	for i := range occ {
		p := &occ[i].Prof
		coef[i] = occCoef{
			curve:   curveOf(p),
			apkiK:   p.APKI / 1000,
			mlp:     p.MLP,
			cpiCore: p.CPICore,
			peakIPS: float64(occ[i].Cores) * node.FreqGHz * 1e9,
		}
	}
	for i := range share {
		share[i] = node.LLCMB / float64(n)
	}
	util := 0.0

	for iter := 0; iter < fixedPointIters; iter++ {
		latEff := node.MemLatNs * (1 + queueWeight*util/(1-util))
		var totalGBps float64
		for i := range coef {
			c := &coef[i]
			missPI := c.apkiK * c.curve.at(share[i]) // misses per instruction
			stallNs := missPI * latEff / c.mlp
			cpi[i] = c.cpiCore + stallNs*node.FreqGHz
			ips := c.peakIPS / cpi[i] // instr/s
			miss[i] = ips * missPI
			missGBps[i] = miss[i] * cacheLineBytes / 1e9
			totalGBps += missGBps[i]
		}
		newUtil := capUtil(totalGBps / node.MemBWGBps)
		prevUtil := util
		util = damping*util + (1-damping)*newUtil
		// Each iteration is a pure function of (util, share): once both
		// come out of an iteration bitwise unchanged, every remaining
		// iteration would reproduce them, so breaking early is exact.
		stable := util == prevUtil

		var totalMiss float64
		for _, m := range miss {
			totalMiss += m
		}
		if totalMiss > 0 {
			for i := range share {
				target := node.LLCMB * miss[i] / totalMiss
				next := damping*share[i] + (1-damping)*target
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
	return util
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

// soloMemo caches soloCPI, which costs a quarter of a three-occupant
// solve and is asked of the same handful of workload and bubble profiles
// millions of times across an experiment run. Insertions are bounded so a
// caller that draws profiles from a continuum cannot grow the map without
// limit; lookups past the cap simply miss and recompute.
var soloMemo = struct {
	sync.RWMutex
	m map[soloKey]float64
}{m: map[soloKey]float64{}}

const soloMemoCap = 1 << 14

// soloCPI returns the effective CPI of a validated occupant running alone
// on the node (full LLC, private bandwidth, still subject to its own
// queueing).
func soloCPI(node Node, o *Occupant) float64 {
	key := soloKeyOf(node, o)
	soloMemo.RLock()
	cpi, ok := soloMemo.m[key]
	soloMemo.RUnlock()
	if ok {
		return cpi
	}
	util := 0.0
	cpi = o.Prof.CPICore
	mr := o.Prof.missRatio(node.LLCMB)
	missPI := o.Prof.APKI / 1000 * mr
	for iter := 0; iter < fixedPointIters; iter++ {
		latEff := node.MemLatNs * (1 + queueWeight*util/(1-util))
		cpi = o.Prof.CPICore + missPI*latEff/o.Prof.MLP*node.FreqGHz
		ips := float64(o.Cores) * node.FreqGHz * 1e9 / cpi
		gbps := ips * missPI * cacheLineBytes / 1e9
		newUtil := capUtil(gbps / node.MemBWGBps)
		prevUtil := util
		util = damping*util + (1-damping)*newUtil
		if util == prevUtil {
			// Exact fixpoint: every remaining iteration would leave
			// (cpi, util) unchanged.
			break
		}
	}
	soloMemo.Lock()
	if len(soloMemo.m) < soloMemoCap {
		soloMemo.m[key] = cpi
	}
	soloMemo.Unlock()
	return cpi
}
