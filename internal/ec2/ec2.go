// Package ec2 models the paper's Amazon EC2 validation environment
// (Section 6): 32 c4.2xlarge instances whose 8 vCPUs are split between the
// application (4 vCPUs) and controlled co-runners (4 vCPUs), running on
// physical hosts shared with *other tenants* whose interference can
// neither be measured nor controlled, and which may change between runs as
// VMs are relocated. Those two properties — unmeasured background pressure
// and placement churn — are exactly what the paper blames for the higher
// model errors it observes on EC2, so they are the only differences from
// the private-cluster environment.
package ec2

import (
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/measure"
	"repro/internal/sim"
)

// Nodes is the paper's EC2 deployment width: 32 VM instances.
const Nodes = 32

// UnitCores is the per-instance allocation for one side of the co-location
// split: 4 vCPUs for the application, 4 for the co-runner or bubble.
const UnitCores = 4

// Background tenancy parameters.
const (
	// tenantProb is the chance a physical host has a noisy neighbour in
	// a given measurement repetition.
	tenantProb = 0.8
	// tenantMinPressure/tenantMaxPressure bound the neighbour's
	// bubble-equivalent pressure. Neighbours are redrawn per distinct
	// measurement and repetition (churn), so this range directly sets how
	// inconsistent the repetitions of one configuration are.
	tenantMinPressure = 1.0
	tenantMaxPressure = 5.0
	// tenantCores is the share of the physical host other tenants use.
	tenantCores = 8
)

// Cluster returns the simulated EC2 region slice: 32 physical hosts, each
// exposing the paper's c4.2xlarge share, behind a higher-latency fabric
// than the private testbed's dedicated switch.
func Cluster() cluster.Cluster {
	return cluster.Cluster{
		HostSpec:     contention.DefaultNode(),
		NumHosts:     Nodes,
		NetLatencyUs: 80,
		NetBWGbps:    10,
	}
}

// tenantProfile is the synthetic noisy neighbour: streaming traffic at the
// given pressure, like a bubble, since whatever other tenants run is
// unknown and only its pressure matters.
func tenantProfile(pressure float64) contention.MemProfile {
	return contention.MemProfile{
		CPICore: 1.0,
		APKI:    1.5 * pow2(pressure-1),
		WSSMB:   256,
		MRMin:   1, MRMax: 1,
		Gamma: 1,
		MLP:   8,
	}
}

func pow2(x float64) float64 {
	// Cheap exp2 for the small range used here.
	if x <= -4 {
		return 1.0 / 16
	}
	r := 1.0
	for x >= 1 {
		r *= 2
		x--
	}
	for x <= -1 {
		r /= 2
		x++
	}
	// Linear blend for the fractional remainder (adequate for noise).
	return r * (1 + x)
}

// mix64 is SplitMix64's finalizer: a cheap, statistically strong 64-bit
// mixer used to derive background draws directly from a stream identity.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit01 maps a hash to a uniform float64 in [0,1) from its top 53 bits.
func unit01(x uint64) float64 {
	return float64(x>>11) * 0x1p-53
}

// Salts separating the independent background draws derived from one
// measurement stream.
const (
	eraSalt  = 0xe7a05eed000000a1
	hostSalt = 0xfedcba0987654321
)

// NewEnv returns a measurement environment over the EC2 cluster with
// background-tenant interference enabled. The background draw depends on
// the stream it is handed, which measure derives from what a measurement
// runs and its repetition, and on the host; so neighbours change with
// every distinct measurement and repetition — the paper's
// relocation/churn effect — while the same measurement on the same seed
// always meets the same ones.
func NewEnv(seed int64) (*measure.Env, error) {
	env, err := measure.NewEnv(Cluster(), seed)
	if err != nil {
		return nil, err
	}
	env.UnitCores = UnitCores
	env.Background = func(host int, r *sim.RNG) (contention.Occupant, bool) {
		// The handed stream's seed already identifies the (host layout,
		// repetition) context; hash it with splitmix64 instead of drawing
		// from a generator. This runs once per host per repetition for at
		// most two draws, and hashing allocates nothing per host, which
		// the EC2 ceiling of TestMeasureBodyAllocCeiling relies on. Equal
		// (stream, host) in, equal occupants out.
		base := uint64(r.Seed())
		// Era: how busy this slice of the region is during this
		// repetition — shared by all hosts (host is not mixed in),
		// redrawn per repetition and per distinct measurement. This is
		// what makes the repetitions of one configuration, and
		// neighbouring configurations, inconsistent, as the paper
		// observed.
		era := 0.4 + 1.2*unit01(mix64(base^eraSalt))
		h := mix64(base ^ mix64(hostSalt+uint64(host)))
		if unit01(h) >= tenantProb {
			return contention.Occupant{}, false
		}
		p := (tenantMinPressure + (tenantMaxPressure-tenantMinPressure)*unit01(mix64(h))) * era
		if p > float64(2*tenantMaxPressure) {
			p = 2 * tenantMaxPressure
		}
		return contention.Occupant{
			Name:  "tenant",
			Prof:  tenantProfile(p),
			Cores: tenantCores,
		}, true
	}
	return env, nil
}

// InterferingCounts is Fig. 12's x-axis: the numbers of interfering VMs
// the paper measures on EC2.
func InterferingCounts() []int { return []int{0, 1, 2, 4, 8, 16, 24, 32} }

// ValidationWorkloads names the four short-running applications the paper
// selected for the EC2 study.
func ValidationWorkloads() []string {
	return []string{"M.milc", "M.Gems", "M.zeus", "M.lu"}
}
