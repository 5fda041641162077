// Package workloads defines the 18 benchmark applications of the paper's
// Table 1 as calibrated simulator specs: six SPEC MPI2007 codes, two NAS
// Parallel Benchmarks, one Hadoop and three Spark applications (the twelve
// distributed workloads of Sections 3-4), plus six SPEC CPU2006 codes used
// as single-node batch co-runners in Section 5.
//
// Each workload couples
//
//   - an execution structure (app.Spec) whose synchronization pattern
//     reproduces the paper's propagation class for that application, and
//   - a memory profile (contention.MemProfile) calibrated so the bubble
//     score measured by internal/bubble approximates the paper's Table 4.
//
// The calibration targets live in TargetBubbleScore and are asserted (with
// tolerance) by this package's tests, so drift is caught immediately.
package workloads

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/contention"
)

// Kind is the benchmark suite a workload belongs to.
type Kind int

// Benchmark suites of Table 1.
const (
	SPECMPI Kind = iota
	NPB
	Hadoop
	Spark
	SPECCPU
)

// String returns the suite name.
func (k Kind) String() string {
	switch k {
	case SPECMPI:
		return "SPEC MPI2007"
	case NPB:
		return "NPB"
	case Hadoop:
		return "Hadoop"
	case Spark:
		return "Spark"
	case SPECCPU:
		return "SPEC CPU2006"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Workload is one benchmark application.
type Workload struct {
	Name string // paper abbreviation, e.g. "M.lmps"
	Kind Kind
	App  app.Spec
	Prof contention.MemProfile
	// MasterGenScale scales the interference the workload *generates* on
	// its first node. MPI codes compute on the master like any rank
	// (scale 1); Hadoop/Spark masters schedule only and generate much
	// less (Section 3.4).
	MasterGenScale float64
	// TargetBubbleScore is the paper's Table 4 value, kept as the
	// calibration target for tests.
	TargetBubbleScore float64
}

// Distributed reports whether the workload spans multiple nodes (everything
// except SPEC CPU2006).
func (w Workload) Distributed() bool { return w.Kind != SPECCPU }

// GenProfile returns the profile describing the interference the workload
// generates on the node at index nodeIdx of its node list (index 0 hosts
// the master).
func (w Workload) GenProfile(nodeIdx int) contention.MemProfile {
	p := w.Prof
	if nodeIdx == 0 && w.MasterGenScale != 1 {
		p.APKI *= w.MasterGenScale
	}
	return p
}

// mpi builds a BSP (bulk-synchronous MPI) workload.
func mpi(name string, iterSec float64, allreduce, allgather float64, barriers int,
	prof contention.MemProfile, score float64) Workload {
	return Workload{
		Name: name, Kind: SPECMPI,
		App: app.Spec{
			Name: name, Engine: app.BSP,
			Iterations: 30, IterSec: iterSec, NoiseSigma: 0.035,
			ProcsPerNode: 4, AllreduceBytes: allreduce, AllgatherBytes: allgather,
			BarriersPerIter: barriers, SyncDrag: 0.12,
		},
		Prof:              prof,
		MasterGenScale:    1,
		TargetBubbleScore: score,
	}
}

// table is every workload of Table 1, in the paper's order, built once.
// Workload is a comparable value type holding no slices or maps, so the
// copies All and ByName hand out share nothing with it.
var table = [...]Workload{
	// ---- SPEC MPI2007 (high-propagation BSP codes, except M.Gems) ----
	mpi("M.milc", 0.40, 8e6, 0, 1,
		contention.MemProfile{CPICore: 0.70, APKI: 30, WSSMB: 48, MRMin: 0.15, MRMax: 0.90, Gamma: 1.2, MLP: 3.0},
		4.3),
	mpi("M.lesl", 0.45, 4e6, 2e6, 1,
		contention.MemProfile{CPICore: 0.75, APKI: 25, WSSMB: 40, MRMin: 0.15, MRMax: 0.90, Gamma: 1.1, MLP: 3.0},
		3.9),
	{
		// M.Gems: few barriers, no allreduce/allgather (Section 3.2);
		// serialized per-node sweeps give proportional propagation, and
		// latency-sensitive blocked I/O makes it uniquely vulnerable to
		// co-runners with bursty CPU (Section 4.3).
		Name: "M.Gems", Kind: SPECMPI,
		App: app.Spec{
			Name: "M.Gems", Engine: app.Wavefront,
			Iterations: 30, IterSec: 0.5, NoiseSigma: 0.03,
		},
		Prof: contention.MemProfile{CPICore: 0.80, APKI: 12, WSSMB: 30, MRMin: 0.20, MRMax: 0.85,
			Gamma: 1.1, MLP: 2.5, BlockedIO: true},
		MasterGenScale:    1,
		TargetBubbleScore: 2.4,
	},
	mpi("M.lmps", 0.35, 16e6, 0, 2,
		contention.MemProfile{CPICore: 0.90, APKI: 5.5, WSSMB: 26, MRMin: 0.10, MRMax: 0.85, Gamma: 1.3, MLP: 1.5},
		1.0),
	mpi("M.zeus", 0.42, 6e6, 0, 1,
		contention.MemProfile{CPICore: 0.85, APKI: 4.6, WSSMB: 32, MRMin: 0.12, MRMax: 0.85, Gamma: 1.2, MLP: 2.0},
		1.4),
	mpi("M.lu", 0.38, 10e6, 0, 1,
		contention.MemProfile{CPICore: 0.65, APKI: 36, WSSMB: 36, MRMin: 0.20, MRMax: 0.90, Gamma: 1.1, MLP: 4.0},
		4.6),

	// ---- NPB class D (BSP, communication-heavy) ----
	npb(mpi("N.cg", 0.36, 2e6, 6e6, 1,
		contention.MemProfile{CPICore: 0.70, APKI: 26, WSSMB: 44, MRMin: 0.25, MRMax: 0.92, Gamma: 1.0, MLP: 2.5},
		3.9)),
	npb(mpi("N.mg", 0.34, 12e6, 0, 1,
		contention.MemProfile{CPICore: 0.60, APKI: 42, WSSMB: 52, MRMin: 0.30, MRMax: 0.92, Gamma: 1.0, MLP: 5.0},
		5.0)),

	// ---- Hadoop (dynamic task pool + speculation: low propagation) ----
	{
		Name: "H.KM", Kind: Hadoop,
		App: app.Spec{
			Name: "H.KM", Engine: app.TaskPool,
			NumStages: 3, TasksPerStage: 192, TaskSec: 0.15, SlotsPerNode: 4,
			Speculative: true, LocalityFrac: 0.5,
			ShuffleBytesPerNode: 32e6, NoiseSigma: 0.05,
		},
		Prof: contention.MemProfile{CPICore: 1.20, APKI: 3.5, WSSMB: 6, MRMin: 0.35, MRMax: 0.60,
			Gamma: 1.0, MLP: 2.0, CPUFluct: 0.7},
		MasterGenScale:    0.25,
		TargetBubbleScore: 0.2,
	},

	// ---- Spark ----
	{
		// S.PR: iterative PageRank, many fine tasks per superstep;
		// resilient like H.KM (the paper's other low-propagation app).
		Name: "S.PR", Kind: Spark,
		App: app.Spec{
			Name: "S.PR", Engine: app.TaskPool,
			NumStages: 6, TasksPerStage: 160, TaskSec: 0.08, SlotsPerNode: 4,
			Speculative: false, LocalityFrac: 0.35,
			ShuffleBytesPerNode: 48e6, NoiseSigma: 0.05,
		},
		Prof: contention.MemProfile{CPICore: 1.10, APKI: 5.5, WSSMB: 12, MRMin: 0.35, MRMax: 0.65,
			Gamma: 1.0, MLP: 2.0, CPUFluct: 0.6},
		MasterGenScale:    0.25,
		TargetBubbleScore: 0.7,
	},
	{
		// S.CF: collaborative filtering, repeated coarse-wave stages.
		Name: "S.CF", Kind: Spark,
		App: app.Spec{
			Name: "S.CF", Engine: app.Stages,
			NumStages: 5, TasksPerStage: 36, TaskSec: 0.30, SlotsPerNode: 4,
			TaskSkewSigma: 0.35, LocalityFrac: 0.7,
			ShuffleBytesPerNode: 64e6, NoiseSigma: 0.05,
		},
		Prof: contention.MemProfile{CPICore: 1.00, APKI: 5.5, WSSMB: 10, MRMin: 0.30, MRMax: 0.65,
			Gamma: 1.0, MLP: 2.0, CPUFluct: 0.6},
		MasterGenScale:    0.25,
		TargetBubbleScore: 0.5,
	},
	{
		// S.WC: two coarse skewed stages (map + reduce over 4.2 GB).
		Name: "S.WC", Kind: Spark,
		App: app.Spec{
			Name: "S.WC", Engine: app.Stages,
			NumStages: 2, TasksPerStage: 40, TaskSec: 0.50, SlotsPerNode: 4,
			TaskSkewSigma: 0.30, LocalityFrac: 0.7,
			ShuffleBytesPerNode: 128e6, NoiseSigma: 0.05,
		},
		Prof: contention.MemProfile{CPICore: 1.10, APKI: 4.5, WSSMB: 8, MRMin: 0.30, MRMax: 0.60,
			Gamma: 1.0, MLP: 2.0, CPUFluct: 0.6},
		MasterGenScale:    0.25,
		TargetBubbleScore: 0.3,
	},

	// ---- SPEC CPU2006 batch co-runners (Section 5) ----
	batch("C.gcc", contention.MemProfile{CPICore: 0.90, APKI: 55, WSSMB: 30, MRMin: 0.25, MRMax: 0.85, Gamma: 1.1, MLP: 5.0}, 4.8),
	batch("C.mcf", contention.MemProfile{CPICore: 0.80, APKI: 85, WSSMB: 56, MRMin: 0.35, MRMax: 0.95, Gamma: 1.0, MLP: 3.5}, 5.4),
	batch("C.cact", contention.MemProfile{CPICore: 0.85, APKI: 26, WSSMB: 36, MRMin: 0.25, MRMax: 0.85, Gamma: 1.1, MLP: 2.5}, 3.8),
	batch("C.sopl", contention.MemProfile{CPICore: 0.75, APKI: 42, WSSMB: 40, MRMin: 0.30, MRMax: 0.90, Gamma: 1.0, MLP: 4.0}, 4.9),
	batch("C.libq", contention.MemProfile{CPICore: 0.70, APKI: 55, WSSMB: 256, MRMin: 0.95, MRMax: 0.95, Gamma: 1.0, MLP: 8.0}, 6.6),
	batch("C.xbmk", contention.MemProfile{CPICore: 0.95, APKI: 50, WSSMB: 24, MRMin: 0.25, MRMax: 0.85, Gamma: 1.2, MLP: 5.0}, 4.3),
}

// tableIndex maps each workload name to its index in table.
var tableIndex = func() map[string]int {
	m := make(map[string]int, len(table))
	for i, w := range table {
		m[w.Name] = i
	}
	return m
}()

// All returns every workload of Table 1, in the paper's order, in a slice
// the caller owns.
func All() []Workload { return append([]Workload(nil), table[:]...) }

// npb rebrands an MPI-style workload as an NPB suite member.
func npb(w Workload) Workload {
	w.Kind = NPB
	return w
}

// batch builds a SPEC CPU2006 single-node batch workload.
func batch(name string, prof contention.MemProfile, score float64) Workload {
	return Workload{
		Name: name, Kind: SPECCPU,
		App: app.Spec{
			Name: name, Engine: app.Independent,
			BatchSec: 100, NoiseSigma: 0.02,
		},
		Prof:              prof,
		MasterGenScale:    1,
		TargetBubbleScore: score,
	}
}

// DistributedAll returns the twelve distributed workloads (Sections 3-4).
func DistributedAll() []Workload {
	var out []Workload
	for _, w := range table {
		if w.Distributed() {
			out = append(out, w)
		}
	}
	return out
}

// BatchAll returns the six SPEC CPU2006 batch workloads.
func BatchAll() []Workload {
	var out []Workload
	for _, w := range table {
		if !w.Distributed() {
			out = append(out, w)
		}
	}
	return out
}

// ByName returns the workload with the given paper abbreviation.
func ByName(name string) (Workload, error) {
	i, ok := tableIndex[name]
	if !ok {
		return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
	}
	return table[i], nil
}

// Names returns all workload names in a deterministic order.
func Names() []string {
	out := make([]string, len(table))
	for i, w := range table {
		out[i] = w.Name
	}
	return out
}

// Registry returns a name-indexed map of all workloads.
func Registry() map[string]Workload {
	m := make(map[string]Workload, len(table))
	for _, w := range table {
		m[w.Name] = w
	}
	return m
}
