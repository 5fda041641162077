package app

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/task_engine.golden from the current engine")

// taskGoldenSpecs are the task-engine shapes the golden grid crosses with
// speculation, locality, width, slowdown shape and seed.
func taskGoldenSpecs() []Spec {
	return []Spec{
		taskPoolSpec(),
		stagesSpec(),
		// Fewer tasks than slots at every width, back-to-back stages.
		{Name: "few", Engine: TaskPool, NumStages: 3, TasksPerStage: 3, TaskSec: 0.5,
			SlotsPerNode: 4, NoiseSigma: 0.05},
		// No jitter and no skew: equal task durations, so completions and
		// straggler candidates tie.
		{Name: "ties", Engine: Stages, NumStages: 3, TasksPerStage: 40, TaskSec: 0.4,
			SlotsPerNode: 2, ShuffleBytesPerNode: 32e6},
		// Many short stages: with speculation and one very slow node the
		// losing copies complete several stages after their own ended.
		{Name: "tail", Engine: TaskPool, NumStages: 6, TasksPerStage: 24, TaskSec: 0.1,
			SlotsPerNode: 2, NoiseSigma: 0.05, TaskSkewSigma: 0.2},
	}
}

type goldenShape struct {
	name string
	sd   []float64
}

// taskGoldenShapes builds the grid's slowdown vectors for a width.
func taskGoldenShapes(nodes int) []goldenShape {
	graded := make([]float64, nodes)
	for i := range graded {
		graded[i] = 1 + 0.5*float64(i)
	}
	return []goldenShape{
		{"uniform", slowedVector(nodes, 0, 1)},
		{"oneslow", slowedVector(nodes, 1, 40)},
		{"graded", graded},
	}
}

// TestTaskEngineGolden pins the dynamically scheduled engines bit for bit:
// the makespan of every grid cell (as float64 bits), and for the
// instrumented run of the same cell the event engine's scheduled and fired
// counts and queue high-water mark. Speculative losers fire long after
// their stage is over and must keep doing so; the counts catch an engine
// that drops or duplicates them.
func TestTaskEngineGolden(t *testing.T) {
	var b strings.Builder
	for _, base := range taskGoldenSpecs() {
		for _, spec := range []bool{false, true} {
			for _, loc := range []float64{0, 0.35, 0.7, 1} {
				for _, nodes := range []int{1, 3, 8, 12} {
					for _, shape := range taskGoldenShapes(nodes) {
						for _, seed := range []int64{1, 7} {
							s := base
							s.Speculative, s.LocalityFrac = spec, loc
							name := fmt.Sprintf("%s/spec=%t/loc=%v/n=%d/%s/seed=%d", s.Name, spec, loc, nodes, shape.name, seed)
							params := func() Params {
								return Params{Slowdown: shape.sd, Net: netsim.TenGbE(), RNG: sim.NewRNG(seed).Stream("golden")}
							}
							plain, err := s.Run(params())
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							p := params()
							p.Telemetry = telemetry.NewRegistry()
							instr, err := s.Run(p)
							if err != nil {
								t.Fatalf("%s (instrumented): %v", name, err)
							}
							if math.Float64bits(instr) != math.Float64bits(plain) {
								t.Errorf("%s: instrumented makespan %v != uninstrumented %v", name, instr, plain)
							}
							fmt.Fprintf(&b, "%s %016x %d %d %v\n", name, math.Float64bits(plain),
								p.Telemetry.Counter(sim.MetricEventsScheduled).Value(),
								p.Telemetry.Counter(sim.MetricEventsFired).Value(),
								p.Telemetry.Gauge(sim.MetricQueueHighWater).Value())
						}
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "task_engine.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("grid has %d lines, golden %d (run with -update only for an intended engine change)", len(got), len(wantLines))
	}
	bad := 0
	for i := range got {
		if got[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more differing lines", bad-10)
	}
}
