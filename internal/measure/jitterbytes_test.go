package measure_test

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/measure"
	"repro/internal/workloads"
)

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC() // the second cycle empties the pools' victim caches
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestJitterTableBytesCeiling bounds what a cold Env's jitter tables hold
// once a lab has built the models of all 18 workloads: the heap they keep
// alive, read as the live heap that releasing them frees. They hold the
// 13.5k factors the build reads (8 B each) and a few words of bookkeeping
// per sequence, measured at 142 KB. The ceiling sits 15 % above that: a
// layout that grows sequences by doubling holds 175 KB (1.25x) and fails.
func TestJitterTableBytesCeiling(t *testing.T) {
	const ceiling = 160 << 10
	l, err := experiments.NewLab(experiments.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.All() {
		if _, err := l.Model(w.Name); err != nil {
			t.Fatal(err)
		}
	}
	held := liveHeap()
	measure.DropJitterTables(l.Env)
	held -= liveHeap()
	if held > ceiling {
		t.Errorf("the 18-model build's jitter tables hold %d B, ceiling %d", held, ceiling)
	}
	t.Logf("the 18-model build's jitter tables hold %d B", held)
	runtime.KeepAlive(l)
}
