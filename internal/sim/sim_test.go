package sim

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i, at := range []Time{3, 1, 2} {
		i := i
		if err := e.At(at, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	end := e.Run()
	if end != 3 {
		t.Errorf("final time = %v, want 3", end)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		if err := e.At(5, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("equal-time order not FIFO: %v", order)
		}
	}
}

func TestEngineRejectsPastAndNonFinite(t *testing.T) {
	e := NewEngine()
	if err := e.At(1, func() {}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := e.At(0.5, func() {}); err == nil {
		t.Error("scheduling in the past should error")
	}
	if err := e.After(-1, func() {}); err == nil {
		t.Error("negative delay should error")
	}
	if err := e.At(Time(math.NaN()), func() {}); err == nil {
		t.Error("NaN time should error")
	}
	if err := e.At(Time(math.Inf(1)), func() {}); err == nil {
		t.Error("Inf time should error")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			if err := e.After(1, tick); err != nil {
				t.Error(err)
			}
		}
	}
	if err := e.At(0, tick); err != nil {
		t.Fatal(err)
	}
	end := e.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if end != 4 {
		t.Errorf("end = %v, want 4", end)
	}
	if e.Fired() != 5 || e.Scheduled() != 5 {
		t.Errorf("fired=%d scheduled=%d, want 5/5", e.Fired(), e.Scheduled())
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 1; i <= 10; i++ {
		i := i
		if err := e.At(Time(i), func() {
			ran++
			if i == 3 {
				e.Halt()
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	e.Run()
	if ran != 3 {
		t.Errorf("ran = %d, want 3", ran)
	}
	if e.Pending() != 7 {
		t.Errorf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 1; i <= 10; i++ {
		if err := e.At(Time(i), func() { ran++ }); err != nil {
			t.Fatal(err)
		}
	}
	now := e.RunUntil(5.5)
	if ran != 5 {
		t.Errorf("ran = %d, want 5", ran)
	}
	if now != 5.5 {
		t.Errorf("now = %v, want 5.5", now)
	}
	e.Run()
	if ran != 10 {
		t.Errorf("after Run, ran = %d, want 10", ran)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverge")
		}
	}
	if NewRNG(1).Float64() == NewRNG(2).Float64() {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestRNGStreamsIndependentByName(t *testing.T) {
	root := NewRNG(7)
	a1 := root.Stream("alpha")
	a2 := NewRNG(7).Stream("alpha")
	b := root.Stream("beta")
	if a1.Float64() != a2.Float64() {
		t.Error("same-name streams should match")
	}
	if a1.Seed() == b.Seed() {
		t.Error("different names should derive different seeds")
	}
	n1 := root.StreamN("node", 1)
	n2 := root.StreamN("node", 2)
	if n1.Seed() == n2.Seed() {
		t.Error("different indices should derive different seeds")
	}
	if root.StreamN("node", 1).Seed() != n1.Seed() {
		t.Error("StreamN should be reproducible")
	}
}

func TestRNGStreamParentSeedMatters(t *testing.T) {
	if NewRNG(1).Stream("x").Seed() == NewRNG(2).Stream("x").Seed() {
		t.Error("children of different parents should differ")
	}
}

func TestJitterAround1(t *testing.T) {
	g := NewRNG(99)
	if g.JitterAround1(0) != 1 {
		t.Error("sigma 0 must return exactly 1")
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := g.JitterAround1(0.2)
		if v <= 0 {
			t.Fatal("lognormal draw must be positive")
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Errorf("jitter mean = %v, want ~1", mean)
	}
}

func TestUniformAndBool(t *testing.T) {
	g := NewRNG(5)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 3)
		if v < 2 || v >= 3 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	trues := 0
	for i := 0; i < 10000; i++ {
		if g.Bool(0.25) {
			trues++
		}
	}
	if trues < 2200 || trues > 2800 {
		t.Errorf("Bool(0.25) frequency = %d/10000", trues)
	}
}

func TestExp(t *testing.T) {
	g := NewRNG(11)
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Error("non-positive mean should return 0")
	}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += g.Exp(3)
	}
	mean := sum / n
	if mean < 2.8 || mean > 3.2 {
		t.Errorf("Exp mean = %v, want ~3", mean)
	}
}

// Property: events always fire in non-decreasing time order regardless of
// insertion order, and in scheduling order among equal timestamps.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine()
		type firing struct {
			at  Time
			idx int // scheduling order
		}
		var fired []firing
		for i, r := range raw {
			i := i
			// Few distinct timestamps, so ties are the common case.
			if err := e.At(Time(r%16), func() { fired = append(fired, firing{e.Now(), i}) }); err != nil {
				return false
			}
		}
		e.Run()
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at || (b.at == a.at && b.idx < a.idx) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Perm returns a permutation.
func TestPermProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		p := NewRNG(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFanOut: every index runs exactly once at any worker count, and a
// single worker runs them in order on the calling goroutine.
func TestFanOut(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		hits := make([]int32, 17)
		FanOut(len(hits), workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Errorf("workers=%d: index %d ran %d times, want 1", workers, i, h)
			}
		}
	}
	var order []int
	FanOut(5, 1, func(i int) { order = append(order, i) }) // unsynchronized: must be serial
	if !slices.Equal(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("serial order = %v", order)
	}
	FanOut(0, 4, func(int) { t.Error("fn called for n = 0") })
}

// TestFanOutReraisesWorkerPanic: a panic on a worker goroutine surfaces on
// the caller's, after every other index has still been run, so a recover
// around FanOut contains it at any worker count.
func TestFanOutReraisesWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		var got any
		func() {
			defer func() { got = recover() }()
			FanOut(16, workers, func(i int) {
				if i == 5 {
					panic("index five")
				}
				ran.Add(1)
			})
		}()
		if got == nil {
			t.Fatalf("workers=%d: panic did not reach the caller", workers)
		}
		if workers > 1 {
			err, ok := got.(error)
			if !ok || !strings.Contains(err.Error(), "index five") {
				t.Errorf("workers=%d: re-raised %v, want the worker's panic value in it", workers, got)
			}
			if ran.Load() != 15 {
				t.Errorf("workers=%d: %d other indexes ran, want 15", workers, ran.Load())
			}
		}
	}
}
