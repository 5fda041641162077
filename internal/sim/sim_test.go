package sim

import (
	"errors"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// drain is the run loop of a closure-valued queue: it pops and calls
// events until the queue is empty, and returns the clock.
func drain(q *Queue[func()]) Time {
	for {
		fn, ok := q.Pop()
		if !ok {
			return q.Now()
		}
		fn()
	}
}

func TestEngineOrdersByTime(t *testing.T) {
	var q Queue[func()]
	var order []int
	for i, at := range []Time{3, 1, 2} {
		if err := q.At(at, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	end := drain(&q)
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
	var q Queue[int]
	for i := 0; i < 10; i++ {
		if err := q.At(5, i); err != nil {
			t.Fatal(err)
		}
	}
	for want := 0; want < 10; want++ {
		if got, ok := q.Pop(); !ok || got != want {
			t.Fatalf("pop %d = %v, %v; equal-time order not FIFO", want, got, ok)
		}
	}
	if v, ok := q.Pop(); ok || q.Now() != 5 {
		t.Errorf("pop from an empty queue = %v, %v; clock %v, want 5", v, ok, q.Now())
	}
}

func TestEngineRejectsPastAndNonFinite(t *testing.T) {
	var q Queue[int]
	if err := q.At(1, 0); err != nil {
		t.Fatal(err)
	}
	q.Pop()
	if err := q.At(0.5, 0); !errors.Is(err, ErrPastEvent) {
		t.Errorf("scheduling in the past: err = %v, want ErrPastEvent", err)
	}
	if err := q.After(-1, 0); !errors.Is(err, ErrPastEvent) {
		t.Errorf("negative delay: err = %v, want ErrPastEvent", err)
	}
	if err := q.At(Time(math.NaN()), 0); err == nil {
		t.Error("NaN time should error")
	}
	if err := q.At(Time(math.Inf(1)), 0); err == nil {
		t.Error("Inf time should error")
	}
	if err := q.After(math.MaxFloat64, 0); err != nil {
		t.Errorf("a finite delay: %v", err)
	}
	if err := q.After(math.MaxFloat64, 0); err != nil {
		t.Errorf("a finite delay: %v", err)
	}
	q.Pop()
	if err := q.After(math.MaxFloat64, 0); err == nil || !strings.Contains(err.Error(), "non-finite event time") {
		t.Errorf("a delay that overflows the clock: err = %v, want a non-finite event time", err)
	}
	if q.seq != 3 || q.Len() != 1 {
		t.Errorf("rejected events were counted or queued: scheduled %d, queued %d; want 3 and 1", q.seq, q.Len())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	var q Queue[func()]
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			if err := q.After(1, tick); err != nil {
				t.Error(err)
			}
		}
	}
	if err := q.At(0, tick); err != nil {
		t.Fatal(err)
	}
	end := drain(&q)
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if end != 4 {
		t.Errorf("end = %v, want 4", end)
	}
	if q.fired != 5 || q.seq != 5 || q.highWater != 1 {
		t.Errorf("fired=%d scheduled=%d high-water=%d, want 5/5/1", q.fired, q.seq, q.highWater)
	}
}

// TestEngineHalt: a consumer that stops popping leaves the rest queued,
// and can pick up where it stopped.
func TestEngineHalt(t *testing.T) {
	var q Queue[int]
	for i := 1; i <= 10; i++ {
		if err := q.At(Time(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if v, ok := q.Pop(); !ok || v != i {
			t.Fatalf("pop %d = %v, %v", i, v, ok)
		}
	}
	if q.Len() != 7 || q.fired != 3 || q.Now() != 3 {
		t.Errorf("after halting at 3: pending %d, fired %d, clock %v; want 7, 3, 3", q.Len(), q.fired, q.Now())
	}
	if v, ok := q.Pop(); !ok || v != 4 {
		t.Errorf("next pop = %v, %v; want 4", v, ok)
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

// TestSkipJitter: skipping n jitter draws leaves a stream where drawing
// them would have, including across the normal sampler's rare rejections;
// σ = 0 skips nothing because it draws nothing.
func TestSkipJitter(t *testing.T) {
	for _, sigma := range []float64{0, 0.05, 0.35} {
		for _, n := range []int{0, 1, 30, 700} {
			drawn, skipped := NewRNG(7).StreamN("skip", n), NewRNG(7).StreamN("skip", n)
			for i := 0; i < n; i++ {
				drawn.JitterAround1(sigma)
			}
			skipped.SkipJitter(n, sigma)
			for i := 0; i < 5; i++ {
				if a, b := drawn.JitterAround1(sigma), skipped.JitterAround1(sigma); a != b {
					t.Fatalf("sigma %v, %d skipped: draw %d = %v, %v after drawing them", sigma, n, i, b, a)
				}
			}
			if a, b := drawn.Float64(), skipped.Float64(); a != b {
				t.Errorf("sigma %v, %d skipped: the streams diverge (%v, %v)", sigma, n, b, a)
			}
		}
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
		var q Queue[int]
		type firing struct {
			at  Time
			idx int // scheduling order
		}
		var fired []firing
		for i, r := range raw {
			// Few distinct timestamps, so ties are the common case.
			if err := q.At(Time(r%16), i); err != nil {
				return false
			}
		}
		for {
			i, ok := q.Pop()
			if !ok {
				break
			}
			fired = append(fired, firing{q.Now(), i})
		}
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
