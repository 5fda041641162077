package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// FanOut calls fn(i) for every i in [0, n) on up to workers goroutines —
// the calling one among them — pulling indexes from a shared counter,
// and returns once every call has.
// It is the ordered fan-out behind the deterministic parallel phases
// (measurement batches, serving batches, search cells): fn lands its
// result by index and the caller merges in index order afterwards, so the
// outcome is independent of which worker ran what and of completion
// order. workers <= 1 runs serially on the calling goroutine.
//
// A panic in fn on any worker is re-raised on the calling goroutine once
// every worker has stopped (the first one, with the worker's stack in
// its message), so a caller's recover contains it just as it would on
// the serial path.
func FanOut(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var panicked atomic.Pointer[error]
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				err := fmt.Errorf("sim: FanOut worker panicked: %v\n%s", r, debug.Stack())
				panicked.CompareAndSwap(nil, &err)
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	// The caller works too: it starts pulling at once, on a stack
	// already grown, while the goroutines it spawns start up.
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if err := panicked.Load(); err != nil {
		panic(*err)
	}
}
