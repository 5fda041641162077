package sim

import (
	"sync"
	"sync/atomic"
)

// FanOut calls fn(i) for every i in [0, n) on up to workers goroutines
// pulling indexes from a shared counter, and returns once every call has.
// It is the ordered fan-out behind the deterministic parallel phases
// (measurement batches, serving batches, search cells): fn lands its
// result by index and the caller merges in index order afterwards, so the
// outcome is independent of which worker ran what and of completion
// order. workers <= 1 runs serially on the calling goroutine.
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
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
