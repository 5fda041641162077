//go:build race

package placement

// raceEnabled reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of its Puts and allocation counts stop
// being a property of the code.
const raceEnabled = true
