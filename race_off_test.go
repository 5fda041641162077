//go:build !race

package interference

const raceEnabled = false
