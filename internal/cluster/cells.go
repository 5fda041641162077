// Cell partitioning: the fleet-scale placement search shards a cluster's
// hosts into cells, anneals within cells in parallel, and exchanges units
// across cells afterwards. The partition itself is pure arithmetic — and
// because every layer above (the search, the experiments, the fuzz
// harness) depends on it covering each host exactly once, it lives here
// next to the placement invariants it protects.

package cluster

import "fmt"

// Partition splits hosts 0..numHosts-1 into cells contiguous,
// near-equal-sized groups, larger cells first (the classic balanced
// split: the first numHosts%cells cells get one extra host). The cell
// count is clamped sanely for tiny fleets: at least 1, at most numHosts,
// so every returned cell is non-empty. numHosts <= 0 yields no cells.
func Partition(numHosts, cells int) [][]int {
	if numHosts <= 0 {
		return nil
	}
	if cells < 1 {
		cells = 1
	}
	if cells > numHosts {
		cells = numHosts
	}
	out := make([][]int, cells)
	base := numHosts / cells
	extra := numHosts % cells
	next := 0
	for c := 0; c < cells; c++ {
		size := base
		if c < extra {
			size++
		}
		cell := make([]int, size)
		for i := range cell {
			cell[i] = next
			next++
		}
		out[c] = cell
	}
	return out
}

// CheckPartition verifies that cells is an exact partition of hosts
// 0..numHosts-1: every host appears in exactly one cell, no cell is
// empty, and no index is out of range. The hierarchical search asserts
// this before trusting a partition, and the fuzz harness pins it for
// arbitrary (numHosts, cells) inputs.
func CheckPartition(numHosts int, cells [][]int) error {
	if numHosts <= 0 {
		if len(cells) != 0 {
			return fmt.Errorf("cluster: %d cells over a %d-host cluster", len(cells), numHosts)
		}
		return nil
	}
	seen := make([]bool, numHosts)
	covered := 0
	for c, cell := range cells {
		if len(cell) == 0 {
			return fmt.Errorf("cluster: cell %d is empty", c)
		}
		for _, h := range cell {
			if h < 0 || h >= numHosts {
				return fmt.Errorf("cluster: cell %d contains out-of-range host %d", c, h)
			}
			if seen[h] {
				return fmt.Errorf("cluster: host %d appears in more than one cell", h)
			}
			seen[h] = true
			covered++
		}
	}
	if covered != numHosts {
		return fmt.Errorf("cluster: partition covers %d of %d hosts", covered, numHosts)
	}
	return nil
}
