package cluster

import "testing"

func TestPartitionShapes(t *testing.T) {
	cases := []struct {
		hosts, cells int
		wantCells    int
		wantSizes    []int
	}{
		{hosts: 8, cells: 2, wantCells: 2, wantSizes: []int{4, 4}},
		{hosts: 10, cells: 3, wantCells: 3, wantSizes: []int{4, 3, 3}},
		{hosts: 5, cells: 5, wantCells: 5, wantSizes: []int{1, 1, 1, 1, 1}},
		// Clamps: more cells than hosts, zero/negative cells.
		{hosts: 3, cells: 9, wantCells: 3, wantSizes: []int{1, 1, 1}},
		{hosts: 7, cells: 0, wantCells: 1, wantSizes: []int{7}},
		{hosts: 7, cells: -4, wantCells: 1, wantSizes: []int{7}},
		{hosts: 1, cells: 1, wantCells: 1, wantSizes: []int{1}},
	}
	for _, c := range cases {
		cells := Partition(c.hosts, c.cells)
		if len(cells) != c.wantCells {
			t.Errorf("Partition(%d, %d): %d cells, want %d", c.hosts, c.cells, len(cells), c.wantCells)
			continue
		}
		for i, cell := range cells {
			if len(cell) != c.wantSizes[i] {
				t.Errorf("Partition(%d, %d) cell %d has %d hosts, want %d",
					c.hosts, c.cells, i, len(cell), c.wantSizes[i])
			}
		}
		if err := CheckPartition(c.hosts, cells); err != nil {
			t.Errorf("Partition(%d, %d) fails its own check: %v", c.hosts, c.cells, err)
		}
		// Contiguity: host indexes ascend across the flattened partition.
		prev := -1
		for _, cell := range cells {
			for _, h := range cell {
				if h != prev+1 {
					t.Fatalf("Partition(%d, %d) not contiguous at host %d (prev %d)", c.hosts, c.cells, h, prev)
				}
				prev = h
			}
		}
	}
	if got := Partition(0, 3); got != nil {
		t.Errorf("Partition(0, 3) = %v, want nil", got)
	}
	if got := Partition(-2, 1); got != nil {
		t.Errorf("Partition(-2, 1) = %v, want nil", got)
	}
}

func TestCheckPartitionRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name  string
		hosts int
		cells [][]int
	}{
		{"empty cell", 2, [][]int{{0, 1}, {}}},
		{"duplicate host", 2, [][]int{{0}, {0}}},
		{"out of range", 2, [][]int{{0}, {2}}},
		{"negative host", 2, [][]int{{0}, {-1}}},
		{"uncovered host", 3, [][]int{{0}, {1}}},
		{"cells over empty cluster", 0, [][]int{{0}}},
	}
	for _, c := range cases {
		if err := CheckPartition(c.hosts, c.cells); err == nil {
			t.Errorf("%s: CheckPartition accepted %v over %d hosts", c.name, c.cells, c.hosts)
		}
	}
	if err := CheckPartition(0, nil); err != nil {
		t.Errorf("empty cluster with no cells should be fine: %v", err)
	}
}
