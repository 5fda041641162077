package sim

import "testing"

// resetScenario schedules a mix of ordered and tied events plus nested
// scheduling, drains the queue, and returns the observed firing order and
// final time. Any two queues in equivalent states must agree on it.
func resetScenario(t *testing.T, q *Queue[func()]) ([]int, Time) {
	t.Helper()
	var order []int
	for i, at := range []Time{4, 1, 4, 2} { // two ties at t=4
		if err := q.At(at, func() { order = append(order, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.At(3, func() {
		order = append(order, 100)
		if err := q.After(2, func() { order = append(order, 101) }); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	return order, drain(q)
}

// TestEngineResetMatchesFresh: a Reset queue must be indistinguishable
// from a new one — same firing order (including the seq tie-break), same
// clock, same counters — even when it was reset with events still queued.
func TestEngineResetMatchesFresh(t *testing.T) {
	var fresh Queue[func()]
	wantOrder, wantEnd := resetScenario(t, &fresh)

	var reused Queue[func()]
	resetScenario(t, &reused) // dirty it: now/seq/fired all non-zero
	if err := reused.After(1, func() { t.Error("an event queued before Reset fired after it") }); err != nil {
		t.Fatal(err)
	}
	reused.Reset()
	if reused.Now() != 0 || reused.seq != 0 || reused.fired != 0 ||
		reused.Len() != 0 || reused.highWater != 0 {
		t.Fatalf("Reset left state behind: now=%v seq=%d fired=%d pending=%d hw=%d",
			reused.Now(), reused.seq, reused.fired, reused.Len(), reused.highWater)
	}
	gotOrder, gotEnd := resetScenario(t, &reused)
	if gotEnd != wantEnd {
		t.Errorf("final time = %v, want %v", gotEnd, wantEnd)
	}
	if len(gotOrder) != len(wantOrder) {
		t.Fatalf("order = %v, want %v", gotOrder, wantOrder)
	}
	for i := range wantOrder {
		if gotOrder[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", gotOrder, wantOrder)
		}
	}
}

// TestEngineResetSizeHint: Reset keeps the heap's storage, so a queue
// reused for a run no deeper than an earlier one starts at the size that
// run needed and schedules without allocating.
func TestEngineResetSizeHint(t *testing.T) {
	var q Queue[int]
	fill := func() {
		for i := 0; i < 4096; i++ {
			if err := q.At(Time(4096-i), i); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill()
	q.Reset()
	if got := cap(q.items); got < 4096 {
		t.Errorf("queue capacity after Reset = %d, want at least 4096", got)
	}
	if allocs := testing.AllocsPerRun(3, func() { q.Reset(); fill() }); allocs != 0 {
		t.Errorf("refilling a reset queue allocated %v times", allocs)
	}
}
