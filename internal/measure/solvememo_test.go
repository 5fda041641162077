package measure

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bubble"
	"repro/internal/cluster"
	"repro/internal/contention"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// profileFloats lists the eight float parameters of a profile, in the
// order occupantKey holds them.
func profileFloats(p *contention.MemProfile) [8]*float64 {
	return [8]*float64{&p.CPICore, &p.APKI, &p.WSSMB, &p.MRMin, &p.MRMax, &p.Gamma, &p.MLP, &p.CPUFluct}
}

// occupantsFrom decodes an occupant list of 1 to 5 entries from fuzz
// bytes: profiles from the workload table or the bubble generator, some
// with one parameter's bits perturbed (a flipped bit, -0, NaN), which may
// make the profile invalid.
func occupantsFrom(data []byte) []contention.Occupant {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	all := workloads.All()
	occ := make([]contention.Occupant, 1+int(next())%5)
	for i := range occ {
		var p contention.MemProfile
		if src := next(); src%3 == 0 {
			p = bubble.Profile(float64(next()%33) / 4)
		} else {
			p = all[int(src)%len(all)].GenProfile(i)
		}
		field := profileFloats(&p)[next()%8]
		switch next() % 8 {
		case 0:
			*field = math.Float64frombits(math.Float64bits(*field) ^ 1<<(next()%64))
		case 1:
			*field = math.Copysign(0, -1)
		case 2:
			*field = math.NaN()
		}
		p.BlockedIO = next()%4 == 0
		// At most 3 cores each, so five occupants fit the 16-core host.
		occ[i] = contention.Occupant{Name: fmt.Sprintf("o%d", i), Prof: p, Cores: 1 + int(next())%3}
	}
	return occ
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSolveMemo asserts the solve memo's contract on one occupant list:
// a miss and a hit both return bitwise what a fresh contention.Solve
// returns, over-length and failing lists store nothing, names do not enter
// the key, and every other field and the order do.
func checkSolveMemo(t *testing.T, occ []contention.Occupant) {
	t.Helper()
	e, err := NewEnv(cluster.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := contention.Solve(e.Cluster.HostSpec, occ)
	for _, pass := range []string{"miss", "hit"} {
		got := make([]float64, len(occ))
		err := e.solveShared(got, occ)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%s: solveShared error %v, Solve error %v", pass, err, wantErr)
		}
		if err == nil && !sameBits(got, want.Slowdown) {
			t.Fatalf("%s: solveShared %v, Solve %v", pass, got, want.Slowdown)
		}
		var first [1]float64
		if err := e.solveShared(first[:], occ); err == nil && math.Float64bits(first[0]) != math.Float64bits(want.Slowdown[0]) {
			t.Fatalf("%s: first slowdown %v, Solve %v", pass, first[0], want.Slowdown[0])
		}
	}
	key, keyed := hostKeyOf(occ)
	wantEntries := 1
	if wantErr != nil || len(occ) > maxKeyedOccupants {
		wantEntries = 0
	}
	if keyed != (len(occ) <= maxKeyedOccupants) || len(e.solveCache) != wantEntries {
		t.Fatalf("%d occupants (Solve error %v): keyed %t, %d memo entries, want %d",
			len(occ), wantErr, keyed, len(e.solveCache), wantEntries)
	}
	if !keyed {
		return
	}
	differs := func(what string, other []contention.Occupant) {
		t.Helper()
		if k, _ := hostKeyOf(other); k == key {
			t.Fatalf("%s: shares a memo entry with the original\n%+v\n%+v", what, occ, other)
		}
	}
	for i := range occ {
		renamed := append([]contention.Occupant(nil), occ...)
		renamed[i].Name = "someone else"
		if k, _ := hostKeyOf(renamed); k != key {
			t.Fatalf("occupant %d renamed: a different memo entry", i)
		}
		for f := 0; f < 8; f++ {
			other := append([]contention.Occupant(nil), occ...)
			field := profileFloats(&other[i].Prof)[f]
			*field = math.Float64frombits(math.Float64bits(*field) ^ 1)
			differs(fmt.Sprintf("occupant %d, float %d, lowest bit flipped", i, f), other)
			*field = -*profileFloats(&occ[i].Prof)[f] // -0 against +0 included
			differs(fmt.Sprintf("occupant %d, float %d, sign flipped", i, f), other)
		}
		other := append([]contention.Occupant(nil), occ...)
		other[i].Cores++
		differs(fmt.Sprintf("occupant %d, one more core", i), other)
		other[i].Cores--
		other[i].Prof.BlockedIO = !other[i].Prof.BlockedIO
		differs(fmt.Sprintf("occupant %d, BlockedIO toggled", i), other)
		for j := i + 1; j < len(occ); j++ {
			a, _ := hostKeyOf(occ[i : i+1])
			b, _ := hostKeyOf(occ[j : j+1])
			if a == b {
				continue // swapping equal occupants changes nothing
			}
			other := append([]contention.Occupant(nil), occ...)
			other[i], other[j] = other[j], other[i]
			differs(fmt.Sprintf("occupants %d and %d swapped", i, j), other)
		}
	}
	differs("one occupant fewer", occ[:len(occ)-1])
}

// TestSolveMemoProperty runs the memo contract over a few hundred seeded
// random lists; FuzzSolveMemo explores from the same decoder.
func TestSolveMemoProperty(t *testing.T) {
	rng := sim.NewRNG(18).Stream("solve-memo")
	lengths := map[int]int{}
	for c := 0; c < 400; c++ {
		data := make([]byte, 36)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		occ := occupantsFrom(data)
		lengths[len(occ)]++
		checkSolveMemo(t, occ)
	}
	for n := 1; n <= 5; n++ {
		if lengths[n] == 0 {
			t.Errorf("no list of %d occupants drawn", n)
		}
	}
}

func FuzzSolveMemo(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 8, 0, 7, 0, 1, 5, 3, 0, 1, 3, 2})          // a workload beside a bubble
	f.Add([]byte{4, 1, 0, 1, 9, 2, 2, 0, 2, 2, 1, 3, 0, 3, 0, 1}) // over-length, -0 and NaN
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSolveMemo(t, occupantsFrom(data))
	})
}

// TestSolveMemoSolvesEachKeyOnce: workers that ask for the same hosts side
// by side share one solve per key — a worker that finds a key pending
// waits for it rather than solving it again — and every one of them reads
// the bits a direct solve gives.
func TestSolveMemoSolvesEachKeyOnce(t *testing.T) {
	e, err := NewEnv(cluster.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	all := workloads.All()
	var hosts [][]contention.Occupant
	for i, w := range all {
		co := all[(i+5)%len(all)]
		hosts = append(hosts, []contention.Occupant{
			{Name: w.Name, Prof: w.Prof, Cores: e.UnitCores},
			{Name: co.Name, Prof: co.GenProfile(1), Cores: e.UnitCores},
		})
	}
	want := make([][]float64, len(hosts))
	for i, occ := range hosts {
		want[i] = make([]float64, len(occ))
		if err := contention.Slowdowns(e.Cluster.HostSpec, occ, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Every worker walks the keys in the same order from the same start,
	// so they ask for each key at about the same moment.
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	bad := make([]int, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]float64, 2)
			<-start
			for i := range hosts {
				if err := e.solveShared(got, hosts[i]); err != nil || !sameBits(got, want[i]) {
					bad[g]++
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for g, n := range bad {
		if n > 0 {
			t.Errorf("worker %d: %d solves failed or differ from a direct solve", g, n)
		}
	}
	if e.solveMisses != len(hosts) {
		t.Errorf("%d workers made %d kernel calls over %d keys, want one per key", workers, e.solveMisses, len(hosts))
	}
}
