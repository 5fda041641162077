package serve

import "testing"

// identityRequests and identityWhatIfs are the inputs of
// TestRequestIdentityPinned.
func identityRequests() []PlaceRequest {
	return []PlaceRequest{
		{},
		{Apps: fourApps()},
		{Apps: fourApps(), QoSApp: "sens", QoSMax: 1.5},
		{Apps: fourApps(), QoSApp: "sens", QoSMax: -2.5e-7, Iterations: 1200, Restarts: 3},
		{Apps: []AppDemand{{App: "M.lmps", Units: 1 << 20}, {App: "", Units: -3}}, Seed: -9},
		{ID: "named", Apps: []AppDemand{{App: "a\x00b", Units: 7}}, QoSMax: 1e300},
		{Apps: []AppDemand{{App: "C.libq", Units: 12}, {App: "H.KM", Units: 4}}, Seed: 1<<63 - 1, Iterations: 1_000_000, Restarts: 64},
	}
}

func identityWhatIfs() []WhatIfRequest {
	return []WhatIfRequest{
		{},
		{Placement: [][]string{{"sens", "noisy1"}, {"", "quiet"}}},
		{Placement: [][]string{{"sens", "noisy1"}, {"", "quiet"}}, QoSApp: "sens", QoSMax: 1.2},
		{Placement: [][]string{{"", ""}, {}, {"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}}},
		{ID: "ignored", Placement: [][]string{{"x/1/y", "0"}}, QoSMax: -0.0},
	}
}

// TestRequestIdentityPinned: derived request IDs, search seeds and what-if
// IDs are part of the wire contract (a client that replays a body expects
// the same search), so the digest's byte sequence may not drift. The
// values were captured from the hash/fnv + fmt implementation this digest
// replaced.
func TestRequestIdentityPinned(t *testing.T) {
	wantPlace := []struct {
		id                string
		seed42, seedMinus int64
	}{
		{"req-34586f5ee480481c", 3771887141316011802, 3771887141267011655},
		{"req-a6c5be217fc0ad2c", 2793848194981792810, 2793848194932792663},
		{"req-5d263fa75067362f", 2100436264097944877, 2100436264048944730},
		{"req-51fb00b0e57b73f2", 1295630077605466864, 1295630077556466717},
		{"req-43bcf88cb5ecf64a", -9, -9},
		{"named", 4449514082764325238, 4449514082715325091},
		{"req-2ecc022fe9d2281d", 9223372036854775807, 9223372036854775807},
	}
	for i, r := range identityRequests() {
		w := wantPlace[i]
		if id, s42, sm := r.requestID(), r.searchSeed(42), r.searchSeed(-7); id != w.id || s42 != w.seed42 || sm != w.seedMinus {
			t.Errorf("place %d: id %q seeds %d / %d, want %q %d / %d", i, id, s42, sm, w.id, w.seed42, w.seedMinus)
		}
	}
	wantWhatIf := []uint64{
		0x34586f5ee480481c,
		0x7ca6d6cb945761d0,
		0x6673e9697596c4d4,
		0xa9a6e60c19a25ffa,
		0x0ac763ba7f9ac6a7,
	}
	for i, w := range identityWhatIfs() {
		if got := whatIfHash(w); got != wantWhatIf[i] {
			t.Errorf("what-if %d: digest %016x, want %016x", i, got, wantWhatIf[i])
		}
	}
	place, whatIf := identityRequests()[2], identityWhatIfs()[2]
	if n := testing.AllocsPerRun(100, func() { _ = place.hash() ^ whatIfHash(whatIf) }); n != 0 {
		t.Errorf("digesting a request allocates %v times, want 0", n)
	}
}
