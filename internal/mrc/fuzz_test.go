package mrc

// Fuzz coverage for the profile artifact codec. Profiles transit the
// content-addressed cache's disk tier, so DecodeProfile sees whatever
// bytes a crashed or corrupted store hands back. The contract under
// corruption mirrors the tape replay's (FuzzMultiReplayGrid): return an
// error — never panic, and never hand a malformed profile to the model.
// A decodable profile must be Validate-clean, and Predict over it must
// answer (or refuse) without panicking, as the reference evaluation
// does (reference_test.go).

import (
	"encoding/json"
	"testing"

	"nucache/internal/cache"
)

// fuzzProfile builds a small valid profile for the seed corpus.
func fuzzProfile() *Profile {
	hist := make([]uint64, 16+16+1)
	hist[0], hist[3], hist[16+4] = 5, 2, 1
	return &Profile{
		Version:    Version,
		Mix:        "fuzz",
		Members:    []string{"art-like", "swim-like"},
		Cores:      2,
		Ways:       8,
		Sets:       128,
		LineBytes:  64,
		Budget:     30_000,
		Seed:       1,
		LLCLatency: 10,
		MemLatency: 100,
		HistLinear: 16,
		HistLog2:   16,
		PerCore: []CoreProfile{
			{
				Core: 0, Benchmark: "art-like",
				Instructions: 30_000, PICycles: 60_000,
				MemAccesses: 9_000, L1Hits: 6_000, L1Misses: 3_000,
				Accesses: 3_000, DemandAccesses: 3_000,
				PosHits:       []uint64{400, 200, 100, 50, 25, 12, 6, 3},
				DemandPosHits: []uint64{400, 200, 100, 50, 25, 12, 6, 3},
				SampledMisses: 70,
				PCs: []PCProfile{{
					PC: 0x400100, Misses: 120, Demotions: 80,
					NextUseCounts: hist, NextUseSum: 23,
				}},
			},
			{
				Core: 1, Benchmark: "swim-like",
				Instructions: 30_000, PICycles: 55_000,
				MemAccesses: 8_000, L1Hits: 5_500, L1Misses: 2_500,
				Accesses: 2_600, DemandAccesses: 2_500,
				PosHits:       []uint64{300, 150, 75, 40, 20, 10, 5, 2},
				DemandPosHits: []uint64{290, 150, 75, 40, 20, 10, 5, 2},
				SampledMisses: 55,
			},
		},
	}
}

// FuzzProfileDecode throws truncated, bit-flipped and arbitrary byte
// strings at DecodeProfile.
func FuzzProfileDecode(f *testing.F) {
	valid, err := EncodeProfile(fuzzProfile())
	if err != nil {
		f.Fatalf("seed profile does not encode: %v", err)
	}
	f.Add(append([]byte(nil), valid...))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...)) // truncated
	flip := append([]byte(nil), valid...)
	flip[len(flip)/3] ^= 0x20 // case-flip inside a key or digit
	f.Add(flip)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"cores":-1}`))
	f.Add([]byte(`{"version":1,"cores":2,"ways":1e9}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProfile(data)
		if err != nil {
			return // detected corruption: the required outcome
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("DecodeProfile returned an invalid profile: %v", err)
		}
		// The model must answer (or refuse) every decodable profile
		// without panicking, for each policy it covers.
		for _, w := range []WhatIf{
			{Policy: PolicyPart},
			{Policy: PolicyLRU},
			{Policy: PolicyNUcache},
			{Policy: PolicyNUcache, DeliWays: -1},
		} {
			if _, err := Predict(p, w); err != nil {
				continue
			}
		}
		if _, err := BestPartition(p); err != nil {
			t.Fatalf("BestPartition rejected a validated profile: %v", err)
		}
		if _, err := BestDeliWays(p); err != nil {
			t.Fatalf("BestDeliWays rejected a validated profile: %v", err)
		}
		// The table-driven searches must answer exactly as the
		// reference does, on every shape Validate admits.
		CheckAgainstReference(t, "decoded", p)
	})
}

// TestProfileRoundTrip pins the codec: encode → decode is identity-
// preserving for the model (same predictions), and EncodeProfile
// refuses invalid profiles instead of laundering them into the cache.
func TestProfileRoundTrip(t *testing.T) {
	p := fuzzProfile()
	data, err := EncodeProfile(p)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	q, err := DecodeProfile(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	a, err := Predict(p, WhatIf{Policy: PolicyPart})
	if err != nil {
		t.Fatalf("predict original: %v", err)
	}
	b, err := Predict(q, WhatIf{Policy: PolicyPart})
	if err != nil {
		t.Fatalf("predict round-tripped: %v", err)
	}
	if a.Throughput != b.Throughput || a.MissRate != b.MissRate {
		t.Errorf("round trip changed the model's answer: %v vs %v", a, b)
	}

	bad := fuzzProfile()
	bad.PerCore[0].DemandAccesses = bad.PerCore[0].Accesses + 1
	if _, err := EncodeProfile(bad); err == nil {
		t.Error("EncodeProfile accepted demand accesses > accesses")
	}
}

// shapedProfile is a valid profile of the given machine shape.
func shapedProfile(cores, ways int) *Profile {
	p := fuzzProfile()
	p.Cores, p.Ways = cores, ways
	p.Members = make([]string, cores)
	p.PerCore = make([]CoreProfile, cores)
	for i := range p.PerCore {
		p.Members[i] = "art-like"
		p.PerCore[i] = CoreProfile{
			Core: i, Benchmark: "art-like",
			Instructions: 30_000, PICycles: 60_000,
			Accesses: 100, DemandAccesses: 100,
			PosHits: make([]uint64, ways), DemandPosHits: make([]uint64, ways),
		}
	}
	return p
}

// TestValidateBoundsPartitionSearch: BestPartition searches every way
// partition exhaustively, so Validate (and with it every decode) refuses
// a shape with no partition at all (more cores than ways) or one wider
// than the cache model supports, which bounds the search. The widest
// shape the simulator builds, 16 cores over 16 ways, and its largest
// search, 8 cores, pass.
func TestValidateBoundsPartitionSearch(t *testing.T) {
	for _, c := range []struct{ cores, ways int }{{17, 16}, {64, 16}, {32, 64}, {1, cache.MaxWays + 1}} {
		data, err := json.Marshal(shapedProfile(c.cores, c.ways))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeProfile(data); err == nil {
			t.Errorf("%d cores over %d ways decoded", c.cores, c.ways)
		}
	}
	for _, cores := range []int{8, 16} {
		p := shapedProfile(cores, 16)
		if err := p.Validate(); err != nil {
			t.Fatalf("%d cores over 16 ways: %v", cores, err)
		}
		if _, err := BestPartition(p); err != nil {
			t.Errorf("BestPartition over %d cores: %v", cores, err)
		}
	}
}
