package workload

import (
	"testing"

	"nucache/internal/stats"
	"nucache/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("registered %d benchmarks, want 16", len(all))
	}
	classes := map[Class]int{}
	for _, b := range all {
		if b.Name == "" || b.Description == "" {
			t.Fatalf("benchmark missing metadata: %+v", b)
		}
		classes[b.Class]++
	}
	for _, c := range []Class{ClassFriendly, ClassSensitive, ClassStreaming, ClassThrashing, ClassMixed} {
		if classes[c] == 0 {
			t.Fatalf("no benchmark of class %s", c)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("art-like"); !ok {
		t.Fatal("art-like missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus name found")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName should panic")
		}
	}()
	MustByName("nope")
}

func TestStreamsDeterministic(t *testing.T) {
	for _, b := range All() {
		a1 := trace.Collect(b.Stream(7), 5000)
		a2 := trace.Collect(b.Stream(7), 5000)
		if len(a1) != 5000 || len(a2) != 5000 {
			t.Fatalf("%s: short stream", b.Name)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("%s: nondeterministic at %d", b.Name, i)
			}
		}
	}
}

func TestStreamsSeedSensitive(t *testing.T) {
	// Randomized benchmarks must differ across seeds (pure sequential
	// models may legitimately coincide, so only check a zipf-based one).
	a := trace.Collect(MustByName("omnetpp-like").Stream(1), 1000)
	b := trace.Collect(MustByName("omnetpp-like").Stream(2), 1000)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("seeds produce near-identical streams (%d/1000)", same)
	}
}

// TestStreamIDsNameStreams: StreamID is the tape memo's key, so equal
// ids must mean equal streams and a seeded model's distinct ids must
// mean distinct streams.
func TestStreamIDsNameStreams(t *testing.T) {
	const n = 50_000
	seedless := 0
	for _, b := range All() {
		same := b.StreamID(1) == b.StreamID(2)
		if same {
			seedless++
		}
		a1 := trace.Collect(b.Stream(1), n)
		a2 := trace.Collect(b.Stream(2), n)
		differ := false
		for i := range a1 {
			if a1[i] != a2[i] {
				differ = true
				break
			}
		}
		if same == differ {
			t.Errorf("%s: ids %q and %q, streams differ in %d accesses: %v", b.Name, b.StreamID(1), b.StreamID(2), n, differ)
		}
	}
	if seedless == 0 || seedless == len(All()) {
		t.Errorf("%d of %d models are seedless", seedless, len(All()))
	}
}

func TestAccessesWellFormed(t *testing.T) {
	for _, b := range All() {
		for i, a := range trace.Collect(b.Stream(3), 20000) {
			if a.Addr%lineBytes != 0 {
				t.Fatalf("%s access %d: unaligned addr %#x", b.Name, i, a.Addr)
			}
			if a.PC < 0x400000 || a.PC > 0x500000 {
				t.Fatalf("%s access %d: implausible PC %#x", b.Name, i, a.PC)
			}
			if a.Gap > 100 {
				t.Fatalf("%s access %d: gap %d", b.Name, i, a.Gap)
			}
		}
	}
}

func TestDistinctPCsPerBenchmark(t *testing.T) {
	for _, b := range All() {
		pcs := map[uint64]bool{}
		// 80k accesses covers at least one full round of every model.
		for _, a := range trace.Collect(b.Stream(3), 80000) {
			pcs[a.PC] = true
		}
		if len(pcs) < 2 {
			t.Fatalf("%s uses %d static PCs, want >= 2", b.Name, len(pcs))
		}
	}
}

func TestClassFootprints(t *testing.T) {
	// Streaming models must keep producing fresh lines; friendly models
	// must stay within their small footprint.
	fresh := func(name string, n int) int {
		seen := map[uint64]bool{}
		for _, a := range trace.Collect(MustByName(name).Stream(5), n) {
			seen[a.Addr>>6] = true
		}
		return len(seen)
	}
	if got := fresh("swim-like", 30000); got < 20000 {
		t.Fatalf("swim-like touched only %d lines in 30k accesses", got)
	}
	if got := fresh("hmmer-like", 30000); got > 1024 {
		t.Fatalf("hmmer-like touched %d lines, want tiny footprint", got)
	}
	if got := fresh("twolf-like", 30000); got > (256<<10)/64 {
		t.Fatalf("twolf-like touched %d lines", got)
	}
}

func TestMixesWellFormed(t *testing.T) {
	for _, cores := range MixWidths() {
		mixes := MixesFor(cores)
		if len(mixes) < 8 {
			t.Fatalf("%d-core: only %d mixes", cores, len(mixes))
		}
		names := map[string]bool{}
		for _, m := range mixes {
			if m.Cores() != cores {
				t.Fatalf("mix %s has %d members", m.Name, m.Cores())
			}
			if names[m.Name] {
				t.Fatalf("duplicate mix name %s", m.Name)
			}
			names[m.Name] = true
			streams := m.Streams(1)
			if len(streams) != cores {
				t.Fatalf("mix %s: %d streams", m.Name, len(streams))
			}
			for i, s := range streams {
				if _, ok := s.Next(); !ok {
					t.Fatalf("mix %s stream %d empty", m.Name, i)
				}
			}
			if m.String() == "" {
				t.Fatal("empty String()")
			}
		}
	}
}

// TestMixByName finds every standard mix of every width and rejects a
// name the catalog lacks.
func TestMixByName(t *testing.T) {
	n := 0
	for _, cores := range MixWidths() {
		for _, want := range MixesFor(cores) {
			got, ok := MixByName(want.Name)
			if !ok || got.String() != want.String() {
				t.Errorf("MixByName(%q) = %v, %v; want %v", want.Name, got, ok, want)
			}
			n++
		}
	}
	if n != 28 {
		t.Errorf("%d standard mixes; want 28", n)
	}
	for _, name := range []string{"", "mix2-00", "mix2-11", "mix3-01", "MIX2-01"} {
		if m, ok := MixByName(name); ok {
			t.Errorf("MixByName(%q) found %v", name, m)
		}
	}
}

// TestMixCatalogIsCopied: callers get copies, so editing what MixesFor
// or MixByName returned cannot change the catalog.
func TestMixCatalogIsCopied(t *testing.T) {
	ms := MixesFor(4)
	want := ms[0].String()
	ms[0].Members[0] = "swim-like"
	ms[1] = Mix{Name: "edited"}
	m, _ := MixByName("mix4-01")
	m.Members[1] = "swim-like"
	again := MixesFor(4)
	if got := again[0].String(); got != want {
		t.Errorf("mix4-01 is %s after editing a copy; want %s", got, want)
	}
	if again[1].Name != "mix4-02" {
		t.Errorf("second 4-core mix is %q after editing a copy", again[1].Name)
	}
	if m, _ := MixByName("mix4-01"); m.String() != want {
		t.Errorf("MixByName(mix4-01) is %s after editing a copy; want %s", m, want)
	}
}

func TestMixDuplicateMembersDiverge(t *testing.T) {
	m := Mix{Name: "dup", Members: []string{"omnetpp-like", "omnetpp-like"}}
	st := m.Streams(1)
	a := trace.Collect(st[0], 500)
	b := trace.Collect(st[1], 500)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same > 450 {
		t.Fatalf("duplicate members nearly identical (%d/500)", same)
	}
}

func TestMixesForPanicsOnOddCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MixesFor(3)
}

func TestPermCycleIsSingleCycle(t *testing.T) {
	next := permCycle(stats.NewRNG(42), 257)
	seen := make([]bool, 257)
	pos := uint32(0)
	for i := 0; i < 257; i++ {
		if seen[pos] {
			t.Fatalf("cycle shorter than n at step %d", i)
		}
		seen[pos] = true
		pos = next[pos]
	}
	if pos != 0 {
		t.Fatal("did not return to start after n steps")
	}
}
