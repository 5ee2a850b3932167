package cpu_test

import (
	"strings"
	"testing"

	"nucache/internal/cache"
	"nucache/internal/cpu"
	"nucache/internal/memory"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

func tinyConfig(cores int) cpu.Config {
	return cpu.Config{
		Cores:      cores,
		L1:         cache.Config{SizeBytes: 4 * 2 * 64, Ways: 2, LineBytes: 64},
		LLC:        cache.Config{SizeBytes: 16 * 4 * 64, Ways: 4, LineBytes: 64},
		L1Latency:  1,
		LLCLatency: 10,
		MemLatency: 100,
	}
}

func TestSingleCoreCycleAccounting(t *testing.T) {
	// Access A: gap 3, miss everywhere: 3 + 1 + 10 + 100 = 114 cycles.
	// Access A again: gap 0, L1 hit: 1 cycle. Total 115, instr 5, mem 2.
	st := trace.NewSliceStream([]trace.Access{
		{PC: 1, Addr: 0x1000, Gap: 3},
		{PC: 1, Addr: 0x1000, Gap: 0},
	})
	sys := cpu.NewSystem(tinyConfig(1), policy.NewLRU(), []trace.Stream{st})
	res := sys.Run()
	r := res[0]
	if r.Cycles != 115 {
		t.Fatalf("cycles = %d, want 115", r.Cycles)
	}
	if r.Instructions != 5 || r.MemAccesses != 2 {
		t.Fatalf("instr = %d mem = %d", r.Instructions, r.MemAccesses)
	}
	if r.L1Hits != 1 || r.L1Misses != 1 || r.LLCMisses != 1 || r.LLCAccesses != 1 {
		t.Fatalf("result = %+v", r)
	}
	if got := r.IPC(); got <= 0.04 || got >= 0.05 {
		t.Fatalf("IPC = %v", got)
	}
}

func TestLLCHitLatency(t *testing.T) {
	// Warm the LLC, evict from L1, re-access: LLC hit = 1 + 10 cycles.
	// L1: 4 sets x 2 ways. Lines 0x0000, 0x2000, 0x4000 map to L1 set 0
	// (stride 4*64=256... use stride 256 alignment): addresses 0, 256, 512.
	// LLC: 16 sets, stride 1024: these map to LLC sets 0, 4, 8 (no LLC
	// conflict).
	st := trace.NewSliceStream([]trace.Access{
		{PC: 1, Addr: 0},
		{PC: 1, Addr: 256},
		{PC: 1, Addr: 512}, // evicts 0 from L1 set 0
		{PC: 1, Addr: 0},   // L1 miss, LLC hit
	})
	sys := cpu.NewSystem(tinyConfig(1), policy.NewLRU(), []trace.Stream{st})
	r := sys.Run()[0]
	// 3 full misses (111 each) + 1 LLC hit (11) = 344.
	if r.Cycles != 3*111+11 {
		t.Fatalf("cycles = %d, want %d", r.Cycles, 3*111+11)
	}
	if r.LLCHits != 1 {
		t.Fatalf("LLC hits = %d", r.LLCHits)
	}
}

func TestWritebackReachesLLC(t *testing.T) {
	// Store to a line, evict it from L1 via conflicts: the dirty line must
	// be written back to the LLC (posted, no stall).
	st := trace.NewSliceStream([]trace.Access{
		{PC: 1, Addr: 0, Kind: trace.Store},
		{PC: 1, Addr: 256},
		{PC: 1, Addr: 512}, // evicts dirty line 0
	})
	sys := cpu.NewSystem(tinyConfig(1), policy.NewLRU(), []trace.Stream{st})
	r := sys.Run()[0]
	if sys.Writebacks != 1 {
		t.Fatalf("writebacks = %d", sys.Writebacks)
	}
	// Writeback must not stall: 3 full misses only.
	if r.Cycles != 3*111 {
		t.Fatalf("cycles = %d", r.Cycles)
	}
	// The LLC saw 3 demand + 1 writeback accesses.
	if got := sys.LLC().Stats.Accesses; got != 4 {
		t.Fatalf("LLC accesses = %d", got)
	}
}

func TestPerCoreAddressIsolation(t *testing.T) {
	// Two cores touching the same virtual address must not share LLC lines.
	mk := func() trace.Stream {
		return trace.NewSliceStream([]trace.Access{{PC: 1, Addr: 0x1000}})
	}
	sys := cpu.NewSystem(tinyConfig(2), policy.NewLRU(), []trace.Stream{mk(), mk()})
	res := sys.Run()
	if res[0].LLCMisses != 1 || res[1].LLCMisses != 1 {
		t.Fatalf("expected cold misses on both cores: %+v", res)
	}
	if sys.LLC().Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2 distinct lines", sys.LLC().Occupancy())
	}
}

func TestInstrBudgetFreezesStats(t *testing.T) {
	// Unbounded synthetic stream; budget must stop accounting at >= budget.
	n := uint64(0)
	gen := trace.FuncStream(func() (trace.Access, bool) {
		n++
		return trace.Access{PC: 1, Addr: (n % 8) * 64, Gap: 9}, true
	})
	cfg := tinyConfig(1)
	cfg.InstrBudget = 1000
	sys := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{gen})
	r := sys.Run()[0]
	if r.Instructions < 1000 || r.Instructions >= 1010 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
}

func TestMulticoreDeterminism(t *testing.T) {
	run := func() []cpu.CoreResult {
		mk := func(seed uint64) trace.Stream {
			i := seed
			return trace.NewLimitStream(trace.FuncStream(func() (trace.Access, bool) {
				i = i*6364136223846793005 + 1
				return trace.Access{PC: 1 + i%7, Addr: (i % 4096) &^ 63, Gap: uint32(i % 5)}, true
			}), 5000)
		}
		sys := cpu.NewSystem(tinyConfig(2), policy.NewLRU(), []trace.Stream{mk(1), mk(2)})
		return sys.Run()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic result on core %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestContentionSlowsCores(t *testing.T) {
	// A core sharing the LLC with a thrashing neighbor must take more
	// cycles than when it runs alone.
	hotLoop := func() trace.Stream {
		i := uint64(0)
		return trace.NewLimitStream(trace.FuncStream(func() (trace.Access, bool) {
			i++
			return trace.Access{PC: 1, Addr: (i % 48) * 64, Gap: 2}, true
		}), 20000)
	}
	thrash := func() trace.Stream {
		i := uint64(0)
		return trace.NewLimitStream(trace.FuncStream(func() (trace.Access, bool) {
			i++
			return trace.Access{PC: 2, Addr: i * 64, Gap: 2}, true
		}), 20000)
	}
	alone := cpu.NewSystem(tinyConfig(1), policy.NewLRU(), []trace.Stream{hotLoop()}).Run()[0]
	shared := cpu.NewSystem(tinyConfig(2), policy.NewLRU(), []trace.Stream{hotLoop(), thrash()}).Run()[0]
	if shared.Cycles <= alone.Cycles {
		t.Fatalf("no contention: alone %d cycles, shared %d", alone.Cycles, shared.Cycles)
	}
}

func TestMetricsHelpers(t *testing.T) {
	r := cpu.CoreResult{Instructions: 2000, Cycles: 4000, LLCMisses: 6, L1Hits: 3, L1Misses: 1}
	if r.IPC() != 0.5 {
		t.Fatalf("IPC = %v", r.IPC())
	}
	if r.LLCMPKI() != 3 {
		t.Fatalf("MPKI = %v", r.LLCMPKI())
	}
	if r.L1MissRate() != 0.25 {
		t.Fatalf("L1 miss rate = %v", r.L1MissRate())
	}
	var zero cpu.CoreResult
	if zero.IPC() != 0 || zero.LLCMPKI() != 0 || zero.L1MissRate() != 0 {
		t.Fatal("zero-value helpers must return 0")
	}
}

func TestNewSystemPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { cpu.NewSystem(tinyConfig(0), policy.NewLRU(), nil) },
		func() { cpu.NewSystem(tinyConfig(2), policy.NewLRU(), []trace.Stream{nil}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestNonDefaultLineSizePanics: private victims, writebacks, DRAM rows
// and tape words carry 64-byte line addresses, so a machine with any
// other line size at any level is refused where its caches are built,
// naming the level and the size, rather than simulated with halved
// writeback and DRAM addresses. The direct engine, the tape recorder
// and the replay engine all build through the same checks.
func TestNonDefaultLineSizePanics(t *testing.T) {
	wide := func(cfg cpu.Config, level string) cpu.Config {
		switch level {
		case "L1":
			cfg.L1.SizeBytes, cfg.L1.LineBytes = 4*2*128, 128
		case "L2":
			cfg.L2, cfg.L2Latency = cache.Config{SizeBytes: 8 * 4 * 128, Ways: 4, LineBytes: 128}, 6
		case "LLC":
			cfg.LLC.SizeBytes, cfg.LLC.LineBytes = 16*4*128, 128
		}
		return cfg
	}
	stream := func() []trace.Stream {
		return []trace.Stream{trace.NewSliceStream([]trace.Access{{PC: 1, Addr: 0x1000}})}
	}
	for _, level := range []string{"L1", "L2", "LLC"} {
		for engine, build := range map[string]func(cpu.Config){
			"direct": func(cfg cpu.Config) { cpu.NewSystem(cfg, policy.NewLRU(), stream()).Run() },
			"replay": func(cfg cpu.Config) {
				tape := cpu.NewTape(cfg, stream()[0])
				cpu.NewReplaySystem(cfg, policy.NewLRU(), []*cpu.Tape{tape}).Run()
			},
		} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					want := "cpu: " + level + " line size 128 bytes"
					if !strings.Contains(msg, want) {
						t.Errorf("%s engine, 128-byte %s: panic %q, want one naming %q", engine, level, msg, want)
					}
				}()
				build(wide(tinyConfig(1), level))
			}()
		}
	}
}

func TestDefaultConfigScalesLLC(t *testing.T) {
	if got := cpu.DefaultConfig(2).LLC.SizeBytes; got != 1<<20 {
		t.Fatalf("2-core LLC = %d", got)
	}
	if got := cpu.DefaultConfig(4).LLC.SizeBytes; got != 2<<20 {
		t.Fatalf("4-core LLC = %d", got)
	}
	if got := cpu.DefaultConfig(8).LLC.SizeBytes; got != 4<<20 {
		t.Fatalf("8-core LLC = %d", got)
	}
}

func TestPrefetcherFillsNextLines(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.PrefetchDegree = 2
	st := trace.NewSliceStream([]trace.Access{
		{PC: 1, Addr: 0}, // demand miss: prefetch lines 1 and 2
	})
	sys := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{st})
	sys.Run()
	if sys.PrefetchIssued != 2 {
		t.Fatalf("prefetches = %d", sys.PrefetchIssued)
	}
	llc := sys.LLC()
	for _, addr := range []uint64{64, 128} {
		set := llc.Set(llc.SetIndex(addr))
		if set.Lookup(llc.Tag(addr)) < 0 {
			t.Fatalf("line %#x not prefetched into LLC", addr)
		}
	}
}

func TestPrefetcherHelpsSequentialStream(t *testing.T) {
	mk := func() trace.Stream {
		i := uint64(0)
		return trace.NewLimitStream(trace.FuncStream(func() (trace.Access, bool) {
			i++
			return trace.Access{PC: 1, Addr: i * 64, Gap: 2}, true
		}), 20000)
	}
	base := tinyConfig(1)
	noPf := cpu.NewSystem(base, policy.NewLRU(), []trace.Stream{mk()}).Run()[0]
	pf := base
	pf.PrefetchDegree = 2
	withPf := cpu.NewSystem(pf, policy.NewLRU(), []trace.Stream{mk()}).Run()[0]
	if withPf.Cycles >= noPf.Cycles {
		t.Fatalf("prefetching did not help: %d vs %d cycles", withPf.Cycles, noPf.Cycles)
	}
}

func TestPrefetcherOffByDefault(t *testing.T) {
	cfg := tinyConfig(1)
	st := trace.NewSliceStream([]trace.Access{{PC: 1, Addr: 0}})
	sys := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{st})
	sys.Run()
	if sys.PrefetchIssued != 0 {
		t.Fatal("prefetches issued with degree 0")
	}
	if sys.LLC().Occupancy() != 1 {
		t.Fatalf("occupancy = %d", sys.LLC().Occupancy())
	}
}

func TestPrivateL2Hit(t *testing.T) {
	cfg := tinyConfig(1)
	cfg.L2 = cache.Config{SizeBytes: 16 * 4 * 64, Ways: 4, LineBytes: 64}
	cfg.L2Latency = 5
	// Same conflict pattern as TestLLCHitLatency: line 0 falls out of the
	// tiny L1 but stays in the L2.
	st := trace.NewSliceStream([]trace.Access{
		{PC: 1, Addr: 0},
		{PC: 1, Addr: 256},
		{PC: 1, Addr: 512},
		{PC: 1, Addr: 0}, // L1 miss, L2 hit: 1 + 5 cycles
	})
	sys := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{st})
	r := sys.Run()[0]
	// Full misses now cost 1+5+10+100 = 116; the L2 hit costs 6.
	if r.Cycles != 3*116+6 {
		t.Fatalf("cycles = %d, want %d", r.Cycles, 3*116+6)
	}
	// The final access never reached the LLC.
	if got := sys.LLC().Stats.Accesses; got != 3 {
		t.Fatalf("LLC accesses = %d", got)
	}
}

func TestPrivateL2FiltersLLCTraffic(t *testing.T) {
	mk := func() trace.Stream {
		i := uint64(0)
		return trace.NewLimitStream(trace.FuncStream(func() (trace.Access, bool) {
			i++
			return trace.Access{PC: 1, Addr: (i % 128) * 64, Gap: 1}, true
		}), 30000)
	}
	noL2 := cpu.NewSystem(tinyConfig(1), policy.NewLRU(), []trace.Stream{mk()})
	noL2.Run()
	cfg := tinyConfig(1)
	cfg.L2 = cache.Config{SizeBytes: 128 * 4 * 64, Ways: 4, LineBytes: 64}
	cfg.L2Latency = 5
	withL2 := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{mk()})
	withL2.Run()
	if withL2.LLC().Stats.Accesses*4 > noL2.LLC().Stats.Accesses {
		t.Fatalf("L2 did not filter: %d vs %d LLC accesses",
			withL2.LLC().Stats.Accesses, noL2.LLC().Stats.Accesses)
	}
}

func TestL2DirtyVictimReachesLLC(t *testing.T) {
	cfg := tinyConfig(1)
	// 1-set, 1-way L2: every fill evicts the previous line.
	cfg.L2 = cache.Config{SizeBytes: 64, Ways: 1, LineBytes: 64}
	cfg.L2Latency = 5
	st := trace.NewSliceStream([]trace.Access{
		{PC: 1, Addr: 0, Kind: trace.Store},
		{PC: 1, Addr: 256}, // L1 set conflict no; L2 evicts dirty line 0
		{PC: 1, Addr: 512},
	})
	sys := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{st})
	sys.Run()
	// Writebacks: L2's dirty victim (line 0) must have been stored to LLC.
	if sys.Writebacks == 0 {
		t.Fatal("no writebacks recorded")
	}
	llc := sys.LLC()
	set := llc.Set(llc.SetIndex(0))
	way := set.Lookup(llc.Tag(0))
	if way < 0 || !set.Lines[way].Dirty {
		t.Fatal("dirty L2 victim not written back to LLC")
	}
}

func TestDRAMModelChangesMissCost(t *testing.T) {
	// Sequential misses enjoy row hits: cheaper than the flat model; a
	// row-conflict-heavy pattern is costlier.
	seqStream := func() trace.Stream {
		i := uint64(0)
		return trace.NewLimitStream(trace.FuncStream(func() (trace.Access, bool) {
			i++
			return trace.Access{PC: 1, Addr: i * 64}, true
		}), 10000)
	}
	flat := cpu.NewSystem(tinyConfig(1), policy.NewLRU(), []trace.Stream{seqStream()}).Run()[0]
	cfg := tinyConfig(1)
	cfg.DRAM = &memory.Config{Banks: 4, RowBytes: 8 << 10, RowHitLatency: 60, RowMissLatency: 250}
	sysD := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{seqStream()})
	dram := sysD.Run()[0]
	if dram.Cycles >= flat.Cycles {
		t.Fatalf("row-hit-friendly stream not cheaper: %d vs %d", dram.Cycles, flat.Cycles)
	}
	if sysD.DRAM() == nil || sysD.DRAM().RowHitRate() < 0.9 {
		t.Fatalf("row hit rate = %v", sysD.DRAM().RowHitRate())
	}
}

func TestDRAMNilByDefault(t *testing.T) {
	sys := cpu.NewSystem(tinyConfig(1), policy.NewLRU(),
		[]trace.Stream{trace.NewSliceStream([]trace.Access{{Addr: 0}})})
	if sys.DRAM() != nil {
		t.Fatal("DRAM enabled by default")
	}
}

func TestWarmupExcludesColdStart(t *testing.T) {
	// A loop that fits the cache: cold pass misses, warm passes hit. With
	// warm-up covering the first pass, the recorded IPC is all-hits.
	mk := func() trace.Stream {
		i := uint64(0)
		return trace.NewLimitStream(trace.FuncStream(func() (trace.Access, bool) {
			i++
			return trace.Access{PC: 1, Addr: (i % 8) * 64}, true
		}), 1000)
	}
	cold := cpu.NewSystem(tinyConfig(1), policy.NewLRU(), []trace.Stream{mk()}).Run()[0]
	cfg := tinyConfig(1)
	cfg.WarmupInstr = 100
	warm := cpu.NewSystem(cfg, policy.NewLRU(), []trace.Stream{mk()}).Run()[0]
	if warm.L1Misses != 0 {
		t.Fatalf("post-warmup L1 misses = %d", warm.L1Misses)
	}
	if cold.L1Misses == 0 {
		t.Fatal("cold run should miss")
	}
	if warm.IPC() <= cold.IPC() {
		t.Fatalf("warm IPC %v <= cold IPC %v", warm.IPC(), cold.IPC())
	}
	if warm.Instructions != cold.Instructions-100 {
		t.Fatalf("warm instructions = %d", warm.Instructions)
	}
}

func TestWarmupOffByDefault(t *testing.T) {
	st := trace.NewSliceStream([]trace.Access{{PC: 1, Addr: 0}, {PC: 1, Addr: 0}})
	r := cpu.NewSystem(tinyConfig(1), policy.NewLRU(), []trace.Stream{st}).Run()[0]
	if r.Instructions != 2 || r.L1Misses != 1 {
		t.Fatalf("result = %+v", r)
	}
}
