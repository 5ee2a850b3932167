package mrc

import (
	"fmt"
	"math/bits"

	"nucache/internal/core"
	"nucache/internal/cpu"
	"nucache/internal/policy"
	"nucache/internal/trace"
)

// BuildFromTapes runs the profiling pass: one walk over each core's
// recorded tape through a full-associativity ATD (the exact per-way hit
// curves) and the NUcache next-use monitor (the DeliWays candidate
// profile). The walk sees the policy-independent access stream, so one
// pass answers what-ifs for every policy the model covers.
func BuildFromTapes(cfg cpu.Config, mixName string, members []string, seed uint64, tapes []*cpu.Tape) (*Profile, error) {
	if len(tapes) != cfg.Cores || len(members) != cfg.Cores {
		return nil, fmt.Errorf("mrc: %d tapes / %d members for %d cores", len(tapes), len(members), cfg.Cores)
	}
	ways := cfg.LLC.Ways
	sets := cfg.LLC.Sets()
	monCfg := core.DefaultConfig(ways)
	memLat := cfg.MemLatency
	if cfg.DRAM != nil {
		// Banked DRAM: charge the row hit/miss average per miss. Hits
		// stay exact; cycles become a bounded approximation.
		memLat = (cfg.DRAM.RowHitLatency + cfg.DRAM.RowMissLatency) / 2
	}
	p := &Profile{
		Version:    Version,
		Mix:        mixName,
		Members:    append([]string(nil), members...),
		Cores:      cfg.Cores,
		Ways:       ways,
		Sets:       sets,
		LineBytes:  cfg.LLC.LineBytes,
		Budget:     cfg.InstrBudget,
		Seed:       seed,
		Warmup:     cfg.WarmupInstr,
		L2:         cfg.L2.SizeBytes > 0,
		Prefetch:   cfg.PrefetchDegree,
		DRAM:       cfg.DRAM != nil,
		LLCLatency: cfg.LLCLatency,
		MemLatency: memLat,
		HistLinear: core.HistLinear,
		HistLog2:   core.HistLog2,
		PerCore:    make([]CoreProfile, cfg.Cores),
	}
	for i, t := range tapes {
		w := &coreWalker{
			umon:       policy.NewUMON(ways, 0),
			mon:        core.NewMonitor(monCfg),
			offsetBits: uint(bits.TrailingZeros(uint(cfg.LLC.LineBytes))),
			setMask:    uint64(sets - 1),
		}
		if err := cpu.WalkTape(cfg, i, t, w); err != nil {
			return nil, fmt.Errorf("mrc: profile core %d: %w", i, err)
		}
		if !w.haveRecord {
			return nil, fmt.Errorf("mrc: profile core %d: tape ended unrecorded", i)
		}
		cp, err := w.coreProfile(i, members[i], monCfg)
		if err != nil {
			return nil, err
		}
		p.PerCore[i] = cp
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("mrc: built profile invalid: %w", err)
	}
	return p, nil
}

// windowSnap is one statistics snapshot of a walking core, taken at the
// same crossing points the simulator snapshots at.
type windowSnap struct {
	cross          trace.Crossing
	posHits        []uint64
	demandPosHits  []uint64
	accesses       uint64
	demandAccesses uint64
}

// coreWalker shadows one core's LLC-bound stream with the profiling
// monitors. It implements cpu.TapeVisitor.
type coreWalker struct {
	umon       *policy.UMON
	mon        *core.Monitor
	offsetBits uint
	setMask    uint64

	accesses       uint64
	demandAccesses uint64

	haveWarm, haveRecord bool
	warm, rec            windowSnap
}

// Access implements cpu.TapeVisitor, mirroring the hook order the live
// policy sees: the monitor observes the access (victim-table reuse
// check) before the ATD lookup; an ATD miss is the policy's Victim
// call; an ATD stack exit is a demotion.
func (w *coreWalker) Access(addr, pc uint64, _ trace.Kind, demand bool) {
	tag := addr >> w.offsetBits
	setIdx := int(tag & w.setMask)
	w.mon.OnAccess(setIdx, tag)
	pos, evTag, evPC, evicted := w.umon.AccessProfiled(setIdx, tag, pc, demand)
	if pos < 0 {
		w.mon.OnMiss(setIdx, pc)
	}
	if evicted {
		w.mon.OnDemotion(setIdx, evTag, evPC)
	}
	w.accesses++
	if demand {
		w.demandAccesses++
	}
}

// Crossing implements cpu.TapeVisitor: snapshot at warmup, stop at the
// record (or first exhaust) crossing — the profiler never needs events
// past the measurement window, so it never extends the tape beyond
// what a replay run would.
func (w *coreWalker) Crossing(cr trace.Crossing) bool {
	switch cr.Kind {
	case trace.CrossWarmup:
		w.warm = w.snap(cr)
		w.haveWarm = true
		return true
	case trace.CrossRecord:
		w.rec = w.snap(cr)
		w.haveRecord = true
		return false
	case trace.CrossExhaust:
		if !w.haveRecord {
			w.rec = w.snap(cr)
			w.haveRecord = true
		}
		return false
	}
	return true
}

func (w *coreWalker) snap(cr trace.Crossing) windowSnap {
	return windowSnap{
		cross:          cr,
		posHits:        w.umon.Hits(),
		demandPosHits:  w.umon.DemandHits(),
		accesses:       w.accesses,
		demandAccesses: w.demandAccesses,
	}
}

// coreProfile assembles the measurement window (record minus warmup)
// and the monitor's candidate profile into a CoreProfile.
func (w *coreWalker) coreProfile(index int, bench string, monCfg core.Config) (CoreProfile, error) {
	rec, warm := w.rec, w.warm
	if !w.haveWarm {
		warm = windowSnap{
			posHits:       make([]uint64, len(rec.posHits)),
			demandPosHits: make([]uint64, len(rec.demandPosHits)),
		}
	}
	cp := CoreProfile{
		Core:           index,
		Benchmark:      bench,
		Instructions:   rec.cross.Instr - warm.cross.Instr,
		PICycles:       rec.cross.PEnd - warm.cross.PEnd,
		MemAccesses:    rec.cross.Mem - warm.cross.Mem,
		L1Hits:         rec.cross.L1Hits - warm.cross.L1Hits,
		L1Misses:       rec.cross.L1Misses - warm.cross.L1Misses,
		Accesses:       rec.accesses - warm.accesses,
		DemandAccesses: rec.demandAccesses - warm.demandAccesses,
		PosHits:        make([]uint64, len(rec.posHits)),
		DemandPosHits:  make([]uint64, len(rec.demandPosHits)),
		SampledMisses:  w.mon.SampledMisses(),
	}
	for i := range cp.PosHits {
		cp.PosHits[i] = rec.posHits[i] - warm.posHits[i]
		cp.DemandPosHits[i] = rec.demandPosHits[i] - warm.demandPosHits[i]
	}
	for _, cand := range w.mon.TopCandidates(monCfg.Candidates) {
		cp.PCs = append(cp.PCs, PCProfile{
			PC:            cand.PC,
			Misses:        cand.Misses,
			Demotions:     cand.Demotions,
			NextUseCounts: cand.NextUse.Counts(),
			NextUseSum:    cand.NextUse.Sum(),
		})
	}
	return cp, nil
}
