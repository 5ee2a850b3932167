package workload

import (
	"nucache/internal/stats"
	"nucache/internal/trace"
)

// The benchmark models. Sizes are chosen against the default 1 MB 16-way
// LLC (16384 lines, 1024 sets): "hot" regions are per-PC working sets
// whose re-use distance sits just beyond baseline LRU's reach when
// combined with the program's own polluting scans — the DelinquentPC →
// Next-Use structure NUcache exploits. Streaming and thrashing models
// provide the cases where retention must NOT engage, and cache-friendly
// models the cases where the LLC barely matters.
//
// All models register themselves at package init; see All().

// --- LLC-sensitive models (hot region + polluting scan) ---

// artLike models art's scan over the neural-net weight matrix (big,
// streaming) against repeatedly re-read winner tables (hot).
var artLike = register(Benchmark{
	Name:        "art-like",
	Class:       ClassSensitive,
	Description: "512KB hot tables re-read every round under a 1.25MB weight scan",
	build: func() trace.Stream {
		hot := regionAt(0, 512<<10)
		weights := regionAt(1, 1280<<10)
		hotA, hotB := siteAt(0, 2), siteAt(1, 2)
		scanS := siteAt(2, 1)
		accS := siteAt(3, 3)
		return newRoundStream(func(e *emitter) {
			half := hot.lines / 2
			e.scan(hotA, hot, 0, half)
			e.scan(scanS, weights, 0, weights.lines/2)
			e.scan(hotB, hot, half, half)
			e.scan(scanS, weights, weights.lines/2, weights.lines/2)
			// Small accumulator writes (L1-resident).
			for i := uint64(0); i < 64; i++ {
				e.store(accS, 0x100000+(i%32)*lineBytes)
			}
		})
	},
})

// ammpLike models ammp's molecular dynamics: per-atom force tables with
// strong round-to-round reuse, polluted by neighbor-list rebuild scans.
var ammpLike = register(Benchmark{
	Name:        "ammp-like",
	Class:       ClassSensitive,
	Description: "384KB force tables (3 PCs) re-read under sliding 768KB neighbor-list rebuilds",
	build: func() trace.Stream {
		hot := regionAt(0, 384<<10)
		nbr := regionAt(1, 8<<20) // rebuilt lists slide through a large arena
		sites := []site{siteAt(0, 3), siteAt(1, 3), siteAt(2, 3)}
		scanS := siteAt(3, 1)
		scratchS := siteAt(4, 4)
		scratch := regionAt(2, 16<<10)
		const scanLines = (768 << 10) / lineBytes
		var window uint64
		return newRoundStream(func(e *emitter) {
			third := hot.lines / 3
			for p, s := range sites {
				e.scan(s, hot, uint64(p)*third, third)
			}
			e.scan(scanS, nbr, window, scanLines)
			window = (window + scanLines) % nbr.lines
			e.scan(scratchS, scratch, 0, scratch.lines)
		})
	},
})

// sphinxLike models sphinx3's acoustic scoring: a skewed read-only model
// table against streaming feature frames (fresh addresses, never reused).
var sphinxLike = register(Benchmark{
	Name:        "sphinx-like",
	Class:       ClassSensitive,
	Description: "256KB zipf-hot model table under an endless feature stream",
	seeded: func(rng stats.RNG) trace.Stream {
		model := regionAt(0, 256<<10)
		feat := regionAt(1, 512<<20) // effectively endless
		modelS1, modelS2 := siteAt(0, 3), siteAt(1, 3)
		featS := siteAt(2, 2)
		z := stats.NewZipf(rng.Split(), model.lines, 0.6)
		var featPos uint64
		return newRoundStream(func(e *emitter) {
			for i := 0; i < 3072; i++ {
				e.load(modelS1, model.addr(z.Next()))
				if i%2 == 0 {
					e.load(modelS2, model.addr(z.Next()))
				}
				e.load(featS, feat.addr(featPos))
				featPos++
			}
		})
	},
})

// omnetppLike models omnetpp's event-heap churn: mildly skewed reuse over
// a heap larger than the LLC plus a small hot event ring.
var omnetppLike = register(Benchmark{
	Name:        "omnetpp-like",
	Class:       ClassSensitive,
	Description: "zipf reuse over a 1.5MB heap plus a 128KB event ring",
	seeded: func(rng stats.RNG) trace.Stream {
		heap := regionAt(0, 1536<<10)
		ring := regionAt(1, 128<<10)
		heapS1, heapS2 := siteAt(0, 4), siteAt(1, 4)
		ringS := siteAt(2, 3)
		z := stats.NewZipf(rng.Split(), heap.lines, 0.9)
		var pos uint64
		return newRoundStream(func(e *emitter) {
			for i := 0; i < 4096; i++ {
				e.load(heapS1, heap.addr(z.Next()))
				e.store(heapS2, heap.addr(z.Next()))
				e.load(ringS, ring.addr(pos))
				pos++
			}
		})
	},
})

// --- Mixed / phased models ---

// soplexLike models simplex pricing: blocks of the constraint matrix are
// re-scanned a few times before moving on, plus sparse column gathers.
var soplexLike = register(Benchmark{
	Name:        "soplex-like",
	Class:       ClassMixed,
	Description: "8x256KB blocks each scanned 4x, with random gathers in 2MB",
	seeded: func(rng stats.RNG) trace.Stream {
		matrix := regionAt(0, 2048<<10)
		blockS := siteAt(0, 2)
		gatherS := siteAt(1, 3)
		const blockLines = (256 << 10) / lineBytes
		var block uint64
		rng.Uint64() // skipped: the gathers start at the second draw (TestStreamsPinned)
		return newRoundStream(func(e *emitter) {
			start := (block % 8) * blockLines
			for pass := 0; pass < 4; pass++ {
				e.scan(blockS, matrix, start, blockLines)
				for i := 0; i < 256; i++ {
					e.load(gatherS, matrix.addr(rng.Uint64n(matrix.lines)))
				}
			}
			block++
		})
	},
})

// bzip2Like models block compression: one 640KB block is read repeatedly
// (sorting passes) before the window slides.
var bzip2Like = register(Benchmark{
	Name:        "bzip2-like",
	Class:       ClassMixed,
	Description: "640KB sliding block, 6 sorting passes each, then advance",
	build: func() trace.Stream {
		data := regionAt(0, 8<<20)
		passS := siteAt(0, 4)
		writeS := siteAt(1, 5)
		var window uint64
		const blockLines = (640 << 10) / lineBytes
		return newRoundStream(func(e *emitter) {
			for pass := 0; pass < 6; pass++ {
				e.scan(passS, data, window, blockLines)
			}
			e.scanStore(writeS, data, window, blockLines/4)
			window = (window + blockLines/2) % data.lines
		})
	},
})

// gccLike models compiler phases: long stretches over small IR working
// sets punctuated by whole-unit passes.
var gccLike = register(Benchmark{
	Name:        "gcc-like",
	Class:       ClassMixed,
	Description: "20 rounds over 128KB IR, then one 1.5MB whole-unit pass",
	build: func() trace.Stream {
		ir := regionAt(0, 128<<10)
		unit := regionAt(1, 1536<<10)
		irS1, irS2 := siteAt(0, 4), siteAt(1, 5)
		passS := siteAt(2, 2)
		var round uint64
		return newRoundStream(func(e *emitter) {
			if round%21 == 20 {
				e.scan(passS, unit, 0, unit.lines)
			} else {
				e.scan(irS1, ir, 0, ir.lines)
				e.scanStore(irS2, ir, 0, ir.lines/8)
			}
			round++
		})
	},
})

// --- Thrashing / pointer models ---

// mcfLike models mcf's network simplex: pointer chasing over nodes far
// larger than the LLC plus arc-array sweeps. High MPKI, little to save.
var mcfLike = register(Benchmark{
	Name:        "mcf-like",
	Class:       ClassThrashing,
	Description: "pointer chase over 2MB of nodes plus 1MB arc sweeps",
	seeded: func(rng stats.RNG) trace.Stream {
		nodes := regionAt(0, 2<<20)
		arcs := regionAt(1, 1<<20)
		chaseS := siteAt(0, 2)
		arcS := siteAt(1, 2)
		next := permCycle(rng.Split(), int(nodes.lines))
		pos := uint32(0)
		var arcPos uint64
		return newRoundStream(func(e *emitter) {
			for i := 0; i < 2048; i++ {
				e.load(chaseS, nodes.addr(uint64(pos)))
				pos = next[pos]
				if i%4 == 0 {
					e.load(arcS, arcs.addr(arcPos))
					arcPos++
				}
			}
		})
	},
})

// libquantumLike models libquantum: cyclic passes over a state vector
// twice the LLC — the canonical LRU-thrashing pattern.
var libquantumLike = register(Benchmark{
	Name:        "libquantum-like",
	Class:       ClassThrashing,
	Description: "cyclic read-modify-write sweep over a 2MB state vector",
	build: func() trace.Stream {
		state := regionAt(0, 2<<20)
		loadS := siteAt(0, 1)
		storeS := siteAt(1, 1)
		return newRoundStream(func(e *emitter) {
			e.scanRMW(loadS, storeS, state, 0, state.lines)
		})
	},
})

// --- Streaming models ---

// swimLike models swim's grid sweeps: three large arrays streamed in
// lockstep, reuse only at distances far beyond any cache.
var swimLike = register(Benchmark{
	Name:        "swim-like",
	Class:       ClassStreaming,
	Description: "three 8MB arrays streamed in lockstep",
	build: func() trace.Stream {
		u := regionAt(0, 8<<20)
		v := regionAt(1, 8<<20)
		p := regionAt(2, 8<<20)
		uS, vS, pS := siteAt(0, 1), siteAt(1, 1), siteAt(2, 2)
		var pos uint64
		return newRoundStream(func(e *emitter) {
			for i := 0; i < 4096; i++ {
				e.load(uS, u.addr(pos))
				e.load(vS, v.addr(pos))
				e.store(pS, p.addr(pos))
				pos++
			}
		})
	},
})

// milcLike models milc's lattice QCD sweeps: strided streaming stores.
var milcLike = register(Benchmark{
	Name:        "milc-like",
	Class:       ClassStreaming,
	Description: "4MB lattice streamed with stride-2 read-modify-write",
	build: func() trace.Stream {
		lattice := regionAt(0, 4<<20)
		loadS := siteAt(0, 2)
		storeS := siteAt(1, 2)
		var pos uint64
		return newRoundStream(func(e *emitter) {
			for i := 0; i < 4096; i++ {
				e.load(loadS, lattice.addr(pos))
				e.store(storeS, lattice.addr(pos))
				pos += 2
			}
		})
	},
})

// --- Cache-friendly models ---

// twolfLike models twolf's placement loops: skewed reuse over a working
// set that fits the LLC with room to spare.
var twolfLike = register(Benchmark{
	Name:        "twolf-like",
	Class:       ClassFriendly,
	Description: "192KB zipf working set, comfortably LLC-resident",
	seeded: func(rng stats.RNG) trace.Stream {
		cells := regionAt(0, 192<<10)
		s1, s2 := siteAt(0, 5), siteAt(1, 5)
		netS := siteAt(2, 4)
		z := stats.NewZipf(rng.Split(), cells.lines, 1.1)
		var pos uint64
		return newRoundStream(func(e *emitter) {
			for i := 0; i < 2048; i++ {
				e.load(s1, cells.addr(z.Next()))
				e.store(s2, cells.addr(z.Next()))
				if i%4 == 0 {
					e.load(netS, cells.addr(pos))
					pos++
				}
			}
		})
	},
})

// vprLike models vpr's routing: a small graph working set, mostly
// L1/LLC-resident with light pressure.
var vprLike = register(Benchmark{
	Name:        "vpr-like",
	Class:       ClassFriendly,
	Description: "96KB routing structures with high locality",
	seeded: func(rng stats.RNG) trace.Stream {
		rr := regionAt(0, 96<<10)
		s1, s2 := siteAt(0, 6), siteAt(1, 7)
		z := stats.NewZipf(rng.Split(), rr.lines, 0.9)
		return newRoundStream(func(e *emitter) {
			for i := 0; i < 2048; i++ {
				e.load(s1, rr.addr(z.Next()))
				if i%3 == 0 {
					e.store(s2, rr.addr(z.Next()))
				}
			}
		})
	},
})

// hmmerLike models hmmer's profile scoring: tiny tables, compute-bound.
var hmmerLike = register(Benchmark{
	Name:        "hmmer-like",
	Class:       ClassFriendly,
	Description: "48KB score tables, compute-bound (large gaps)",
	build: func() trace.Stream {
		tables := regionAt(0, 48<<10)
		s1, s2 := siteAt(0, 12), siteAt(1, 12)
		var pos uint64
		return newRoundStream(func(e *emitter) {
			for i := uint64(0); i < 2048; i++ {
				e.load(s1, tables.addr(pos+i))
				if i%2 == 0 {
					e.store(s2, tables.addr(pos+i/2))
				}
			}
			pos += 7
		})
	},
})

// facerecLike models facerec's recognition loop: a hot eigenface gallery
// re-read for every probe image, which itself streams through memory.
var facerecLike = register(Benchmark{
	Name:        "facerec-like",
	Class:       ClassSensitive,
	Description: "320KB eigenface gallery re-read per probe under a fresh image stream",
	build: func() trace.Stream {
		gallery := regionAt(0, 320<<10)
		probes := regionAt(1, 512<<20) // effectively endless
		galS1, galS2 := siteAt(0, 2), siteAt(1, 3)
		probeS := siteAt(2, 1)
		var probePos uint64
		return newRoundStream(func(e *emitter) {
			half := gallery.lines / 2
			e.scan(galS1, gallery, 0, half)
			e.scan(probeS, probes, probePos, 2048)
			probePos += 2048
			e.scan(galS2, gallery, half, half)
			e.scan(probeS, probes, probePos, 2048)
			probePos += 2048
		})
	},
})

// equakeLike models equake's sparse solve: a hot matrix structure reused
// every timestep against sliding wavefield sweeps.
var equakeLike = register(Benchmark{
	Name:        "equake-like",
	Class:       ClassSensitive,
	Description: "448KB sparse-structure tables reused per timestep under sliding wavefield sweeps",
	build: func() trace.Stream {
		structure := regionAt(0, 448<<10)
		wave := regionAt(1, 16<<20)
		colS, valS := siteAt(0, 2), siteAt(1, 2)
		waveS := siteAt(2, 1)
		const sweepLines = (640 << 10) / lineBytes
		var window uint64
		return newRoundStream(func(e *emitter) {
			half := structure.lines / 2
			e.scan(colS, structure, 0, half)
			e.scan(valS, structure, half, half)
			e.scan(waveS, wave, window, sweepLines)
			window = (window + sweepLines) % wave.lines
		})
	},
})
