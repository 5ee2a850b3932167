package policy

import (
	"testing"

	"nucache/internal/cache"
	"nucache/internal/trace"
)

// TestPIPPStreamingPath drives PIPP's streaming branches: core 1 streams
// through a one-set cache (every set is sampled) while core 0 loops over
// two lines, so the first epoch flags core 1 as streaming. Its next miss
// must then insert at the bottom of the priority list although its
// quota is larger, and its hits must promote with pPromStream.
func TestPIPPStreamingPath(t *testing.T) {
	const ways, epoch = 8, 4000
	p := NewPIPPWithEpoch(2, ways, 9, epoch)
	c := cache.New(cache.Config{
		Name: "strm", SizeBytes: ways * 64, Ways: ways, LineBytes: 64, Cores: 2,
	}, p)
	access := func(core int, addr uint64) {
		c.Access(&cache.Request{Addr: addr, PC: 0x400000 + uint64(core), Core: core, Kind: trace.Load})
	}
	stream := uint64(1 << 30)
	for i := 0; i < epoch/2; i++ {
		access(0, uint64(i%2)*64)
		access(1, stream)
		stream += 64
	}
	if p.Repartitions != 1 || p.strm[0] || !p.strm[1] {
		t.Fatalf("after one epoch: %d repartitions, streaming %v; want 1, [false true]", p.Repartitions, p.strm)
	}
	if p.alloc[1] <= 1 {
		t.Fatalf("alloc %v: core 1's quota already puts its fills at the bottom", p.alloc)
	}

	prio := &p.prio[0]
	way := prio.Back()
	access(1, stream)
	set := c.Set(0)
	if got := prio.Back(); got != way || set.Lines[way].Core != 1 {
		t.Fatalf("streaming fill: back of the list is way %d (core %d), want way %d of core 1",
			got, set.Lines[got].Core, way)
	}

	mirror := *p.rng
	promoted := 0
	const hits = 1000
	for i := 0; i < hits; i++ {
		before := prio.IndexOf(way)
		access(1, stream)
		want := before
		if mirror.Bool(pPromStream) && before > 0 {
			want--
		}
		if got := prio.IndexOf(way); got != want {
			t.Fatalf("hit %d: way at position %d, want %d", i, got, want)
		}
		if want < before {
			promoted++
		}
	}
	if promoted == 0 || promoted > ways-1 {
		t.Fatalf("%d promotions in %d streaming hits", promoted, hits)
	}
	if p.Repartitions != 1 {
		t.Fatalf("an epoch closed during the hit phase (%d repartitions)", p.Repartitions)
	}
}
