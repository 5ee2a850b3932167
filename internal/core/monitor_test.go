package core

import "testing"

func testConfig() Config {
	cfg, err := Config{
		Ways:        8,
		DeliWays:    3,
		Candidates:  8,
		EpochMisses: 1000,
		SampleShift: 0, // sample everything in unit tests
	}.withDefaults()
	if err != nil {
		t := err
		panic(t)
	}
	return cfg
}

func TestMonitorRecordsNextUseDistance(t *testing.T) {
	m := NewMonitor(testConfig())
	// A line (tag 7, pc 100) leaves the MainWays, then 3 misses elapse in
	// the set, then the line is re-accessed: distance 3.
	m.OnDemotion(0, 7, 100)
	m.OnMiss(0, 200)
	m.OnMiss(0, 200)
	m.OnMiss(0, 200)
	m.OnAccess(0, 7)
	p := m.lookupPC(100)
	if p == nil || p.NextUse.Total() != 1 {
		t.Fatal("next-use not recorded")
	}
	if got := p.NextUse.Mean(); got != 3 {
		t.Fatalf("distance = %v, want 3", got)
	}
	if m.Reuses != 1 {
		t.Fatalf("Reuses = %d", m.Reuses)
	}
}

func TestMonitorEntryRetiredAfterReuse(t *testing.T) {
	m := NewMonitor(testConfig())
	m.OnDemotion(0, 7, 100)
	m.OnAccess(0, 7)
	m.OnMiss(0, 1)
	m.OnAccess(0, 7) // second access: entry already retired
	if m.lookupPC(100).NextUse.Total() != 1 {
		t.Fatal("entry reused twice")
	}
}

func TestMonitorSampling(t *testing.T) {
	cfg := testConfig()
	cfg.SampleShift = 2 // sample sets 0, 4, 8...
	m := NewMonitor(cfg)
	m.OnMiss(1, 50) // unsampled set: counted for delinquency only
	m.OnMiss(4, 50)
	if m.SampledMisses() != 1 {
		t.Fatalf("sampled misses = %d", m.SampledMisses())
	}
	if m.lookupPC(50).Misses != 2 {
		t.Fatalf("pc misses = %d", m.lookupPC(50).Misses)
	}
	m.OnDemotion(1, 9, 50) // unsampled: ignored
	if m.lookupPC(50).Demotions != 0 {
		t.Fatal("unsampled demotion recorded")
	}
}

func TestMonitorVictimTableOverflow(t *testing.T) {
	m := NewMonitor(testConfig())
	for i := uint64(0); i < VictimTableCap+2; i++ {
		m.OnDemotion(0, 100+i, 1)
	}
	if m.TableOverflow != 2 {
		t.Fatalf("overflow = %d", m.TableOverflow)
	}
	// Oldest two dropped: accessing tag 101 finds nothing.
	m.OnAccess(0, 101)
	if m.Reuses != 0 {
		t.Fatal("dropped entry matched")
	}
	m.OnAccess(0, 100+VictimTableCap+1)
	if m.Reuses != 1 {
		t.Fatal("retained entry missed")
	}
}

func TestMonitorTopCandidates(t *testing.T) {
	m := NewMonitor(testConfig())
	for i := 0; i < 10; i++ {
		m.OnMiss(0, 1)
	}
	for i := 0; i < 5; i++ {
		m.OnMiss(0, 2)
	}
	m.OnMiss(0, 3)
	top := m.TopCandidates(2)
	if len(top) != 2 || top[0].PC != 1 || top[1].PC != 2 {
		t.Fatalf("top = %+v", top)
	}
	if m.TotalMisses() != 16 {
		t.Fatalf("total = %d", m.TotalMisses())
	}
}

func TestMonitorTopCandidatesDeterministicTie(t *testing.T) {
	m := NewMonitor(testConfig())
	m.OnMiss(0, 9)
	m.OnMiss(0, 4)
	top := m.TopCandidates(2)
	if top[0].PC != 4 || top[1].PC != 9 {
		t.Fatalf("tie-break not by PC: %d, %d", top[0].PC, top[1].PC)
	}
}

func TestMonitorEndEpochKeepsDistancesAcrossBoundary(t *testing.T) {
	m := NewMonitor(testConfig())
	m.OnDemotion(0, 7, 100)
	m.OnMiss(0, 1)
	m.EndEpoch()
	if m.SampledMisses() != 0 {
		t.Fatal("sampled misses not reset")
	}
	m.OnMiss(0, 1)
	m.OnAccess(0, 7) // distance spans the epoch boundary: 2 misses elapsed
	p := m.lookupPC(100)
	if p == nil || p.NextUse.Total() != 1 || p.NextUse.Mean() != 2 {
		t.Fatalf("cross-epoch distance not recorded: %+v", p)
	}
}
