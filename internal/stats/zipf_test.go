package stats

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// formulaZipf is the closed-form rejection-inversion sampler: six
// transcendental calls per draw, nothing tabulated. The table-driven
// Zipf must reproduce it draw for draw.
type formulaZipf struct {
	rng                     *RNG
	n                       uint64
	s, oneMinusS            float64
	hIntegralX1, hIntegralN float64
}

func newFormulaZipf(rng *RNG, n uint64, s float64) *formulaZipf {
	if s == 1 {
		s = 1.0001
	}
	z := &formulaZipf{rng: rng, n: n, s: s, oneMinusS: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	return z
}

func (z *formulaZipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return refExpm1Over(z.oneMinusS*logX) * logX
}

func (z *formulaZipf) h(x float64) float64 {
	return math.Exp(-z.s * math.Log(x))
}

func (z *formulaZipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(refLog1pOver(t) * x)
}

// rank is the rank draw u inverts to.
func (z *formulaZipf) rank(u float64) uint64 {
	k := uint64(z.hIntegralInverse(u) + 0.5)
	if k < 1 {
		k = 1
	} else if k > z.n {
		k = z.n
	}
	return k
}

func (z *formulaZipf) Next() uint64 {
	for {
		u := z.hIntegralN + z.rng.Float64()*(z.hIntegralX1-z.hIntegralN)
		k := z.rank(u)
		kf := float64(k)
		if u >= z.hIntegral(kf+0.5)-z.h(kf) {
			return k - 1
		}
	}
}

func refLog1pOver(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

func refExpm1Over(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}

// modelZipfPairs are the (n, s) pairs the workload models sample:
// sphinx-like, omnetpp-like, twolf-like and vpr-like.
var modelZipfPairs = []struct {
	n uint64
	s float64
}{{4096, 0.6}, {24576, 0.9}, {3072, 1.1}, {1536, 0.9}}

// zipfDiffDraws is the differential test's draw count per pair.
const zipfDiffDraws = 10_000_000

func TestZipfMatchesFormula(t *testing.T) {
	cases := []struct {
		n     uint64
		s     float64
		draws int
	}{
		{1, 0.9, 100_000},   // one rank: always 0
		{2, 0.9, 100_000},   // one boundary
		{2, 1.1, 100_000},   // one boundary, s > 1
		{100, 1, 1_000_000}, // s == 1 maps to 1.0001
		{24576, 1, 1_000_000},
	}
	for _, p := range modelZipfPairs {
		cases = append(cases, struct {
			n     uint64
			s     float64
			draws int
		}{p.n, p.s, zipfDiffDraws})
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("n=%d,s=%g", c.n, c.s), func(t *testing.T) {
			t.Parallel()
			seed := uint64(1000 + i)
			got, want := NewZipf(NewRNG(seed), c.n, c.s), newFormulaZipf(NewRNG(seed), c.n, c.s)
			for d := 0; d < c.draws; d++ {
				if g, w := got.Next(), want.Next(); g != w {
					t.Fatalf("draw %d: table sampler %d, formula %d", d, g, w)
				}
			}
		})
	}
}

// TestZipfTableMatchesFormula checks every rank's acceptance threshold
// of every model pair against the closed form, including the ranks a
// random draw almost never reaches.
func TestZipfTableMatchesFormula(t *testing.T) {
	pairs := append([]struct {
		n uint64
		s float64
	}{{1, 0.9}, {2, 0.9}, {2, 1.1}, {100, 1}}, modelZipfPairs...)
	for _, p := range pairs {
		tab := NewZipf(NewRNG(1), p.n, p.s).t
		ref := newFormulaZipf(nil, p.n, p.s)
		for k := uint64(1); k <= p.n; k++ {
			kf := float64(k)
			if got, want := tab.accept[k], ref.hIntegral(kf+0.5)-ref.h(kf); got != want {
				t.Fatalf("n=%d s=%g: rank %d accepts at %v, formula at %v", p.n, p.s, k, got, want)
			}
		}
	}
}

// TestZipfTableBuiltOnceConcurrently races two first uses of one fresh
// (n, s): both samplers must share one table and draw what the formula
// draws.
func TestZipfTableBuiltOnceConcurrently(t *testing.T) {
	const s, draws = 0.77, 100_000
	// The first n with no table yet, so every run races a first use.
	n := uint64(5003)
	for {
		if _, built := zipfTables.Load(zipfKey{n, s}); !built {
			break
		}
		n++
	}
	var zs [2]*Zipf
	var out [2][]uint64
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			zs[i] = NewZipf(NewRNG(7), n, s)
			for d := 0; d < draws; d++ {
				out[i] = append(out[i], zs[i].Next())
			}
		}()
	}
	wg.Wait()
	if zs[0].t != zs[1].t {
		t.Fatal("two tables built for one (n, s)")
	}
	ref := newFormulaZipf(NewRNG(7), n, s)
	for d := 0; d < draws; d++ {
		w := ref.Next()
		if out[0][d] != w || out[1][d] != w {
			t.Fatalf("draw %d: samplers %d and %d, formula %d", d, out[0][d], out[1][d], w)
		}
	}
}
