// Package stats provides the statistical substrate shared by the simulator:
// deterministic pseudo-random number generation, histograms, and summary
// statistics. Everything here is allocation-conscious because it sits on the
// simulator's per-access hot path.
package stats

import "sync"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via SplitMix64). It is deliberately not
// crypto-grade; the simulator only needs reproducible streams.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from a single 64-bit seed.
func (r *RNG) Seed(seed uint64) {
	// SplitMix64 to spread the seed across the full state.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Split returns a new generator deterministically derived from this one.
// Useful for giving each core or benchmark an independent stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Zipf samples from a Zipf-like distribution over [0, n) with exponent s
// by rejection-inversion (Hörmann & Derflinger, ACM TOMACS 1996). It is
// deterministic given the RNG state.
//
// Each rank's acceptance threshold depends only on (n, s), so it lives
// in a process-wide table built on first use; a draw then costs one
// inversion (two transcendental calls) and a table read instead of
// six calls. The table holds the formula's own values, so the sampler
// stays bit-identical to the closed form.
type Zipf struct {
	rng *RNG
	t   *zipfTable
}

// maxZipfN bounds NewZipf's n: a table costs 8 bytes per rank.
const maxZipfN = 1 << 22

// zipfTable holds a sampler's (n, s)-only state. Built once, read-only
// afterwards, and shared by every sampler with the same (n, s).
type zipfTable struct {
	once sync.Once

	n                       uint64
	s, oneMinusS            float64
	hIntegralX1, hIntegralN float64
	span                    float64 // hIntegralX1 - hIntegralN

	// accept[k] is hIntegral(k+0.5) - h(k) for k in [1, n]: a draw that
	// inverts to rank k is accepted at or above it.
	accept []float64
}

type zipfKey struct {
	n uint64
	s float64
}

var zipfTables sync.Map // zipfKey -> *zipfTable

// NewZipf returns a sampler over {0, ..., n-1} with exponent s > 0, s != 1
// handled exactly and s == 1 approximated by s = 1.0001. n must be at
// most 1<<22.
func NewZipf(rng *RNG, n uint64, s float64) *Zipf {
	if n == 0 {
		panic("stats: NewZipf with zero n")
	}
	if n > maxZipfN {
		panic("stats: NewZipf with n above 1<<22")
	}
	if !(s > 0) {
		panic("stats: NewZipf with non-positive s")
	}
	if s == 1 {
		s = 1.0001
	}
	return &Zipf{rng: rng, t: zipfTableFor(n, s)}
}

// zipfTableFor returns the shared table of (n, s), building it on first
// use.
func zipfTableFor(n uint64, s float64) *zipfTable {
	v, _ := zipfTables.LoadOrStore(zipfKey{n, s}, new(zipfTable))
	t := v.(*zipfTable)
	t.once.Do(func() { t.build(n, s) })
	return t
}

func (t *zipfTable) build(n uint64, s float64) {
	t.n, t.s, t.oneMinusS = n, s, 1-s
	t.hIntegralX1 = t.hIntegral(1.5) - 1
	t.hIntegralN = t.hIntegral(float64(n) + 0.5)
	t.span = t.hIntegralX1 - t.hIntegralN
	t.accept = make([]float64, n+1)
	for k := uint64(1); k <= n; k++ {
		kf := float64(k)
		t.accept[k] = t.hIntegral(kf+0.5) - t.h(kf)
	}
}

func (t *zipfTable) hIntegral(x float64) float64 {
	logX := logf(x)
	return helper2(t.oneMinusS*logX) * logX
}

func (t *zipfTable) h(x float64) float64 {
	return expf(-t.s * logf(x))
}

func (t *zipfTable) hIntegralInverse(x float64) float64 {
	tt := x * t.oneMinusS
	if tt < -1 {
		tt = -1
	}
	return expf(helper1(tt) * x)
}

// Next returns the next sample in [0, n).
func (z *Zipf) Next() uint64 {
	t := z.t
	for {
		u := t.hIntegralN + z.rng.Float64()*t.span
		k := uint64(t.hIntegralInverse(u) + 0.5)
		if k < 1 {
			k = 1
		} else if k > t.n {
			k = t.n
		}
		if u >= t.accept[k] {
			return k - 1
		}
	}
}

// helper1 computes log1p(x)/x stably for small |x|.
func helper1(x float64) float64 {
	if absf(x) > 1e-8 {
		return log1pf(x) / x
	}
	return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
}

// helper2 computes expm1(x)/x stably for small |x|.
func helper2(x float64) float64 {
	if absf(x) > 1e-8 {
		return expm1f(x) / x
	}
	return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
}
