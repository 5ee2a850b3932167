package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: %d != %d", i, got, want)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	var or uint64
	for i := 0; i < 16; i++ {
		or |= r.Uint64()
	}
	if or == 0 {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64ApproximatelyUniform(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRNG(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) hit fraction %v", frac)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(23)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlapped %d/100", same)
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	r := NewRNG(29)
	z := NewZipf(r, 1000, 1.2)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf sample out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 100 heavily under s=1.2.
	if counts[0] < 10*counts[100] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[100]=%d", counts[0], counts[100])
	}
	// Monotone-ish head.
	if counts[0] < counts[1] || counts[1] < counts[10] {
		t.Fatalf("zipf head not decreasing: %d %d %d", counts[0], counts[1], counts[10])
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(31)
	for _, fn := range []func(){
		func() { NewZipf(r, 0, 1.2) },
		func() { NewZipf(r, 10, 0) },
		func() { NewZipf(r, 10, math.NaN()) },
		func() { NewZipf(r, maxZipfN+1, 1.2) },
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

func TestZipfSEqualOneSupported(t *testing.T) {
	r := NewRNG(37)
	z := NewZipf(r, 100, 1)
	for i := 0; i < 1000; i++ {
		if v := z.Next(); v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestMeans(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Fatalf("Mean = %v", got)
	}
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Fatalf("GeoMean non-positive = %v", got)
	}
}
