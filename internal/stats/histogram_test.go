package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramLinearRegion(t *testing.T) {
	h := NewHistogram(8, 4)
	for v := uint64(0); v < 8; v++ {
		h.Record(v)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
	for v := uint64(0); v < 8; v++ {
		if got := h.CountAtMost(v); got != v+1 {
			t.Fatalf("CountAtMost(%d) = %d, want %d", v, got, v+1)
		}
	}
}

func TestHistogramLogRegionBounds(t *testing.T) {
	h := NewHistogram(8, 3)
	// Buckets: [0..7] linear, [8,16), [16,32), [32,64), [64, inf).
	cases := []struct {
		v      uint64
		bucket int
	}{
		{7, 7}, {8, 8}, {15, 8}, {16, 9}, {31, 9}, {32, 10}, {63, 10}, {64, 11}, {1 << 40, 11},
	}
	for _, c := range cases {
		if got := h.bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
}

func TestHistogramBoundsRoundTrip(t *testing.T) {
	h := NewHistogram(16, 8)
	for i := 0; i < len(h.counts); i++ {
		lo := h.lowerBound(i)
		if got := h.bucketOf(lo); got != i {
			t.Fatalf("bucketOf(lowerBound(%d)=%d) = %d", i, lo, got)
		}
		hi := h.upperBound(i)
		if hi != ^uint64(0) {
			if got := h.bucketOf(hi); got != i+1 {
				t.Fatalf("bucketOf(upperBound(%d)=%d) = %d, want %d", i, hi, got, i+1)
			}
		}
	}
}

func TestHistogramCountAtMostConservative(t *testing.T) {
	// Property: CountAtMost(v) never exceeds the true count of samples <= v.
	h := NewHistogram(8, 8) // covers values up to 8<<8 = 2048 without overflow
	var samples []uint64
	r := NewRNG(5)
	for i := 0; i < 2000; i++ {
		v := r.Uint64n(300)
		samples = append(samples, v)
		h.Record(v)
	}
	for _, v := range []uint64{0, 1, 7, 8, 20, 64, 100, 299, 1000} {
		truth := uint64(0)
		for _, s := range samples {
			if s <= v {
				truth++
			}
		}
		got := h.CountAtMost(v)
		if got > truth {
			t.Fatalf("CountAtMost(%d) = %d exceeds truth %d", v, got, truth)
		}
	}
	// And at the max value it must count everything.
	if got := h.CountAtMost(1 << 62); got != h.Total() {
		t.Fatalf("CountAtMost(max) = %d, want %d", got, h.Total())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(4, 2)
	h.Record(2)
	h.Record(4)
	h.Record(6)
	h.Record(6)
	if got := h.Mean(); got != 4.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(64, 4)
	for v := uint64(0); v < 100; v++ {
		h.Record(v)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %d", q)
	}
	med := h.Quantile(0.5)
	if med < 40 || med > 64 {
		t.Fatalf("median = %d", med)
	}
	if q := h.Quantile(1); q < 64 {
		t.Fatalf("q1 = %d", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram(4, 2)
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
}

func TestHistogramTotalInvariant(t *testing.T) {
	// Property: total equals sum of bucket counts for arbitrary inputs.
	if err := quick.Check(func(vals []uint16) bool {
		h := NewHistogram(8, 6)
		for _, v := range vals {
			h.Record(uint64(v))
		}
		var sum uint64
		for _, bc := range h.Buckets() {
			sum += bc.Count
		}
		return sum == h.Total() && h.Total() == uint64(len(vals))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(4, 2)
	if got := h.String(); got != "hist{empty}" {
		t.Fatalf("empty string = %q", got)
	}
	h.Record(1)
	h.Record(100)
	s := h.String()
	if !strings.Contains(s, "n=2") || !strings.Contains(s, "inf") {
		t.Fatalf("unexpected string: %q", s)
	}
}

func TestHistogramOverflowBuckets(t *testing.T) {
	h := NewHistogram(4, 2)
	for i := 0; i < 3; i++ {
		h.Record(1 << 40) // far past the last bucket: overflow
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d", h.Total())
	}
	// Overflow values are never counted as "at most" anything finite.
	if got := h.CountAtMost(1 << 39); got != 0 {
		t.Fatalf("CountAtMost = %d", got)
	}
}

func TestHistogramBucketsCoverage(t *testing.T) {
	h := NewHistogram(2, 1) // buckets: [0,1) [1,2) [2,4) [4,inf)
	for _, v := range []uint64{0, 1, 2, 3, 4, 100} {
		h.Record(v)
	}
	bs := h.Buckets()
	if len(bs) != 4 {
		t.Fatalf("buckets = %+v", bs)
	}
	if bs[2].Low != 2 || bs[2].High != 4 || bs[2].Count != 2 {
		t.Fatalf("log bucket = %+v", bs[2])
	}
	if bs[3].High != ^uint64(0) || bs[3].Count != 2 {
		t.Fatalf("overflow bucket = %+v", bs[3])
	}
}
