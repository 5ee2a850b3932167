package stats

import (
	"fmt"
	"strings"
)

// Histogram is a fixed-layout histogram with linear buckets up to
// linearMax and power-of-two buckets above, plus an overflow bucket.
// The layout is chosen to be hardware-plausible for next-use distance
// tracking: short distances need fine resolution, long ones only need
// order-of-magnitude resolution.
type Histogram struct {
	linearMax int      // values < linearMax go into buckets [0, linearMax)
	log2Max   int      // number of log2 buckets after the linear region
	counts    []uint64 // len = linearMax + log2Max + 1 (overflow)
	total     uint64
	sum       uint64 // running sum of recorded values (for Mean)
}

// NewHistogram returns a histogram with linearMax linear buckets and
// log2Buckets power-of-two buckets above the linear region.
func NewHistogram(linearMax, log2Buckets int) *Histogram {
	if linearMax < 1 {
		linearMax = 1
	}
	if log2Buckets < 0 {
		log2Buckets = 0
	}
	return &Histogram{
		linearMax: linearMax,
		log2Max:   log2Buckets,
		counts:    make([]uint64, linearMax+log2Buckets+1),
	}
}

// bucketOf maps a value to its bucket index.
func (h *Histogram) bucketOf(v uint64) int {
	if v < uint64(h.linearMax) {
		return int(v)
	}
	// Power-of-two buckets: [linearMax, 2*linearMax), [2*linearMax, 4*linearMax) ...
	idx := 0
	bound := uint64(h.linearMax)
	for idx < h.log2Max {
		bound <<= 1
		if v < bound {
			return h.linearMax + idx
		}
		idx++
	}
	return h.linearMax + h.log2Max // overflow
}

// lowerBound returns the smallest value mapped to bucket i.
func (h *Histogram) lowerBound(i int) uint64 {
	if i < h.linearMax {
		return uint64(i)
	}
	return uint64(h.linearMax) << uint(i-h.linearMax)
}

// upperBound returns the exclusive upper bound of bucket i
// (the overflow bucket reports ^uint64(0)).
func (h *Histogram) upperBound(i int) uint64 {
	if i < h.linearMax {
		return uint64(i) + 1
	}
	if i >= h.linearMax+h.log2Max {
		return ^uint64(0)
	}
	return uint64(h.linearMax) << uint(i-h.linearMax+1)
}

// Record adds one observation of value v.
func (h *Histogram) Record(v uint64) {
	h.counts[h.bucketOf(v)]++
	h.total++
	h.sum += v
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() uint64 { return h.total }

// Mean returns the arithmetic mean of recorded values (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// CountAtMost returns the number of observations whose *bucket upper bound*
// is <= v; i.e. observations that are provably <= v given bucketing. This
// conservative reading is what the NUcache cost-benefit analysis wants: it
// never over-promises hits.
func (h *Histogram) CountAtMost(v uint64) uint64 {
	var n uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if h.upperBound(i)-1 <= v { // upperBound is exclusive and >= 1
			n += c
		}
	}
	return n
}

// Quantile returns an approximate q-quantile (0<=q<=1) using bucket lower
// bounds. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(q * float64(h.total))
	if target >= h.total {
		target = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum > target {
			return h.lowerBound(i)
		}
	}
	return h.lowerBound(len(h.counts) - 1)
}

// Counts returns a copy of the raw bucket counts (linear buckets, then
// log2 buckets, then the overflow bucket).
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Sum returns the running sum of recorded values. Together with Counts
// it lets a histogram round-trip through serialization without losing
// Mean(), which consumers use for ordering.
func (h *Histogram) Sum() uint64 { return h.sum }

// HistogramFromCounts reconstructs a histogram from serialized bucket
// counts and value sum (the inverse of Counts/Sum). The counts slice
// must have exactly linearMax+log2Buckets+1 entries.
func HistogramFromCounts(linearMax, log2Buckets int, counts []uint64, sum uint64) (*Histogram, error) {
	h := NewHistogram(linearMax, log2Buckets)
	if len(counts) != len(h.counts) {
		return nil, fmt.Errorf("stats: histogram counts length %d, want %d for layout %d/%d",
			len(counts), len(h.counts), h.linearMax, h.log2Max)
	}
	var total uint64
	for i, c := range counts {
		h.counts[i] = c
		next := total + c
		if next < total {
			return nil, fmt.Errorf("stats: histogram counts overflow uint64")
		}
		total = next
	}
	h.total = total
	h.sum = sum
	return h, nil
}

// Buckets returns a copy of (lowerBound, count) pairs for non-empty buckets.
func (h *Histogram) Buckets() []BucketCount {
	out := make([]BucketCount, 0, 8)
	for i, c := range h.counts {
		if c > 0 {
			out = append(out, BucketCount{Low: h.lowerBound(i), High: h.upperBound(i), Count: c})
		}
	}
	return out
}

// BucketCount is one non-empty histogram bucket: values in [Low, High).
type BucketCount struct {
	Low, High uint64
	Count     uint64
}

// String renders a compact sparkline-style view, useful in logs and tests.
func (h *Histogram) String() string {
	if h.total == 0 {
		return "hist{empty}"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "hist{n=%d mean=%.1f", h.total, h.Mean())
	for _, bc := range h.Buckets() {
		if bc.High == ^uint64(0) {
			fmt.Fprintf(&b, " [%d,inf):%d", bc.Low, bc.Count)
		} else {
			fmt.Fprintf(&b, " [%d,%d):%d", bc.Low, bc.High, bc.Count)
		}
	}
	b.WriteString("}")
	return b.String()
}
