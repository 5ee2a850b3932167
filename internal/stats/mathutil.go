package stats

import "math"

// Thin wrappers so the hot-path files avoid importing math everywhere and
// the Zipf sampler reads close to its reference formulation.

func logf(x float64) float64   { return math.Log(x) }
func expf(x float64) float64   { return math.Exp(x) }
func absf(x float64) float64   { return math.Abs(x) }
func log1pf(x float64) float64 { return math.Log1p(x) }
func expm1f(x float64) float64 { return math.Expm1(x) }

// GeoMean returns the geometric mean of xs, ignoring non-positive entries.
// It returns 0 if no positive entries exist.
func GeoMean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
