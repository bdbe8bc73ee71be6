// Package dp is a self-contained differential privacy library implementing
// Definition 1.2 and Theorem 1.3 of the paper: the Laplace mechanism for
// counting, its integer-valued geometric analogue, noisy histograms, the
// exponential mechanism, and composition bounds.
//
// Every mechanism takes an explicit *rand.Rand for reproducibility and an
// epsilon > 0; mechanisms panic on non-positive epsilon (a programmer
// error, not a data condition).
package dp

import (
	"fmt"
	"math"
	"math/rand"

	"singlingout/internal/dist"
)

// validEps panics unless eps is a usable privacy-loss parameter.
func validEps(eps float64) {
	if !(eps > 0) || math.IsInf(eps, 1) {
		panic(fmt.Sprintf("dp: epsilon must be positive and finite, got %v", eps))
	}
}

// LaplaceCount releases a count with Laplace(1/eps) noise — the mechanism
// of Theorem 1.3. Counts have sensitivity 1, so the release is eps-DP.
func LaplaceCount(rng *rand.Rand, trueCount int64, eps float64) float64 {
	validEps(eps)
	return float64(trueCount) + dist.Laplace(rng, 1/eps)
}

// LaplaceSum releases a bounded-magnitude sum: each record contributes a
// value in [lo, hi], so the sensitivity is hi-lo and the noise scale is
// (hi-lo)/eps.
func LaplaceSum(rng *rand.Rand, trueSum, lo, hi, eps float64) float64 {
	validEps(eps)
	if hi < lo {
		panic("dp: LaplaceSum needs hi >= lo")
	}
	sens := hi - lo
	if sens == 0 {
		return trueSum
	}
	return trueSum + dist.Laplace(rng, sens/eps)
}

// GeometricCount releases an integer count with two-sided geometric noise;
// the discrete analogue of the Laplace mechanism, also eps-DP for
// sensitivity-1 counts.
func GeometricCount(rng *rand.Rand, trueCount int64, eps float64) int64 {
	validEps(eps)
	return trueCount + dist.TwoSidedGeometric(rng, eps)
}

// Histogram releases a vector of disjoint-bucket counts with Laplace(1/eps)
// noise per bucket. Because a single record changes exactly one bucket by
// one, the whole histogram release is eps-DP.
func Histogram(rng *rand.Rand, counts []int64, eps float64) []float64 {
	validEps(eps)
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = float64(c) + dist.Laplace(rng, 1/eps)
	}
	return out
}

// Exponential runs the exponential mechanism: it selects index i with
// probability proportional to exp(eps·score[i]/(2·sensitivity)), an eps-DP
// selection when scores have the stated sensitivity.
func Exponential(rng *rand.Rand, scores []float64, eps, sensitivity float64) int {
	validEps(eps)
	if len(scores) == 0 {
		panic("dp: Exponential needs at least one candidate")
	}
	if sensitivity <= 0 {
		panic("dp: Exponential needs positive sensitivity")
	}
	// Shift by the max score for numerical stability.
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	weights := make([]float64, len(scores))
	total := 0.0
	for i, s := range scores {
		w := math.Exp(eps * (s - maxS) / (2 * sensitivity))
		weights[i] = w
		total += w
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(scores) - 1
}

// AdvancedComposition returns the total epsilon of k adaptive eps-DP
// releases under (eps', delta)-advanced composition:
//
//	eps' = eps·sqrt(2k·ln(1/delta)) + k·eps·(e^eps - 1)
//
// (Dwork–Rothblum–Vadhan). For small eps and moderate k it is far below
// the basic k·eps bound.
func AdvancedComposition(eps float64, k int, delta float64) float64 {
	validEps(eps)
	if k <= 0 {
		return 0
	}
	if !(delta > 0 && delta < 1) {
		panic("dp: AdvancedComposition needs delta in (0,1)")
	}
	kf := float64(k)
	return eps*math.Sqrt(2*kf*math.Log(1/delta)) + kf*eps*(math.Expm1(eps))
}

// EmpiricalEpsilon estimates the realized privacy loss of a real-valued
// mechanism between two neighbouring inputs by histogramming trials of
// each and taking the max log-ratio over well-populated bins. It is a
// diagnostic (a lower bound on the true epsilon), used by the E3 harness
// to check the Laplace mechanism against its advertised guarantee.
func EmpiricalEpsilon(rng *rand.Rand, mech func(*rand.Rand) float64, mechNeighbor func(*rand.Rand) float64, trials int, binWidth float64) float64 {
	if trials <= 0 || binWidth <= 0 {
		panic("dp: EmpiricalEpsilon needs positive trials and bin width")
	}
	h0 := map[int64]int{}
	h1 := map[int64]int{}
	for i := 0; i < trials; i++ {
		h0[int64(math.Floor(mech(rng)/binWidth))]++
		h1[int64(math.Floor(mechNeighbor(rng)/binWidth))]++
	}
	// Ignore sparsely populated bins: the log-ratio noise of a bin pair
	// is ~sqrt(2/minCount), so scaling the floor with the trial budget
	// keeps the estimator's noise floor well below typical epsilons.
	minCount := trials / 200
	if minCount < 100 {
		minCount = 100
	}
	worst := 0.0
	for bin, c0 := range h0 {
		c1 := h1[bin]
		if c0 < minCount || c1 < minCount {
			continue
		}
		r := math.Abs(math.Log(float64(c0) / float64(c1)))
		if r > worst {
			worst = r
		}
	}
	return worst
}

// GaussianCount releases a count with Gaussian noise calibrated for
// (eps, delta)-differential privacy using the analytic calibration
// sigma = sqrt(2·ln(1.25/delta)) / eps (valid for eps <= 1). Gaussian
// noise composes more gracefully than Laplace over many releases, at the
// price of the delta failure probability.
func GaussianCount(rng *rand.Rand, trueCount int64, eps, delta float64) float64 {
	validEps(eps)
	if eps > 1 {
		panic(fmt.Sprintf("dp: GaussianCount calibration requires eps <= 1, got %v", eps))
	}
	if !(delta > 0 && delta < 1) {
		panic(fmt.Sprintf("dp: GaussianCount needs delta in (0,1), got %v", delta))
	}
	sigma := math.Sqrt(2*math.Log(1.25/delta)) / eps
	return float64(trueCount) + rng.NormFloat64()*sigma
}
