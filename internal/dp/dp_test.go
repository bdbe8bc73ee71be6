package dp

import (
	"math"
	"math/rand"
	"testing"
)

func TestLaplaceCountAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	eps := 1.0
	const trials = 50000
	var sumErr, sumAbsErr float64
	for i := 0; i < trials; i++ {
		out := LaplaceCount(rng, 100, eps)
		sumErr += out - 100
		sumAbsErr += math.Abs(out - 100)
	}
	if m := sumErr / trials; math.Abs(m) > 0.05 {
		t.Errorf("bias = %v, want ~0", m)
	}
	if m := sumAbsErr / trials; math.Abs(m-1/eps) > 0.05 {
		t.Errorf("mean abs error = %v, want ~%v", m, 1/eps)
	}
}

func TestLaplaceCountEpsilonBound(t *testing.T) {
	// Empirical privacy loss of the Laplace mechanism must not exceed eps.
	rng := rand.New(rand.NewSource(2))
	eps := 0.8
	got := EmpiricalEpsilon(rng,
		func(r *rand.Rand) float64 { return LaplaceCount(r, 50, eps) },
		func(r *rand.Rand) float64 { return LaplaceCount(r, 51, eps) },
		200000, 0.5)
	if got > eps*1.2 {
		t.Errorf("empirical epsilon %v exceeds advertised %v", got, eps)
	}
	if got < eps*0.3 {
		t.Errorf("empirical epsilon %v implausibly small (harness broken?)", got)
	}
}

func TestPanicsOnBadEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []func(){
		func() { LaplaceCount(rng, 1, 0) },
		func() { LaplaceCount(rng, 1, math.Inf(1)) },
		func() { GeometricCount(rng, 1, -1) },
		func() { Histogram(rng, []int64{1}, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestLaplaceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Zero sensitivity passes through exactly.
	if got := LaplaceSum(rng, 42, 5, 5, 1); got != 42 {
		t.Errorf("zero-sensitivity sum = %v", got)
	}
	const trials = 50000
	var sumAbs float64
	for i := 0; i < trials; i++ {
		sumAbs += math.Abs(LaplaceSum(rng, 0, 0, 10, 2) - 0)
	}
	// scale = 10/2 = 5 → E|noise| = 5.
	if m := sumAbs / trials; math.Abs(m-5) > 0.2 {
		t.Errorf("mean abs noise = %v, want ~5", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("hi < lo should panic")
		}
	}()
	LaplaceSum(rng, 0, 1, 0, 1)
}

func TestGeometricCountIsInteger(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sum float64
	const trials = 50000
	for i := 0; i < trials; i++ {
		sum += float64(GeometricCount(rng, 20, 1.0))
	}
	if m := sum / trials; math.Abs(m-20) > 0.1 {
		t.Errorf("mean = %v, want ~20", m)
	}
}

func TestHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := []int64{10, 0, 500}
	out := Histogram(rng, counts, 2.0)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	for i, c := range counts {
		if math.Abs(out[i]-float64(c)) > 10 {
			t.Errorf("bucket %d: %v too far from %d", i, out[i], c)
		}
	}
}

func TestExponentialPrefersHighScores(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	scores := []float64{0, 0, 10, 0}
	counts := make([]int, 4)
	for i := 0; i < 10000; i++ {
		counts[Exponential(rng, scores, 1.0, 1.0)]++
	}
	if counts[2] < 9000 {
		t.Errorf("high-score candidate chosen %d/10000 times", counts[2])
	}
	// With tiny epsilon the choice approaches uniform.
	counts = make([]int, 4)
	for i := 0; i < 40000; i++ {
		counts[Exponential(rng, scores, 0.001, 1.0)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("eps→0 candidate %d chosen %d/40000 times, want ~10000", i, c)
		}
	}
}

func TestExponentialPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i, f := range []func(){
		func() { Exponential(rng, nil, 1, 1) },
		func() { Exponential(rng, []float64{1}, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAdvancedCompositionBeatsBasic(t *testing.T) {
	eps, k, delta := 0.1, 100, 1e-6
	adv := AdvancedComposition(eps, k, delta)
	basic := eps * float64(k)
	if adv >= basic {
		t.Errorf("advanced %v should beat basic %v for small eps", adv, basic)
	}
	if adv <= 0 {
		t.Errorf("advanced composition = %v, want positive", adv)
	}
	if AdvancedComposition(eps, 0, delta) != 0 {
		t.Error("k=0 should cost 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad delta should panic")
		}
	}()
	AdvancedComposition(eps, 1, 0)
}

func TestEmpiricalEpsilonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EmpiricalEpsilon(rand.New(rand.NewSource(1)), nil, nil, 0, 1)
}

func TestGaussianCount(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	eps, delta := 0.5, 1e-5
	sigma := math.Sqrt(2*math.Log(1.25/delta)) / eps
	const trials = 100000
	var sum, sumSq float64
	for i := 0; i < trials; i++ {
		d := GaussianCount(rng, 100, eps, delta) - 100
		sum += d
		sumSq += d * d
	}
	mean := sum / trials
	sd := math.Sqrt(sumSq/trials - mean*mean)
	if math.Abs(mean) > 0.2 {
		t.Errorf("bias = %v", mean)
	}
	if math.Abs(sd-sigma)/sigma > 0.03 {
		t.Errorf("sd = %v, want ~%v", sd, sigma)
	}
	for i, f := range []func(){
		func() { GaussianCount(rng, 1, 2, delta) }, // eps > 1
		func() { GaussianCount(rng, 1, 0.5, 0) },   // delta = 0
		func() { GaussianCount(rng, 1, 0.5, 1) },   // delta = 1
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestGaussianVsLaplaceSingleRelease(t *testing.T) {
	// For a single release at matched eps, pure-eps Laplace noise is more
	// accurate than (eps, delta)-Gaussian — the delta relaxation only pays
	// off under composition. Check the mean-absolute-error ordering.
	rng := rand.New(rand.NewSource(21))
	eps, delta := 1.0, 1e-6
	const trials = 100000
	var absL, absG float64
	for i := 0; i < trials; i++ {
		absL += math.Abs(LaplaceCount(rng, 0, eps))
		absG += math.Abs(GaussianCount(rng, 0, eps, delta))
	}
	if absL >= absG {
		t.Errorf("single-release Laplace should beat Gaussian: L=%v G=%v", absL/trials, absG/trials)
	}
}
