// Fixture for the determinism analyzer: package recon is in the
// deterministic set, so ambient entropy is flagged while injected
// randomness is not.
package recon

import (
	crand "crypto/rand" // want `crypto/rand in deterministic package recon`
	"math/rand"
	"time"
)

// Bad draws from every forbidden ambient source.
func Bad() (int, float64) {
	start := time.Now()          // want `time\.Now in deterministic package recon`
	elapsed := time.Since(start) // want `time\.Since in deterministic package recon`
	_ = elapsed
	v := rand.Intn(6)                  // want `global rand\.Intn in deterministic package recon`
	f := rand.Float64()                // want `global rand\.Float64 in deterministic package recon`
	rand.Shuffle(3, func(i, j int) {}) // want `global rand\.Shuffle in deterministic package recon`
	var buf [8]byte
	_, _ = crand.Read(buf[:])
	return v, f
}

// Good derives every stream from an injected seed: the constructors are
// allowed, only the process-global top-level functions are not.
func Good(seed int64, index int) float64 {
	rng := rand.New(rand.NewSource(seed ^ int64(index)))
	return rng.Float64()
}

// Suppressed shows the escape hatch: a labelled wall-time measurement.
func Suppressed() time.Time {
	//lint:ignore determinism labelled timing output, not part of the reconstruction result
	return time.Now()
}

// noise stands in for a helper that draws from the stream it is handed.
func noise(rng *rand.Rand, v int) int { return v + rng.Intn(3) - 1 }

// BadMapDraws draws while ranging over a map: the iteration order, and
// so which key receives which draw, changes from run to run.
func BadMapDraws(rng *rand.Rand, cells map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range cells {
		out[k] = v + rng.Intn(3) // want `RNG draw inside a range over a map in deterministic package recon`
		out[k] += noise(rng, v)  // want `RNG draw inside a range over a map in deterministic package recon`
		for range cells {
			_ = rng.Float64() // want `RNG draw inside a range over a map in deterministic package recon`
		}
	}
	return out
}

// GoodMapDraws ranges over the map only to collect its keys, then draws
// in sorted key order; ranging over a map without drawing, or drawing
// over a slice, is fine too.
func GoodMapDraws(rng *rand.Rand, cells map[string]int, xs []int) map[string]int {
	keys := make([]string, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sortStrings(keys)
	out := map[string]int{}
	for _, k := range keys {
		out[k] = noise(rng, cells[k])
	}
	for _, x := range xs {
		_ = rng.Intn(x + 1)
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// SuppressedMapDraw shows the escape hatch for an order-insensitive draw.
func SuppressedMapDraw(rng *rand.Rand, cells map[string]int) int {
	total := 0
	for range cells {
		//lint:ignore determinism every iteration draws the same distribution and only the sum is kept
		total += rng.Intn(2)
	}
	return total
}
