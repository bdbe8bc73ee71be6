// Counterpart fixture: package webui is not in the deterministic set, so
// clock reads and global rand are out of the analyzer's scope here.
package webui

import (
	"math/rand"
	"time"
)

// Render may read the clock freely; only the attack/experiment packages
// carry the byte-identical-output guarantee.
func Render() (time.Time, int) {
	return time.Now(), rand.Intn(10)
}

// Jitter draws inside a map range; out of scope here as well.
func Jitter(rng *rand.Rand, cells map[string]int) {
	for k := range cells {
		cells[k] += rng.Intn(3)
	}
}
