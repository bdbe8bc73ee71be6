package recon_test

import (
	"context"
	"fmt"
	"math/rand"

	"singlingout/internal/query"
	"singlingout/internal/recon"
	"singlingout/internal/synth"
)

// ExampleDecoder mounts the polynomial-time Dinur–Nissim attack against
// a mechanism answering subset-sum queries with bounded noise.
func ExampleDecoder() {
	rng := rand.New(rand.NewSource(1))
	n := 48
	secret := synth.BinaryDataset(rng, n, 0.5)

	// The "protected" interface: answers within ±2 of the truth.
	oracle := &query.BoundedNoise{X: secret, Alpha: 2, Rng: rng}

	queries := query.RandomSubsets(rng, n, 4*n)
	dec, err := recon.NewDecoder(n, queries, recon.L1Slack)
	if err != nil {
		panic(err)
	}
	answers, err := oracle.Answer(context.Background(), queries)
	if err != nil {
		panic(err)
	}
	reconstructed, _, err := dec.Decode(context.Background(), answers)
	if err != nil {
		panic(err)
	}
	errFrac := recon.HammingError(secret, reconstructed)
	fmt.Printf("blatantly non-private (error < 5%%): %v\n", errFrac < 0.05)
	// Output: blatantly non-private (error < 5%): true
}
