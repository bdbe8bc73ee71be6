package census

import (
	"math/rand"
	"sort"

	"singlingout/internal/dataset"
	"singlingout/internal/dp"
	"singlingout/internal/synth"
)

// This file implements the two disclosure-avoidance defenses of the
// census story: record swapping — the technique actually used for the
// 2010 tables, which the reconstruction attack defeated — and
// differentially private table noise, the post-2020 remedy the paper's
// narrative leads to.

// SwapRecords returns a copy of the population in which a `rate` fraction
// of records have exchanged census blocks pairwise (the household-swapping
// model: demographics stay with the person, geography is swapped between
// matched pairs). Tabulations of the swapped data protect the swapped
// individuals' true locations while leaving the tables internally
// consistent — which is exactly why reconstruction still succeeds against
// them.
func SwapRecords(rng *rand.Rand, pop *dataset.Dataset, rate float64) *dataset.Dataset {
	out := pop.Clone()
	blockI := pop.Schema.MustIndex(synth.AttrBlock)
	// Choose the swap set and pair consecutive picks.
	var picks []int
	for i := range out.Rows {
		if rng.Float64() < rate {
			picks = append(picks, i)
		}
	}
	for j := 0; j+1 < len(picks); j += 2 {
		a, b := picks[j], picks[j+1]
		out.Rows[a][blockI], out.Rows[b][blockI] = out.Rows[b][blockI], out.Rows[a][blockI]
	}
	return out
}

// NoisyTables applies ε-DP two-sided geometric noise to every published
// cell of every block table (each record affects one cell per table, so a
// per-table epsilon of eps/3 would make the whole release eps-DP; we
// report the per-cell epsilon directly). Noised cells below zero are
// clamped away, and the block total is re-derived from the noised
// sex×age table, mirroring how a DP tabulation system would post-process.
func NoisyTables(rng *rand.Rand, tables []BlockTables, eps float64) []BlockTables {
	out := make([]BlockTables, len(tables))
	noise := func(cells map[[2]int]int) map[[2]int]int {
		// Draw in sorted cell order: map order is randomized per run, and
		// the same stream must land on the same cells every time.
		keys := make([][2]int, 0, len(cells))
		for k := range cells {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
		})
		res := map[[2]int]int{}
		for _, k := range keys {
			n := int(dp.GeometricCount(rng, int64(cells[k]), eps))
			if n > 0 {
				res[k] = n
			}
		}
		return res
	}
	for i, bt := range tables {
		nb := BlockTables{Block: bt.Block}
		nb.SexAge = noise(bt.SexAge)
		nb.RaceEt = noise(bt.RaceEt)
		nb.SexRc = noise(bt.SexRc)
		for _, v := range nb.SexAge {
			nb.Total += v
		}
		out[i] = nb
	}
	return out
}

// ReconstructTables runs the SAT attack against an arbitrary set of
// published tables (possibly swapped or noised), scoring exactness
// against the supplied ground truth. Blocks whose tables are jointly
// unsatisfiable count as unsolved rather than erroring. Blocks are solved
// concurrently on a pool of `workers` goroutines (<= 0 selects
// GOMAXPROCS); solving is deterministic per block, so results and summary
// are identical at any worker count.
func ReconstructTables(tables []BlockTables, truth map[int64][]Tuple, cfg Config, maxConflictsPerBlock int64, workers int) ([]BlockResult, Summary, error) {
	results, err := ReconstructAll(tables, cfg, maxConflictsPerBlock, workers)
	if err != nil {
		return nil, Summary{}, err
	}
	var sum Summary
	for i := range results {
		r := &results[i]
		r.Exact = MultisetIntersection(truth[r.Block], r.Tuples)
		sum.Blocks++
		sum.Persons += len(truth[r.Block])
		if r.Solved {
			sum.Solved++
			sum.ExactRecords += r.Exact
		}
		if r.Unique {
			sum.Unique++
		}
	}
	if sum.Persons > 0 {
		sum.ExactFraction = float64(sum.ExactRecords) / float64(sum.Persons)
	}
	mBlocks.Add(int64(sum.Blocks))
	mBlocksSolved.Add(int64(sum.Solved))
	mBlocksUnique.Add(int64(sum.Unique))
	mPersons.Add(int64(sum.Persons))
	mExactRecords.Add(int64(sum.ExactRecords))
	mExactFraction.Set(sum.ExactFraction)
	return results, sum, nil
}
