package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"singlingout/internal/census"
	"singlingout/internal/dataset"
	"singlingout/internal/kanon"
	"singlingout/internal/reident"
	"singlingout/internal/sat"
	"singlingout/internal/synth"
)

// E11CensusReconstruction reproduces the census narrative end to end:
// publish block tables, SAT-reconstruct the microdata, then re-identify
// against registries of varying coverage.
func E11CensusReconstruction(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 600
	if quick {
		n = 250
	}
	pop, err := synth.Population(rng, synth.PopulationConfig{N: n, ZIPs: 4, BlocksPerZIP: 20})
	if err != nil {
		return nil, err
	}
	cfg := census.DefaultConfig()
	results, sum, err := census.Reconstruct(pop, cfg, 500000, Workers())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E11",
		Title: fmt.Sprintf("census-style reconstruction + re-identification, %d persons, %d blocks",
			n, sum.Blocks),
		Header: []string{"quantity", "measured", "paper (2010 census)"},
		Notes: []string{
			"paper: exact reconstruction for 46% of population; 71% with age ±1; 17% re-identified via commercial data",
			"our tables are far coarser than SF1, and blocks synthetic — the shape (large exact fraction, sizable confirmed re-identification) is the target",
		},
	}
	t.AddRow("blocks solved", fmt.Sprintf("%d/%d", sum.Solved, sum.Blocks), "-")
	t.AddRow("blocks with unique solution", fmt.Sprintf("%d/%d", sum.Unique, sum.Blocks), "-")
	t.AddRow("records reconstructed exactly", pct(sum.ExactFraction), "46% (71% with age±1)")
	for _, b := range census.SummaryBySize(results) {
		if b.Blocks == 0 {
			continue
		}
		label := fmt.Sprintf("  … in blocks of %d-%d residents", b.Lo, b.Hi)
		if b.Hi > 1000 {
			label = fmt.Sprintf("  … in blocks of %d+ residents", b.Lo)
		}
		t.AddRow(label, pct(b.ExactFraction()), "small blocks most exposed")
	}
	for _, coverage := range []float64{0.2, 0.5, 0.8} {
		reg, err := synth.Registry(rng, pop, coverage)
		if err != nil {
			return nil, err
		}
		link := census.Linkage(pop, reg, results, cfg)
		t.AddRow(fmt.Sprintf("re-identified (putative), registry coverage %.0f%%", 100*coverage),
			pct(link.PutativeRate()), "-")
		t.AddRow(fmt.Sprintf("re-identified (confirmed), registry coverage %.0f%%", 100*coverage),
			pct(link.ConfirmedRate()), "17% confirmed")
	}
	return t, nil
}

// E12QuasiIDUniqueness reproduces Sweeney's uniqueness analysis across
// quasi-identifier sets and population scales.
func E12QuasiIDUniqueness(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{2000, 10000, 50000}
	if quick {
		sizes = []int{2000, 10000}
	}
	t := &Table{
		ID:     "E12",
		Title:  "fraction of population unique under quasi-identifier combinations",
		Header: []string{"population", "QI set", "unique", "paper"},
		Notes:  []string{"Sweeney: (ZIP, birth date, sex) unique for the vast majority (87%) of the US population"},
	}
	for _, n := range sizes {
		pop, err := synth.Population(rng, synth.PopulationConfig{N: n, ZIPs: 1 + n/1000, BlocksPerZIP: 10})
		if err != nil {
			return nil, err
		}
		zipI := pop.Schema.MustIndex(synth.AttrZIP)
		bdI := pop.Schema.MustIndex(synth.AttrBirthDate)
		ageI := pop.Schema.MustIndex(synth.AttrAge)
		sexI := pop.Schema.MustIndex(synth.AttrSex)
		for _, qi := range []struct {
			name string
			idx  []int
			ref  string
		}{
			{"(ZIP, birth date, sex)", []int{zipI, bdI, sexI}, "87%"},
			{"(ZIP, age, sex)", []int{zipI, ageI, sexI}, "far lower"},
			{"(ZIP, sex)", []int{zipI, sexI}, "≈0%"},
		} {
			rep := reident.Uniqueness(pop, qi.idx)
			t.AddRow(fmt.Sprintf("%d", n), qi.name, pct(rep.UniqueFraction()), qi.ref)
		}
	}
	return t, nil
}

// E14KAnonComposition reproduces the composition failure: two releases,
// each k-anonymous, intersect to candidate sets of size 1.
func E14KAnonComposition(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 2000
	if quick {
		n = 800
	}
	pop, err := synth.Population(rng, synth.PopulationConfig{N: n, ZIPs: 8, BlocksPerZIP: 6})
	if err != nil {
		return nil, err
	}
	zipI := pop.Schema.MustIndex(synth.AttrZIP)
	bdI := pop.Schema.MustIndex(synth.AttrBirthDate)
	ageI := pop.Schema.MustIndex(synth.AttrAge)
	sexI := pop.Schema.MustIndex(synth.AttrSex)
	blockI := pop.Schema.MustIndex(synth.AttrBlock)
	t := &Table{
		ID:     "E14",
		Title:  fmt.Sprintf("intersection attack on two k-anonymous releases, n=%d", n),
		Header: []string{"k", "release-A classes", "release-B classes", "singled out (|candidates|=1)", "avg candidates"},
		Notes:  []string{"§1.1: k-anonymity is not closed under composition ([12],[23])"},
	}
	for _, k := range []int{2, 5, 10, 25} {
		relA, err := kanon.Mondrian(pop, []int{bdI, sexI}, k, kanon.MondrianOptions{})
		if err != nil {
			return nil, err
		}
		relB, err := kanon.Mondrian(pop, []int{zipI, ageI, blockI}, k, kanon.MondrianOptions{})
		if err != nil {
			return nil, err
		}
		cands := kanon.IntersectionAttack(relA, relB, pop)
		singled, total := 0, 0
		for _, c := range cands {
			if c == 1 {
				singled++
			}
			total += c
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", len(relA.Classes)),
			fmt.Sprintf("%d", len(relB.Classes)),
			pct(float64(singled)/float64(n)),
			f3(float64(total)/float64(n)))
	}
	return t, nil
}

// A04CardinalityEncoding is the SAT-encoding ablation: sequential counter
// vs pairwise at-most-one on census-style one-hot groups.
func A04CardinalityEncoding(ctx context.Context, seed int64, quick bool) (*Table, error) {
	groups := 200
	width := 60
	if quick {
		groups, width = 80, 40
	}
	t := &Table{
		ID:     "A04",
		Title:  fmt.Sprintf("at-most-one encoding ablation: %d one-hot groups of width %d", groups, width),
		Header: []string{"encoding", "clauses", "propagations"},
	}
	for _, enc := range []struct {
		name string
		add  func(s *sat.Solver, vars []int) error
	}{
		{"sequential counter", func(s *sat.Solver, vars []int) error { return s.AtMostK(vars, 1) }},
		{"pairwise", func(s *sat.Solver, vars []int) error { return s.AtMostOnePairwise(vars) }},
	} {
		s := sat.New()
		rng := rand.New(rand.NewSource(seed))
		for g := 0; g < groups; g++ {
			vars := make([]int, width)
			for i := range vars {
				vars[i] = s.NewVar()
			}
			if err := s.AddClause(vars...); err != nil {
				return nil, err
			}
			if err := enc.add(s, vars); err != nil {
				return nil, err
			}
			// Pin a random member to exercise propagation.
			if err := s.AddClause(vars[rng.Intn(width)]); err != nil {
				return nil, err
			}
		}
		if got := s.Solve(); got != sat.Sat {
			return nil, fmt.Errorf("experiments: A04 expected sat, got %v", got)
		}
		t.AddRow(enc.name, fmt.Sprintf("%d", s.NumClauses()), fmt.Sprintf("%d", s.Propagations))
	}
	return t, nil
}

// A06FullDomainSearch compares Datafly's greedy generalization against
// exhaustive lattice search at matched k (the NP-hardness workaround
// ablation).
func A06FullDomainSearch(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 3000
	if quick {
		n = 800
	}
	pop, err := synth.Population(rng, synth.PopulationConfig{N: n, ZIPs: 4, BlocksPerZIP: 2})
	if err != nil {
		return nil, err
	}
	zipI := pop.Schema.MustIndex(synth.AttrZIP)
	ageI := pop.Schema.MustIndex(synth.AttrAge)
	sexI := pop.Schema.MustIndex(synth.AttrSex)
	zipH, err := dataset.NewIntRangeHierarchy(10000, 10003, 2, 4)
	if err != nil {
		return nil, err
	}
	ageH, err := dataset.NewIntRangeHierarchy(0, 110, 5, 20, 111)
	if err != nil {
		return nil, err
	}
	sexH, err := dataset.NewIntRangeHierarchy(0, 1, 2)
	if err != nil {
		return nil, err
	}
	qi := []int{zipI, ageI, sexI}
	opts := kanon.FullDomainOptions{
		Hierarchies: map[int]dataset.Hierarchy{zipI: zipH, ageI: ageH, sexI: sexH},
		MaxSuppress: n / 20,
	}
	t := &Table{
		ID:     "A06",
		Title:  fmt.Sprintf("full-domain anonymizer ablation, n=%d, 24-node lattice", n),
		Header: []string{"k", "algorithm", "GenILoss", "suppressed", "classes"},
	}
	for _, k := range []int{10, 50} {
		greedy, _, err := kanon.FullDomain(pop, qi, k, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k), "Datafly greedy", f3(kanon.GenILoss(greedy)),
			fmt.Sprintf("%d", len(greedy.Suppressed)), fmt.Sprintf("%d", len(greedy.Classes)))
		optimal, _, _, err := kanon.OptimalFullDomain(pop, qi, k, opts, kanon.MinimizeGenILoss)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", k), "lattice optimal", f3(kanon.GenILoss(optimal)),
			fmt.Sprintf("%d", len(optimal.Suppressed)), fmt.Sprintf("%d", len(optimal.Classes)))
	}
	return t, nil
}

// E19CensusDefenses compares the disclosure-avoidance defenses of the
// census story: nothing, record swapping (the 2010 technique the attack
// defeated), and ε-DP table noise (the post-2020 remedy).
func E19CensusDefenses(ctx context.Context, seed int64, quick bool) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 500
	if quick {
		n = 250
	}
	pop, err := synth.Population(rng, synth.PopulationConfig{N: n, ZIPs: 4, BlocksPerZIP: 18})
	if err != nil {
		return nil, err
	}
	cfg := census.DefaultConfig()
	truth := census.TrueTuples(pop, cfg)
	reg, err := synth.Registry(rng, pop, 0.5)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E19",
		Title:  fmt.Sprintf("census disclosure-avoidance defenses vs the reconstruction attack, %d persons", n),
		Header: []string{"defense", "blocks solved", "records exact (vs truth)", "confirmed re-id (50% registry)"},
		Notes: []string{
			"swapping (2010's defense) keeps tables consistent, so reconstruction still succeeds — only the swapped geography protects anyone",
			"ε-DP noise makes most block tables jointly unsatisfiable: the attack has nothing to solve",
		},
	}
	run := func(name string, tables []census.BlockTables) error {
		results, sum, err := census.ReconstructTables(tables, truth, cfg, 300000, Workers())
		if err != nil {
			return err
		}
		link := census.Linkage(pop, reg, results, cfg)
		t.AddRow(name,
			fmt.Sprintf("%d/%d", sum.Solved, sum.Blocks),
			pct(sum.ExactFraction),
			pct(link.ConfirmedRate()))
		return nil
	}
	if err := run("none (raw tables)", census.Tabulate(pop, cfg)); err != nil {
		return nil, err
	}
	for _, rate := range []float64{0.1, 0.3} {
		swapped := census.SwapRecords(rng, pop, rate)
		if err := run(fmt.Sprintf("swapping %.0f%%", 100*rate), census.Tabulate(swapped, cfg)); err != nil {
			return nil, err
		}
	}
	for _, eps := range []float64{1, 0.5} {
		if err := run(fmt.Sprintf("ε=%g DP table noise", eps),
			census.NoisyTables(rng, census.Tabulate(pop, cfg), eps)); err != nil {
			return nil, err
		}
	}
	return t, nil
}
