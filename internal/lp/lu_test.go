package lp

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"singlingout/internal/par"
)

// refLU is the reference factorization: the left-looking elimination
// that visits every earlier position for every column (O(m²) per
// factorization), with the column order from a comparison sort, and one
// slice per L and U column. factor must reproduce it bit for bit.
type refLU struct {
	rowOfPos, colOrder []int
	lRows, uPos        [][]int32
	lVals, uVals       [][]float64
	uDiag              []float64
	steps              int // columns factored (all m unless singular)
	fill               int // L entries in rows outside their column's own pattern
}

func refFactor(m int, column func(pos int) ([]int32, []float64)) (*refLU, bool) {
	f := &refLU{
		rowOfPos: make([]int, m), colOrder: make([]int, m),
		lRows: make([][]int32, m), lVals: make([][]float64, m),
		uPos: make([][]int32, m), uVals: make([][]float64, m),
		uDiag: make([]float64, m),
	}
	posOfRow := make([]int, m)
	for i := range posOfRow {
		posOfRow[i] = -1
	}
	type colRef struct{ pos, nnz int }
	refs := make([]colRef, m)
	for i := range refs {
		rows, _ := column(i)
		refs[i] = colRef{pos: i, nnz: len(rows)}
	}
	slices.SortFunc(refs, func(a, b colRef) int {
		return cmp.Or(cmp.Compare(a.nnz, b.nnz), cmp.Compare(a.pos, b.pos))
	})
	for k := range refs {
		f.colOrder[k] = refs[k].pos
	}
	work := make([]float64, m)
	inWork := make([]bool, m)
	own := make([]bool, m)
	for k := 0; k < m; k++ {
		rows, vals := column(f.colOrder[k])
		var touched []int32
		clear(work)
		clear(inWork)
		clear(own)
		for i, r := range rows {
			work[r] = vals[i]
			own[r] = true
			if !inWork[r] {
				inWork[r] = true
				touched = append(touched, r)
			}
		}
		for j := 0; j < k; j++ {
			t := work[f.rowOfPos[j]]
			if t == 0 {
				continue
			}
			f.uPos[k] = append(f.uPos[k], int32(j))
			f.uVals[k] = append(f.uVals[k], t)
			for i, r := range f.lRows[j] {
				work[r] -= f.lVals[j][i] * t
				if !inWork[r] {
					inWork[r] = true
					touched = append(touched, r)
				}
			}
		}
		pivRow, pivAbs := -1, luMinPivot
		for _, r := range touched {
			if posOfRow[r] < 0 {
				if a := math.Abs(work[r]); a > pivAbs {
					pivAbs, pivRow = a, int(r)
				}
			}
		}
		if pivRow < 0 {
			return f, false
		}
		f.uDiag[k] = work[pivRow]
		for _, r := range touched {
			if posOfRow[r] >= 0 || int(r) == pivRow || work[r] == 0 {
				continue
			}
			f.lRows[k] = append(f.lRows[k], r)
			f.lVals[k] = append(f.lVals[k], work[r]/work[pivRow])
			if !own[r] {
				f.fill++
			}
		}
		f.rowOfPos[k] = pivRow
		posOfRow[pivRow] = k
		f.steps++
	}
	return f, true
}

// sameFloats reports whether a and b hold the same float64 bit patterns.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// checkFactor factors the basis given by column with f and with the
// reference and requires identical results: the singularity verdict, the
// column order, and for every committed step its pivot row, diagonal, L
// column and U column. It returns the reference.
func checkFactor(t *testing.T, name string, f *luFactor, column func(pos int) ([]int32, []float64)) *refLU {
	t.Helper()
	want, wantOK := refFactor(f.m, column)
	if got := f.factor(column); got != wantOK {
		t.Fatalf("%s: factor ok = %v, reference %v", name, got, wantOK)
	}
	if !slices.Equal(f.colOrder, want.colOrder) {
		t.Fatalf("%s: column order %v, reference %v", name, f.colOrder, want.colOrder)
	}
	steps := 0
	for _, p := range f.posOfRow {
		if p >= 0 {
			steps++
		}
	}
	if steps != want.steps {
		t.Fatalf("%s: %d steps factored, reference %d", name, steps, want.steps)
	}
	for k := 0; k < steps; k++ {
		lr, lv := f.lCol(k)
		up, uv := f.uCol(k)
		if f.rowOfPos[k] != want.rowOfPos[k] || f.posOfRow[want.rowOfPos[k]] != k ||
			math.Float64bits(f.uDiag[k]) != math.Float64bits(want.uDiag[k]) ||
			!slices.Equal(lr, want.lRows[k]) || !sameFloats(lv, want.lVals[k]) ||
			!slices.Equal(up, want.uPos[k]) || !sameFloats(uv, want.uVals[k]) {
			t.Fatalf("%s: step %d differs from the reference:\n row %d diag %v L %v %v U %v %v\nwant row %d diag %v L %v %v U %v %v",
				name, k, f.rowOfPos[k], f.uDiag[k], lr, lv, up, uv,
				want.rowOfPos[k], want.uDiag[k], want.lRows[k], want.lVals[k], want.uPos[k], want.uVals[k])
		}
	}
	return want
}

// randomSparseBasis draws an m×m basis column by column, each column
// holding its own row of a random transversal so that most draws are
// nonsingular. Entries are
// mostly ±1 and ±2, as in the decoding LPs, so eliminations cancel to
// exact zeros; a few are arbitrary reals. Column counts run from one to
// full.
func randomSparseBasis(rng *rand.Rand, m int) []spCol {
	cols := make([]spCol, m)
	diag := rng.Perm(m) // column j always has row diag[j]: a transversal
	for j := range cols {
		var nnz int
		switch rng.Intn(4) {
		case 0:
			nnz = 1
		case 1:
			nnz = 2
		case 2:
			nnz = 1 + rng.Intn(max(1, m/4))
		default:
			nnz = 1 + rng.Intn(m)
		}
		rows := rng.Perm(m)[:min(nnz, m)]
		if !slices.Contains(rows, diag[j]) {
			rows[0] = diag[j]
		}
		slices.Sort(rows)
		for _, r := range rows {
			v := float64(1 + rng.Intn(2))
			if rng.Intn(2) == 0 {
				v = -v
			}
			if rng.Intn(8) == 0 {
				v = rng.NormFloat64()
			}
			cols[j].add(r, v)
		}
	}
	return cols
}

// TestFactorMatchesReference: the bitset-driven factorization with its
// counting-sort column order reproduces the reference left-looking
// elimination bit for bit, on random sparse bases (some with L fill, some
// singular) and on the slack, optimal and random-column bases of the
// decoding LPs.
func TestFactorMatchesReference(t *testing.T) {
	fill, singular, factored := 0, 0, 0
	tally := func(ref *refLU, m int) {
		fill += ref.fill
		if ref.steps < m {
			singular++
		} else {
			factored++
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(150)
		cols := randomSparseBasis(rng, m)
		switch {
		case trial%10 == 0 && m > 1:
			cols[m-1] = cols[rng.Intn(m-1)] // a repeated column: singular
		case trial%10 == 5:
			cols[rng.Intn(m)] = spCol{} // an empty column: singular
		}
		f := newLU(m)
		column := func(pos int) ([]int32, []float64) { return cols[pos].rows, cols[pos].vals }
		tally(checkFactor(t, "random", f, column), m)
		// Refactoring a basis in the same luFactor must not see the last
		// factorization's state.
		tally(checkFactor(t, "random refactor", f, column), m)
	}
	for _, n := range []int{4, 8, 12, 24} {
		for seed := int64(1); seed <= 4; seed++ {
			p := reconLP(par.RNG(seed, 0), n)
			sf := buildStandard(p)
			f := newLU(sf.m)
			bases := [][]int{make([]int, sf.m), revisedOK(t, p, nil).Basis.cols}
			for r := range bases[0] {
				bases[0][r] = sf.nStruct + r // the slack basis
			}
			for i := 0; i < 4; i++ {
				bases = append(bases, rng.Perm(sf.nCols)[:sf.m])
			}
			for _, basis := range bases {
				column := func(pos int) ([]int32, []float64) { return sf.cols[basis[pos]].rows, sf.cols[basis[pos]].vals }
				tally(checkFactor(t, "recon", f, column), sf.m)
			}
		}
	}
	t.Logf("%d bases factored, %d singular, %d L fill entries", factored, singular, fill)
	if fill == 0 || singular == 0 || factored == 0 {
		t.Errorf("the bases exercised %d L fill entries, %d singular and %d nonsingular bases; want all three", fill, singular, factored)
	}
}

// refPivotRow is the reference α = ρᵀA: one pass per column over its
// entries in ascending row order, including the rows where ρ is zero.
func refPivotRow(sf *standard, y []float64) []float64 {
	alpha := make([]float64, sf.nCols)
	for j := range alpha {
		a := 0.0
		for i, r := range sf.cols[j].rows {
			a += y[r] * sf.cols[j].vals[i]
		}
		alpha[j] = a
	}
	return alpha
}

// checkPivotRow computes α for ρ = y with the engine's row-wise pass and
// requires every column to match the reference bit for bit, with the
// columns outside alphaSet at +0.
func checkPivotRow(t *testing.T, name string, e *Engine, y []float64) {
	t.Helper()
	copy(e.y, y)
	e.pivotRow()
	want := refPivotRow(e.sf, y)
	for j, w := range want {
		in := e.alphaSet[j>>6]&(1<<(j&63)) != 0
		got := e.alpha[j]
		if !in && math.Float64bits(got) != 0 {
			t.Fatalf("%s: column %d outside the pivot row's set holds %v", name, j, got)
		}
		if math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("%s: α_%d = %v (%x), reference %v (%x)", name, j, got, math.Float64bits(got), w, math.Float64bits(w))
		}
	}
}

// TestPivotRowMatchesReference: the dual simplex's row-wise pivot row
// equals the column-wise pass bit for bit, for the ρ = Bᵀ⁻¹e_r of the
// decoding LPs' optimal bases and for random sparse ρ (with −0 entries)
// on random sparse LPs, one pivot row after another in the same engine.
func TestPivotRowMatchesReference(t *testing.T) {
	for _, n := range []int{4, 12, 24} {
		p := reconLP(par.RNG(int64(n), 0), n)
		s := revisedOK(t, p, nil)
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		copy(e.basis, s.Basis.cols)
		if !e.lu.factor(func(pos int) ([]int32, []float64) { return e.colFor(e.basis[pos]) }) {
			t.Fatal("optimal basis factored as singular")
		}
		rho, unit := make([]float64, e.m), make([]float64, e.m)
		for r := 0; r < e.m; r++ {
			clear(unit)
			unit[r] = 1
			e.lu.btran(unit, rho)
			checkPivotRow(t, "recon", e, rho)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		m, nv := 1+rng.Intn(40), 1+rng.Intn(40)
		p := &Problem{NumVars: nv, Objective: make([]float64, nv)}
		for r := 0; r < m; r++ {
			var c Constraint
			for _, j := range rng.Perm(nv)[:rng.Intn(nv+1)] {
				v := float64(rng.Intn(5) - 2) // zeros included
				if rng.Intn(4) == 0 {
					v = rng.NormFloat64()
				}
				c.Vars = append(c.Vars, j)
				c.Coeffs = append(c.Coeffs, v)
			}
			p.Constraints = append(p.Constraints, c)
		}
		e, err := NewEngine(p)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			y := make([]float64, m)
			for r := range y {
				switch rng.Intn(4) {
				case 0:
					y[r] = rng.NormFloat64()
				case 1:
					y[r] = math.Copysign(0, -1)
				case 2:
					y[r] = float64(rng.Intn(3) - 1)
				}
			}
			checkPivotRow(t, "random", e, y)
		}
	}
}
