package lp

import (
	"math"
	"math/bits"
)

// luFactor is a sparse LU factorization of the m×m basis matrix B with
// partial pivoting, plus the product-form eta file accumulated by pivots
// since the last (re)factorization:
//
//	B · colPerm = rowPerm⁻¹ · L · U,   B_now = B · E_1 · E_2 · … · E_k
//
// Columns are factored sparsest-first (slack and error columns of the
// reconstruction LPs are singletons/doubletons, structural columns are
// dense-ish), which keeps fill-in low without a full Markowitz search.
// FTRAN/BTRAN solve through the factors and then replay the eta file;
// refactorization truncates the file and restores full accuracy.
//
// L, U and the eta file live in flat arrays indexed by start offsets, so
// a factorization or an eta appends into storage the factor already owns:
// the eta arrays are sized once for the longest file the engine keeps
// (refactorEvery etas of at most m entries), and L and U grow only when a
// basis has more fill than any factored before.
type luFactor struct {
	m int
	// Row pivoting: rowOfPos[k] is the original row eliminated at step k;
	// posOfRow is its inverse.
	rowOfPos []int
	posOfRow []int
	// colOrder[k] is the basis position whose column was factored at
	// step k.
	colOrder []int
	// L column k (unit diagonal implicit): lRows[lStart[k]:lStart[k+1]]
	// are the original rows not yet pivoted at step k, lVals their values.
	lStart []int
	lRows  []int32
	lVals  []float64
	// U column k: uPos[uStart[k]:uStart[k+1]] are elimination positions
	// j < k (ascending), uVals their values; uDiag[k] is the diagonal.
	uStart []int
	uPos   []int32
	uVals  []float64
	uDiag  []float64
	// The eta file: eta e replaces basis position etaPos[e], whose entry
	// in the FTRANed entering column was etaPivot[e]; the column's other
	// nonzeros are etaRows[etaStart[e]:etaStart[e+1]] (positions,
	// ascending) and etaVals.
	etaPos   []int
	etaPivot []float64
	etaStart []int
	etaRows  []int32
	etaVals  []float64

	work    []float64 // factor's dense scratch, len m, zero between uses
	touched []int32
	inWork  []bool
	pending []uint64  // factor's bitset of positions awaiting elimination
	nnzOf   []int     // factor's per-position column counts
	count   []int     // factor's counting-sort buckets, len m+1
	solve   []float64 // ftran/btran scratch in elimination order, len m
}

// luMinPivot is the singularity threshold for factorization pivots.
const luMinPivot = 1e-10

// luLCap and luUCap size L's and U's arrays as multiples of m. The optimal
// bases of the n = 24 decoding LPs (m = 9n) factor with at most about m
// L entries and 11m U entries; a basis with more fill grows the arrays
// once, and later factorizations reuse them.
const (
	luLCap = 2
	luUCap = 12
)

func newLU(m int) *luFactor {
	return &luFactor{
		m:        m,
		rowOfPos: make([]int, m),
		posOfRow: make([]int, m),
		colOrder: make([]int, m),
		lStart:   make([]int, m+1),
		lRows:    make([]int32, 0, luLCap*m),
		lVals:    make([]float64, 0, luLCap*m),
		uStart:   make([]int, m+1),
		uPos:     make([]int32, 0, luUCap*m),
		uVals:    make([]float64, 0, luUCap*m),
		uDiag:    make([]float64, m),
		etaPos:   make([]int, 0, refactorEvery),
		etaPivot: make([]float64, 0, refactorEvery),
		etaStart: make([]int, 1, refactorEvery+1),
		etaRows:  make([]int32, 0, refactorEvery*m),
		etaVals:  make([]float64, 0, refactorEvery*m),
		work:     make([]float64, m),
		touched:  make([]int32, 0, m),
		inWork:   make([]bool, m),
		pending:  make([]uint64, (m+63)/64),
		nnzOf:    make([]int, m),
		count:    make([]int, m+1),
		solve:    make([]float64, m),
	}
}

// numEtas returns the length of the eta file.
func (f *luFactor) numEtas() int { return len(f.etaPos) }

// lCol returns L column k's original rows and values.
func (f *luFactor) lCol(k int) ([]int32, []float64) {
	lo, hi := f.lStart[k], f.lStart[k+1]
	return f.lRows[lo:hi], f.lVals[lo:hi]
}

// uCol returns U column k's elimination positions and values.
func (f *luFactor) uCol(k int) ([]int32, []float64) {
	lo, hi := f.uStart[k], f.uStart[k+1]
	return f.uPos[lo:hi], f.uVals[lo:hi]
}

// factor (re)builds the LU decomposition of the basis described by
// column, a position→sparse-column accessor. It returns false when the
// basis matrix is numerically singular. The eta file is cleared.
//
// Elimination is left-looking: column k is reduced by the L columns of
// the earlier positions its entries reach, in ascending position order.
// A bitset holds the positions still to apply — the pivoted rows of the
// column, plus those an applied L column fills in (always at later
// positions) — so a column costs work proportional to its reduced
// nonzeros, not to k.
func (f *luFactor) factor(column func(pos int) ([]int32, []float64)) bool {
	m := f.m
	f.clearEtas()
	for i := 0; i < m; i++ {
		f.posOfRow[i] = -1
	}
	// Sparsest columns first, ties by position: their pivots eliminate
	// rows without creating fill for the denser columns factored later.
	// A counting sort on the column counts gives that order in O(m).
	cnt := f.count
	clear(cnt)
	for pos := 0; pos < m; pos++ {
		rows, _ := column(pos)
		f.nnzOf[pos] = len(rows)
		cnt[len(rows)]++
	}
	next := 0
	for c, n := range cnt {
		cnt[c] = next
		next += n
	}
	for pos := 0; pos < m; pos++ {
		c := f.nnzOf[pos]
		f.colOrder[cnt[c]] = pos
		cnt[c]++
	}
	f.lRows, f.lVals = f.lRows[:0], f.lVals[:0]
	f.uPos, f.uVals = f.uPos[:0], f.uVals[:0]
	pending := f.pending
	for k := 0; k < m; k++ {
		rows, vals := column(f.colOrder[k])
		// Scatter the column into the dense workspace.
		f.touched = f.touched[:0]
		for i, r := range rows {
			f.work[r] = vals[i]
			if !f.inWork[r] {
				f.inWork[r] = true
				f.touched = append(f.touched, r)
			}
			if p := f.posOfRow[r]; p >= 0 {
				pending[p>>6] |= 1 << (p & 63)
			}
		}
		// Left-looking elimination by the pending earlier positions, lowest
		// first. An L column only reaches positions after its own, so the
		// words below the current one stay empty.
		for w := range pending {
			for pending[w] != 0 {
				b := bits.TrailingZeros64(pending[w])
				pending[w] &^= 1 << b
				j := w<<6 | b
				t := f.work[f.rowOfPos[j]]
				if t == 0 {
					continue
				}
				f.uPos = append(f.uPos, int32(j))
				f.uVals = append(f.uVals, t)
				lr, lv := f.lCol(j)
				lv = lv[:len(lr)]
				for i, r := range lr {
					f.work[r] -= lv[i] * t
					if !f.inWork[r] {
						f.inWork[r] = true
						f.touched = append(f.touched, r)
					}
					if p := f.posOfRow[r]; p >= 0 {
						pending[p>>6] |= 1 << (p & 63)
					}
				}
			}
		}
		// Partial pivoting over the rows not yet eliminated.
		pivRow, pivAbs := -1, luMinPivot
		for _, r := range f.touched {
			if f.posOfRow[r] >= 0 {
				continue
			}
			if a := math.Abs(f.work[r]); a > pivAbs {
				pivAbs, pivRow = a, int(r)
			}
		}
		if pivRow < 0 {
			f.clearWork()
			return false
		}
		piv := f.work[pivRow]
		f.uDiag[k] = piv
		f.uStart[k+1] = len(f.uPos)
		for _, r := range f.touched {
			if f.posOfRow[r] >= 0 || int(r) == pivRow {
				continue
			}
			if v := f.work[r]; v != 0 {
				f.lRows = append(f.lRows, r)
				f.lVals = append(f.lVals, v/piv)
			}
		}
		f.lStart[k+1] = len(f.lRows)
		f.rowOfPos[k] = pivRow
		f.posOfRow[pivRow] = k
		f.clearWork()
	}
	return true
}

func (f *luFactor) clearWork() {
	for _, r := range f.touched {
		f.work[r] = 0
		f.inWork[r] = false
	}
	f.touched = f.touched[:0]
}

// clearEtas truncates the eta file.
func (f *luFactor) clearEtas() {
	f.etaPos, f.etaPivot = f.etaPos[:0], f.etaPivot[:0]
	f.etaStart = f.etaStart[:1]
	f.etaRows, f.etaVals = f.etaRows[:0], f.etaVals[:0]
}

// eta returns eta e's off-pivot positions and values.
func (f *luFactor) eta(e int) ([]int32, []float64) {
	lo, hi := f.etaStart[e], f.etaStart[e+1]
	return f.etaRows[lo:hi], f.etaVals[lo:hi]
}

// ftran solves B·x = v. v is indexed by original row and is consumed as
// scratch; the result is written to out, indexed by basis position.
func (f *luFactor) ftran(v, out []float64) {
	m := f.m
	// Forward: L y = P v.
	for k := 0; k < m; k++ {
		t := v[f.rowOfPos[k]]
		if t == 0 {
			continue
		}
		lr, lv := f.lCol(k)
		lv = lv[:len(lr)]
		for i, r := range lr {
			v[r] -= lv[i] * t
		}
	}
	// Back-substitute U z = y, column-wise.
	tmp := f.solve
	for k := 0; k < m; k++ {
		tmp[k] = v[f.rowOfPos[k]]
	}
	for k := m - 1; k >= 0; k-- {
		zk := tmp[k] / f.uDiag[k]
		tmp[k] = zk
		up, uv := f.uCol(k)
		uv = uv[:len(up)]
		for i, p := range up {
			tmp[p] -= uv[i] * zk
		}
	}
	// colOrder is a permutation, so this writes every entry of out.
	for k := 0; k < m; k++ {
		out[f.colOrder[k]] = tmp[k]
	}
	// Replay the eta file.
	for e, pos := range f.etaPos {
		t := out[pos] / f.etaPivot[e]
		if out[pos] != 0 {
			rows, vals := f.eta(e)
			vals = vals[:len(rows)]
			for i, p := range rows {
				out[p] -= vals[i] * t
			}
		}
		out[pos] = t
	}
}

// btran solves Bᵀ·y = c. c is indexed by basis position and is consumed
// as scratch; the result is written to out, indexed by original row.
func (f *luFactor) btran(c, out []float64) {
	m := f.m
	// Transposed eta replay, newest first: (Eᵀ)⁻¹ c leaves every entry but
	// c[pos] alone.
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		rows, vals := f.eta(e)
		vals = vals[:len(rows)]
		s := 0.0
		for i, p := range rows {
			s += vals[i] * c[p]
		}
		pos := f.etaPos[e]
		c[pos] = (c[pos] - s) / f.etaPivot[e]
	}
	// Uᵀ g = c (in elimination order), forward.
	g := f.solve
	for k := 0; k < m; k++ {
		s := c[f.colOrder[k]]
		up, uv := f.uCol(k)
		uv = uv[:len(up)]
		for i, p := range up {
			s -= uv[i] * g[p]
		}
		g[k] = s / f.uDiag[k]
	}
	// Lᵀ h = g, backward (rows in L column k have elimination positions
	// > k).
	for k := m - 1; k >= 0; k-- {
		lr, lv := f.lCol(k)
		lv = lv[:len(lr)]
		s := g[k]
		for i, r := range lr {
			s -= lv[i] * g[f.posOfRow[r]]
		}
		g[k] = s
	}
	// rowOfPos is a permutation, so this writes every entry of out.
	for k := 0; k < m; k++ {
		out[f.rowOfPos[k]] = g[k]
	}
}

// appendEta records the product-form update for a pivot at basis
// position pos whose FTRANed entering column is d (position-indexed,
// dense). It returns false when the pivot element is too small to update
// stably — the caller should refactorize instead.
func (f *luFactor) appendEta(pos int, d []float64) bool {
	const etaPivotTol = 1e-8
	if math.Abs(d[pos]) < etaPivotTol {
		return false
	}
	f.etaPos = append(f.etaPos, pos)
	f.etaPivot = append(f.etaPivot, d[pos])
	for i, v := range d {
		if v != 0 && i != pos {
			f.etaRows = append(f.etaRows, int32(i))
			f.etaVals = append(f.etaVals, v)
		}
	}
	f.etaStart = append(f.etaStart, len(f.etaRows))
	return true
}
