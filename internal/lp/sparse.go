package lp

import (
	"math"
)

// spCol is one column of a column-wise sparse matrix: parallel slices of
// row indices (ascending) and values.
type spCol struct {
	rows []int32
	vals []float64
}

func (c *spCol) add(row int, v float64) {
	if v == 0 {
		return
	}
	c.rows = append(c.rows, int32(row))
	c.vals = append(c.vals, v)
}

// standard is the revised engine's standard form of a Problem: each ≤ row
// rewritten as an equality with its own slack column, stored sparse both
// column-wise and row-wise.
//
// Column ids are stable across solves over the same constraint matrix —
// the property the warm-start contract relies on:
//
//	0 .. nStruct-1          structural variables
//	nStruct+r               slack of row r (+1 in row r)
//
// Unlike the dense tableau, rows are NOT sign-normalized by RHS sign:
// negating a row is a diagonal ±1 scaling that changes neither which
// column sets are valid bases nor the basic solution, and keeping the
// original orientation keeps the matrix — and therefore a warm-start
// Basis — valid when a new RHS crosses zero.
type standard struct {
	m, nStruct int
	nCols      int // nStruct + m
	cols       []spCol
	// Row-wise copy of the same matrix, for the dual simplex's pivot row:
	// row r's entries are rowCols[rowStart[r]:rowStart[r+1]] (column ids,
	// the slack last) with values rowVals.
	rowStart []int
	rowCols  []int32
	rowVals  []float64
	b        []float64 // perturbed RHS, reloaded at every solve
	sig      uint64    // FNV-1a over the constraint structure (not RHS)
}

// buildStandard converts p's constraint matrix; the RHS is loaded by
// readRHS at every solve. It counts the entries first, so each layout
// slices one backing array instead of growing a slice per column.
func buildStandard(p *Problem) *standard {
	m := len(p.Constraints)
	nCols := p.NumVars + m
	s := &standard{
		m:        m,
		nStruct:  p.NumVars,
		nCols:    nCols,
		cols:     make([]spCol, nCols),
		rowStart: make([]int, m+1),
		b:        make([]float64, m),
	}
	count := make([]int, nCols)
	nnz := m // one slack entry per row
	for r, c := range p.Constraints {
		count[p.NumVars+r] = 1
		for k, j := range c.Vars {
			if c.Coeffs[k] != 0 {
				count[j]++
				nnz++
			}
		}
	}
	rows, vals := make([]int32, nnz), make([]float64, nnz)
	off := 0
	for j, n := range count {
		s.cols[j] = spCol{rows: rows[off : off : off+n], vals: vals[off : off : off+n]}
		off += n
	}
	s.rowCols, s.rowVals = make([]int32, 0, nnz), make([]float64, 0, nnz)
	// Rows are visited in order, so every column lists its rows ascending.
	for r, c := range p.Constraints {
		for k, j := range c.Vars {
			if v := c.Coeffs[k]; v != 0 {
				s.cols[j].add(r, v)
				s.rowCols = append(s.rowCols, int32(j))
				s.rowVals = append(s.rowVals, v)
			}
		}
		s.cols[p.NumVars+r].add(r, 1)
		s.rowCols = append(s.rowCols, int32(p.NumVars+r))
		s.rowVals = append(s.rowVals, 1)
		s.rowStart[r+1] = len(s.rowCols)
	}
	s.sig = s.signature()
	return s
}

// readRHS loads p's RHS into s.b. The same deterministic ε-perturbation
// as the dense tableau is applied — row r is relaxed by perturb·(r+1) —
// so both engines share one numerical contract.
func (s *standard) readRHS(p *Problem) {
	for r, c := range p.Constraints {
		s.b[r] = c.RHS + perturb*float64(r+1)
	}
}

// signature hashes the constraint structure — dimensions and
// coefficients, but not the RHS or objective — so a warm-start Basis can
// be checked against the matrix it was produced on.
func (s *standard) signature() uint64 {
	h := uint64(1469598103934665603) // FNV offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(s.m))
	mix(uint64(s.nStruct))
	for j := 0; j < s.nStruct; j++ {
		col := &s.cols[j]
		for k, row := range col.rows {
			mix(uint64(j))
			mix(uint64(row))
			mix(math.Float64bits(col.vals[k]))
		}
	}
	return h
}
