package analysis

import (
	"go/ast"
	"go/types"
)

// deterministicPkgs names the attack/experiment packages whose outputs
// must be bit-for-bit reproducible from (seed, index) alone: the
// reconstruction tables they emit are the repository's evidence, and PRs
// 2 and 4 guarantee byte-identical results at any worker count, locally
// or over the wire. Any ambient entropy (wall clock, process-global rand)
// silently breaks that guarantee.
var deterministicPkgs = map[string]bool{
	"recon":       true,
	"census":      true,
	"pso":         true,
	"diffix":      true,
	"kanon":       true,
	"membership":  true,
	"synth":       true,
	"dist":        true,
	"experiments": true,
}

// randTopLevel lists the math/rand top-level functions that draw from the
// process-global source. Constructors (New, NewSource, NewZipf) are fine:
// the rule is that every stream must be derived from an injected seed,
// normally via par.RNG(seed, index).
var randTopLevel = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true,
}

// clockFuncs are the time package's ambient clock reads.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Determinism forbids ambient entropy — wall-clock reads, the global
// math/rand source, and crypto/rand — inside the attack/experiment
// packages, where all randomness must flow from an injected *rand.Rand.
// It also flags an injected stream drawn from inside a range over a map:
// Go randomizes map iteration order, so the same draws land on different
// keys each run even though the stream itself is seeded.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid time.Now/Since/Until, global math/rand functions, and crypto/rand " +
		"in the attack/experiment packages, and *rand.Rand draws inside a range over a map; " +
		"randomness must come from an injected *rand.Rand (par.RNG) consumed in a fixed order " +
		"so tables are byte-identical at any worker count",
	NeedsTypes: true,
	Wants:      func(p *Package) bool { return deterministicPkgs[p.Name] },
	Run:        runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		if f.Test {
			continue // tests may time out, retry, and measure freely
		}
		for _, spec := range f.AST.Imports {
			if spec.Path.Value == `"crypto/rand"` {
				pass.Reportf(spec.Pos(), "crypto/rand in deterministic package %s: derive randomness from an injected *rand.Rand (par.RNG)", pass.Pkg.Name)
			}
		}
		checkAmbient(pass, f.AST)
		checkMapRangeDraws(pass, f.AST)
	}
	return nil
}

// checkAmbient flags the clock reads and global-source draws of one file.
func checkAmbient(pass *Pass, f *ast.File) {
	timeName, hasTime := ImportName(f, "time")
	randName, hasRand := ImportName(f, "math/rand")
	if !hasTime && !hasRand {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch {
		case hasTime && id.Name == timeName && clockFuncs[sel.Sel.Name]:
			pass.Reportf(sel.Pos(), "time.%s in deterministic package %s: wall-clock reads make experiment output irreproducible; inject a value or move timing to the obs layer", sel.Sel.Name, pass.Pkg.Name)
		case hasRand && id.Name == randName && randTopLevel[sel.Sel.Name]:
			pass.Reportf(sel.Pos(), "global rand.%s in deterministic package %s: draws from the process-global source; use an injected *rand.Rand (par.RNG(seed, index))", sel.Sel.Name, pass.Pkg.Name)
		}
		return true
	})
}

// checkMapRangeDraws flags every RNG draw — a method call on a
// *rand.Rand, or a call taking one — inside the body of a range over a
// map. Needs type information; without it nothing is reported.
func checkMapRangeDraws(pass *Pass, f *ast.File) {
	if pass.TypesInfo == nil {
		return
	}
	isRand := func(x ast.Expr) bool {
		return NamedFrom(pass.TypesInfo.TypeOf(x), "math/rand", map[string]bool{"Rand": true})
	}
	reported := map[*ast.CallExpr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || reported[call] {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			draws := ok && isRand(sel.X)
			for _, arg := range call.Args {
				draws = draws || isRand(arg)
			}
			if draws {
				reported[call] = true
				pass.Reportf(call.Pos(), "RNG draw inside a range over a map in deterministic package %s: map iteration order is randomized, so the draws land on different keys each run; range over sorted keys", pass.Pkg.Name)
			}
			return true
		})
		return true
	})
}
