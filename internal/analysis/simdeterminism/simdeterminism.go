// Package simdeterminism enforces the bit-determinism contract of the
// timing simulator: for a given workload, seed, and configuration, every
// run must retire the same instructions in the same cycles and produce
// byte-identical tables and figures. Three constructs silently break that
// contract, and this analyzer bans them from the simulation packages:
//
//   - ranging over a map: Go randomises map iteration order, so any map
//     range whose body's effect is order-sensitive (installing into
//     another structure, summing floats, emitting output) perturbs
//     results between runs. Iterate a sorted key slice instead, or
//     annotate a provably order-independent loop with
//     //dpbplint:ignore simdeterminism <why>.
//   - time.Now (and the rest of the wall-clock surface): simulated time
//     is the only clock the model may observe.
//   - math/rand's package-level functions: they draw from the shared
//     global source, whose state depends on everything else in the
//     process. Randomness must flow from an explicitly seeded
//     rand.New(rand.NewSource(seed)).
package simdeterminism

import (
	"go/ast"
	"go/types"
	"strings"

	"dpbp/internal/analysis"
)

// Analyzer is the simdeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc:  "bans nondeterministic constructs (map ranges, wall clocks, global rand) in simulation packages",
	Run:  run,
}

// SimPackages lists the import-path suffixes the invariant covers: every
// package whose state advances simulated time or feeds results.
var SimPackages = []string{
	"internal/cpu",
	"internal/uthread",
	"internal/pathcache",
	"internal/pcache",
	"internal/bpred",
	"internal/bpred/tage",
	"internal/bpred/h2p",
	"internal/mem",
	"internal/cache",
}

// clockFuncs are the wall-clock entry points of package time. Duration
// arithmetic and timers are absent from the simulator anyway; the ban is
// on observing host time.
var clockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededConstructors are the math/rand package-level functions that build
// explicitly seeded state rather than drawing from the global source.
var seededConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true}

// IsSimPackage reports whether an import path falls under the
// simulation-determinism contract (shared with the counterwidth pass).
func IsSimPackage(path string) bool {
	for _, s := range SimPackages {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !IsSimPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.CallExpr:
				checkCall(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
		qualifier := func(p *types.Package) string {
			if p == pass.Pkg {
				return ""
			}
			return p.Name()
		}
		pass.Reportf(rs.Pos(), "range over map %s: iteration order is nondeterministic in a simulation package; iterate sorted keys, or annotate an order-independent loop with //dpbplint:ignore simdeterminism <why>", types.TypeString(tv.Type, qualifier))
	}
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. (*rand.Rand).Intn on a seeded source) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		if clockFuncs[fn.Name()] {
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in a simulation package; simulated time is the only clock the model may observe", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s draws from the process-global source in a simulation package; use an explicitly seeded rand.New(rand.NewSource(seed))", fn.Name())
		}
	}
}

// calleeFunc resolves a call's static callee, if it is a declared
// function or method.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
