// Package specpurity statically encodes the differential oracle's central
// theorem (DESIGN.md §12): speculation never mutates architectural state.
// The paper's hard separation (Chappell et al., ISCA 2002, §4.2.4) is
// that subordinate microthreads read the primary thread's architectural
// state at spawn and communicate results only through the Prediction
// Cache — they must never write the register file or memory. PR 5 proves
// that dynamically, run by run; this analyzer proves the static half: no
// code path from the speculative machinery can even reach an
// architectural mutator.
//
// Speculative roots are every function in the microthread packages
// (internal/uthread, internal/pcache, internal/pathcache) plus any
// function annotated //dpbp:speculative in its doc comment (the SSMT
// core's microthread-side functions in internal/cpu).
//
// Architectural mutators are functions that write through a value of the
// emulator's architectural types (emu.Machine, emu.Memory) — detected by
// scanning every module function for assignments whose target is reached
// through such a value, including via local aliases (pg := m.page(...);
// pg[i] = v). A write that is bookkeeping rather than architecture (the
// paged memory's last-page lookup cache) is waived on its line with
// //dpbp:nonarch <why>.
//
// Reachability runs over the facts.BuildCallGraph approximation: static
// calls plus named-function references, with dynamic calls through
// func-valued fields and interfaces invisible. The SSMT core's spawn
// makes no such call: cpu.Machine.spawn runs each routine instruction
// through uthread's Routine.Step and reads the emulator's registers and
// memory and the value and address predictors directly, so the whole
// spawn path is in the graph and checked. uthread.Env's closures serve
// only uthread.Execute, the functional reference the builder's tests
// call; the dynamic oracle still checks every run end to end.
package specpurity

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dpbp/internal/analysis"
	"dpbp/internal/analysis/facts"
)

// Analyzer is the specpurity pass.
var Analyzer = &analysis.Analyzer{
	Name:      "specpurity",
	Doc:       "proves speculative (microthread-side) code never reaches an architectural mutator in internal/emu",
	RunModule: runModule,
}

// Configuration of the invariant, as package variables in the
// errchecklite Scope* idiom so fixtures and future backends can reuse
// the analyzer unchanged.
var (
	// ArchPackage declares the architectural types.
	ArchPackage = "internal/emu"
	// ArchTypes are the named types whose reachable writes constitute
	// architectural mutation.
	ArchTypes = []string{"Machine", "Memory"}
	// SpecPackages are the always-speculative packages: every function
	// declared in them is a root.
	SpecPackages = []string{"internal/uthread", "internal/pcache", "internal/pathcache"}
)

const (
	// SpecDirective marks an individual function as speculative.
	SpecDirective = "speculative"
	// NonArchDirective waives one write as non-architectural bookkeeping.
	NonArchDirective = "nonarch"
)

// mutation is one architectural write site.
type mutation struct {
	pos  token.Pos
	desc string
}

func runModule(mp *analysis.ModulePass) error {
	arch := archTypeSet(mp)
	if len(arch) == 0 {
		return nil // no emulator in view (partial load): nothing to prove
	}
	graph := facts.BuildCallGraph(mp)

	// Find the primitive mutators: any module function containing an
	// unwaived write through an architectural value.
	mutators := map[*types.Func]mutation{}
	for _, fn := range graph.Order {
		info := graph.Funcs[fn]
		lines := linesOf(info.Pass)
		if mut, ok := findArchWrite(info, arch, lines); ok {
			mutators[fn] = mut
		}
	}

	// Walk from every speculative root; any path into a mutator breaks
	// the invariant.
	for _, fn := range graph.Order {
		info := graph.Funcs[fn]
		if !isRoot(info) {
			continue
		}
		if chain, target := reach(graph, fn, mutators); target != nil {
			mut := mutators[*target]
			pos := info.Pass.Fset.Position(mut.pos)
			mp.Reportf(info.Decl.Name.Pos(),
				"speculative %s reaches architectural mutator %s (%s; %s at %s:%d): microthreads must not write the primary thread's registers or memory",
				facts.FullName(fn), facts.FullName(*target), strings.Join(chain, " → "),
				mut.desc, shortFile(pos.Filename), pos.Line)
		}
	}
	return nil
}

// archTypeSet resolves the configured architectural type objects.
func archTypeSet(mp *analysis.ModulePass) map[*types.TypeName]bool {
	set := map[*types.TypeName]bool{}
	for _, pass := range mp.Passes {
		if !facts.PkgPathMatches(pass.Pkg.Path(), ArchPackage) {
			continue
		}
		for _, name := range ArchTypes {
			if tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName); ok {
				set[tn] = true
			}
		}
	}
	return set
}

// isRoot reports whether a function is a speculative root: declared in a
// speculative package, or annotated //dpbp:speculative.
func isRoot(info *facts.FuncInfo) bool {
	for _, rel := range SpecPackages {
		if facts.PkgPathMatches(info.Pass.Pkg.Path(), rel) {
			return true
		}
	}
	_, ok := facts.FuncDirective(info.Decl, SpecDirective)
	return ok
}

// reach breadth-first-searches the call graph from root and returns the
// first mutator found with the call chain that reaches it. Traversal
// follows Callees order, so the reported chain is deterministic.
func reach(g *facts.CallGraph, root *types.Func, mutators map[*types.Func]mutation) ([]string, **types.Func) {
	type node struct {
		fn     *types.Func
		parent *node
	}
	seen := map[*types.Func]bool{root: true}
	queue := []*node{{fn: root}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if _, ok := mutators[n.fn]; ok {
			var chain []string
			for c := n; c != nil; c = c.parent {
				chain = append([]string{facts.FullName(c.fn)}, chain...)
			}
			return chain, &n.fn
		}
		info := g.Funcs[n.fn]
		if info == nil {
			continue // no body in view: leaf
		}
		for _, callee := range info.Callees {
			if !seen[callee] {
				seen[callee] = true
				queue = append(queue, &node{fn: callee, parent: n})
			}
		}
	}
	return nil, nil
}

// linesCache avoids rescanning a package's comments per function.
var linesCache = map[*analysis.Pass]*facts.Lines{}

func linesOf(pass *analysis.Pass) *facts.Lines {
	l, ok := linesCache[pass]
	if !ok {
		l = facts.ScanLines(pass.Fset, pass.Files)
		linesCache[pass] = l
	}
	return l
}

// findArchWrite scans one function body for an assignment (or ++/--)
// whose target is reached through an architectural value, tracking local
// aliases derived from architectural values (one fixpoint over the
// body's short variable declarations).
func findArchWrite(info *facts.FuncInfo, arch map[*types.TypeName]bool, lines *facts.Lines) (mutation, bool) {
	pass := info.Pass
	body := info.Decl.Body

	isArchExpr := func(e ast.Expr) bool {
		tv, ok := pass.TypesInfo.Types[e]
		return ok && isArchType(tv.Type, arch)
	}

	// Fixpoint: a local is tainted if its initialiser mentions an
	// architectural value or another tainted local.
	tainted := map[types.Object]bool{}
	mentionsArch := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if found {
				return false
			}
			if ex, ok := n.(ast.Expr); ok && isArchExpr(ex) {
				found = true
				return false
			}
			if id, ok := n.(*ast.Ident); ok && tainted[pass.TypesInfo.Uses[id]] {
				found = true
				return false
			}
			return true
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			dirty := false
			for _, rhs := range as.Rhs {
				if mentionsArch(rhs) {
					dirty = true
					break
				}
			}
			if !dirty {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil && !tainted[obj] && !isArchType(obj.Type(), arch) {
					tainted[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// writesThroughArch: the target expression's proper subexpressions
	// pass through an architectural or tainted value.
	writesThroughArch := func(target ast.Expr) bool {
		e := ast.Unparen(target)
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SliceExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return false
			}
			e = ast.Unparen(e)
			if isArchExpr(e) {
				return true
			}
			if id, ok := e.(*ast.Ident); ok && tainted[pass.TypesInfo.Uses[id]] {
				return true
			}
		}
	}

	var mut mutation
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		default:
			return true
		}
		for _, t := range targets {
			if !writesThroughArch(t) {
				continue
			}
			if lines.Covers(pass.Fset, NonArchDirective, t.Pos()) {
				continue // waived: microarchitectural bookkeeping
			}
			mut = mutation{pos: t.Pos(), desc: "write to " + render(pass.Fset, t)}
			found = true
			return false
		}
		return true
	})
	return mut, found
}

// isArchType unwraps pointers and reports whether the named type is
// architectural.
func isArchType(t types.Type, arch map[*types.TypeName]bool) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && arch[named.Obj()]
}

// render prints a small expression for the diagnostic.
func render(fset *token.FileSet, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return render(fset, x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return render(fset, x.X) + "[...]"
	case *ast.SliceExpr:
		return render(fset, x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + render(fset, x.X)
	case *ast.CallExpr:
		return render(fset, x.Fun) + "(...)"
	}
	return "expression"
}

// shortFile trims the path to its last two elements for readability.
func shortFile(name string) string {
	parts := strings.Split(name, "/")
	if len(parts) <= 2 {
		return name
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
