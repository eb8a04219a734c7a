// Package facts holds the shared machinery the deep invariant analyzers
// (resetcomplete, statsdrift, specpurity) are built from: scanning for
// //dpbp:* waiver/annotation directives, and an AST-level call-graph
// approximation over the whole module.
//
// Directives are the structured cousins of //dpbplint:ignore. Where an
// ignore suppresses a diagnostic after the fact, a directive is consumed
// by an analyzer as an input fact:
//
//	//dpbp:reset-skip <why>   field is intentionally not reset by Reset
//	//dpbp:speculative        function runs on behalf of a microthread
//	//dpbp:nonarch <why>      this write is microarchitectural bookkeeping,
//	                          not architectural state
//
// The call graph is deliberately approximate, in the direction of safety
// for reachability proofs: a function "calls" every named function it
// statically references — direct calls, method calls, and functions
// mentioned as values (passed as callbacks, launched with go/defer) all
// become edges, and calls inside nested function literals are attributed
// to the enclosing declaration. What it cannot see are dynamic calls
// through function-typed variables and struct fields (e.g. uthread.Env's
// closures, which only the functional reference uthread.Execute calls)
// and interface dispatch (e.g. the bpred.Backend direction predictors);
// those edges simply do not exist, which is why the dynamic oracle
// (DESIGN.md §12) remains the backstop for properties the static
// encoding cannot close.
package facts

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dpbp/internal/analysis"
)

// DirectivePrefix introduces every analyzer-consumed annotation.
const DirectivePrefix = "dpbp:"

// Directive is one parsed //dpbp:<name> <reason> comment.
type Directive struct {
	Name   string // without the dpbp: prefix, e.g. "reset-skip"
	Reason string
	Pos    token.Pos
}

// parseDirective parses a comment's text as a directive, if it is one.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, DirectivePrefix) {
		return Directive{}, false
	}
	body := strings.TrimPrefix(text, DirectivePrefix)
	name, reason, _ := strings.Cut(body, " ")
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// CommentDirective returns the named directive if any comment in the
// group carries it. A nil group is fine.
func CommentDirective(cg *ast.CommentGroup, name string) (Directive, bool) {
	if cg == nil {
		return Directive{}, false
	}
	for _, c := range cg.List {
		if d, ok := parseDirective(c); ok && d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// FieldDirective returns the named directive attached to a struct field —
// its doc comment (above) or its trailing same-line comment.
func FieldDirective(f *ast.Field, name string) (Directive, bool) {
	if d, ok := CommentDirective(f.Doc, name); ok {
		return d, true
	}
	return CommentDirective(f.Comment, name)
}

// FuncDirective returns the named directive from a function declaration's
// doc comment.
func FuncDirective(fd *ast.FuncDecl, name string) (Directive, bool) {
	return CommentDirective(fd.Doc, name)
}

// Lines indexes directives by file and line so statement-level waivers
// (which the AST does not attach comments to) can be looked up by
// position.
type Lines struct {
	byLine map[string]map[int][]Directive
}

// ScanLines indexes every directive in the files.
func ScanLines(fset *token.FileSet, files []*ast.File) *Lines {
	l := &Lines{byLine: map[string]map[int][]Directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				m := l.byLine[p.Filename]
				if m == nil {
					m = map[int][]Directive{}
					l.byLine[p.Filename] = m
				}
				m[p.Line] = append(m[p.Line], d)
			}
		}
	}
	return l
}

// Covers reports whether the named directive sits on pos's line or the
// line directly above it (the same convention //dpbplint:ignore uses).
func (l *Lines) Covers(fset *token.FileSet, name string, pos token.Pos) bool {
	if l == nil || !pos.IsValid() {
		return false
	}
	p := fset.Position(pos)
	lines := l.byLine[p.Filename]
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range lines[line] {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// FuncInfo is one module function declaration in the call graph.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pass *analysis.Pass
	// Callees lists every named function the body references, in first-
	// appearance order (kept deterministic so diagnostics that render
	// call chains are stable).
	Callees []*types.Func
}

// CallGraph maps every function declared in the module to the named
// functions its body references. Functions without bodies (declarations
// in dependency packages, interface methods) are absent and act as
// leaves.
type CallGraph struct {
	Funcs map[*types.Func]*FuncInfo
	// Order holds the declared functions in package-then-position order,
	// for deterministic iteration.
	Order []*types.Func
}

// BuildCallGraph walks every package pass and records the reference
// edges of each declared function.
func BuildCallGraph(mp *analysis.ModulePass) *CallGraph {
	g := &CallGraph{Funcs: map[*types.Func]*FuncInfo{}}
	for _, pass := range mp.Passes {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				info := &FuncInfo{Obj: obj, Decl: fd, Pass: pass}
				seen := map[*types.Func]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
					if !ok || seen[fn] {
						return true
					}
					seen[fn] = true
					info.Callees = append(info.Callees, fn)
					return true
				})
				g.Funcs[obj] = info
				g.Order = append(g.Order, obj)
			}
		}
	}
	return g
}

// FullName renders a function for diagnostics: Type.Method for methods,
// pkg.Func otherwise.
func FullName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// PkgPathMatches reports whether a package import path is the given
// module-relative path or lives under it (e.g. "internal/analysis"
// matches "dpbp/internal/analysis" and "dpbp/internal/analysis/loader").
func PkgPathMatches(pkgPath, rel string) bool {
	return pkgPath == rel ||
		strings.HasSuffix(pkgPath, "/"+rel) ||
		strings.HasPrefix(pkgPath, rel+"/") ||
		strings.Contains(pkgPath, "/"+rel+"/")
}
