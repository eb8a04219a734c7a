// Package resetcomplete proves, at compile time, the invariant PR 2
// established dynamically with TestResetMatchesFresh: a type's Reset
// method returns every field to a state indistinguishable from fresh
// construction. The machine pool reuses Reset components across runs, so
// a field Reset forgets is state leaking from one run into the next —
// exactly the class of bug that only shows up when the test corpus
// happens to exercise the stale field.
//
// For every method named Reset (any parameter list) whose receiver is a
// struct type declared in the package, every field of that struct must be
// handled in the Reset body, where "handled" means the field is the
// target of an assignment (including element writes and sub-field
// writes), the receiver of a method call (recursive Reset, clear-style
// helpers), an argument to a call (clear, append, copy), or the operand
// of a range clause whose body rewrites its elements. Reads do not count:
// a field Reset merely consults is not a field Reset restores.
//
// Fields that are intentionally not reset — immutable sizing captured at
// construction (masks, capacities, configs), or stale storage provably
// gated by a validity field — are waived on their declaration with a
// justifying comment:
//
//	cap int //dpbp:reset-skip immutable capacity, fixed at construction
//
// The waiver lives on the field, not in the Reset body, so the
// justification is in front of whoever next edits the struct.
//
// Known approximation: handling is judged from the Reset body alone. A
// Reset that delegates fields to an unexported helper method on the same
// receiver should either inline the assignments or waive the fields.
package resetcomplete

import (
	"go/ast"
	"go/types"

	"dpbp/internal/analysis"
	"dpbp/internal/analysis/facts"
)

// Analyzer is the resetcomplete pass.
var Analyzer = &analysis.Analyzer{
	Name: "resetcomplete",
	Doc:  "flags struct fields a Reset method neither restores nor waives with //dpbp:reset-skip",
	Run:  run,
}

// SkipDirective is the field-level waiver name.
const SkipDirective = "reset-skip"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Reset" || fd.Recv == nil || fd.Body == nil {
				continue
			}
			checkReset(pass, fd)
		}
	}
	return nil
}

// checkReset verifies one Reset method against its receiver's fields.
func checkReset(pass *analysis.Pass, fd *ast.FuncDecl) {
	recvObj, named := receiver(pass, fd)
	if recvObj == nil || named == nil {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	structDecl := findStructDecl(pass, named)
	if structDecl == nil {
		return // declared in another package (impossible for methods) or generated
	}

	handled := map[*types.Var]bool{}
	mark := func(e ast.Expr) {
		if v := rootField(pass, recvObj, e); v != nil {
			handled[v] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.RangeStmt:
			mark(n.X)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				mark(sel.X) // method call on the field (m.prb.Reset(), m.builder.Reset(cfg))
			}
			for _, arg := range n.Args {
				if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok {
					arg = u.X // &recv.field handed to a resetter
				}
				mark(arg) // clear(c.index), append(c.free, ...), copy(...)
			}
		}
		return true
	})

	// Walk the declared fields in order, reporting the unhandled,
	// unwaived ones at their declaration (where the fix belongs).
	fieldByName := map[string]*types.Var{}
	for i := 0; i < st.NumFields(); i++ {
		fieldByName[st.Field(i).Name()] = st.Field(i)
	}
	for _, field := range structDecl.Fields.List {
		if _, waived := facts.FieldDirective(field, SkipDirective); waived {
			continue
		}
		names := field.Names
		if len(names) == 0 { // embedded field: named by its type
			names = []*ast.Ident{embeddedName(field.Type)}
		}
		for _, name := range names {
			if name == nil || name.Name == "_" {
				continue
			}
			v := fieldByName[name.Name]
			if v == nil || handled[v] {
				continue
			}
			pass.Reportf(name.Pos(), "field %s.%s is not restored by (*%s).Reset: assign it, Reset it recursively, or waive it with //dpbp:reset-skip <why>",
				named.Obj().Name(), name.Name, named.Obj().Name())
		}
	}
}

// receiver resolves the Reset method's receiver variable and its named
// struct type.
func receiver(pass *analysis.Pass, fd *ast.FuncDecl) (types.Object, *types.Named) {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil, nil // unnamed receiver cannot reference fields anyway
	}
	ident := fd.Recv.List[0].Names[0]
	obj := pass.TypesInfo.Defs[ident]
	if obj == nil {
		return nil, nil
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return obj, named
}

// findStructDecl locates the AST struct literal declaring the named type
// in this package.
func findStructDecl(pass *analysis.Pass, named *types.Named) *ast.StructType {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || pass.TypesInfo.Defs[ts.Name] != named.Obj() {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
			}
		}
	}
	return nil
}

// rootField unwraps an expression's selector/index/star chain; if the
// chain is rooted at the receiver, it returns the first field selected
// off it (the receiver's own field being handled).
func rootField(pass *analysis.Pass, recvObj types.Object, e ast.Expr) *types.Var {
	var firstSel *ast.Ident
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			firstSel = x.Sel
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if firstSel == nil || pass.TypesInfo.Uses[x] != recvObj {
				return nil
			}
			v, _ := pass.TypesInfo.Uses[firstSel].(*types.Var)
			if v == nil || !v.IsField() {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}

// embeddedName returns the identifier naming an embedded field's type.
func embeddedName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
