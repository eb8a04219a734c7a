// Package configplumb checks that the simulator's configuration surface
// is actually plumbed through to behaviour, in two directions:
//
//   - Unread fields (module-wide): a field of any package-level struct
//     type named Config or Spec that is never read outside config
//     plumbing (DefaultConfig/withDefaults/Canonical-style functions) is
//     dead weight — an experiment could "configure" it and silently
//     change nothing. Reads are selector or composite-literal uses that
//     are not assignment targets; the plumbing functions are excluded so
//     a field that is only defaulted and copied, never consulted, still
//     gets flagged.
//
//   - Magic numbers (per package): an integer literal elsewhere in a
//     package that equals one of that package's distinctive Default*
//     values or package-level constants (>= 100, e.g. the Table 3 sizes
//     128, 512, 4096, 8192, or the 100-cycle build latency) duplicates
//     configuration instead of reading it: resizing the config or the
//     constant would leave the copy behind. Named constants, const
//     declarations, and the Default*/withDefaults functions themselves
//     are exempt.
package configplumb

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dpbp/internal/analysis"
)

// Analyzer is the configplumb pass.
var Analyzer = &analysis.Analyzer{
	Name:      "configplumb",
	Doc:       "flags Config fields that are never read, and literals duplicating Default* config values",
	Run:       runMagic,
	RunModule: runUnread,
}

// MinMagic is the smallest default value the magic-number check
// considers distinctive; smaller values (widths of 2, 3, 16...) recur
// legitimately as loop strides and shifts.
const MinMagic = 100

// isPlumbingFunc reports whether reads inside the named function are
// config plumbing rather than behaviour. Canonical counts: it copies
// fields between defaulted and spelled-out forms without consulting
// them, exactly like withDefaults.
func isPlumbingFunc(name string) bool {
	return name == "withDefaults" || name == "Canonical" || strings.HasPrefix(name, "Default")
}

// configStructNames are the package-level struct type names whose fields
// the unread-field pass tracks. Spec joined Config with the pluggable
// predictor backends, and SMTConfig with multi-context machines: a field
// of either that nothing reads is as dead as an unread Config knob.
var configStructNames = []string{"Config", "Spec", "SMTConfig"}

// --- module pass: unread Config fields -------------------------------

type fieldUse struct {
	reads int
}

func runUnread(mp *analysis.ModulePass) error {
	// Collect every field of every package-level struct named Config or
	// Spec.
	fields := map[*types.Var]*fieldUse{}
	type declared struct {
		obj      *types.Var
		pkg      string
		typeName string
	}
	var order []declared
	for _, pass := range mp.Passes {
		for _, typeName := range configStructNames {
			obj, _ := pass.Pkg.Scope().Lookup(typeName).(*types.TypeName)
			if obj == nil {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				fields[f] = &fieldUse{}
				order = append(order, declared{f, pass.Pkg.Path(), typeName})
			}
		}
	}
	if len(fields) == 0 {
		return nil
	}

	// Classify every use of those fields across the module.
	for _, pass := range mp.Passes {
		writes := writePositions(pass)
		countReads := func(root ast.Node) {
			ast.Inspect(root, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				v, ok := pass.TypesInfo.Uses[id].(*types.Var)
				if !ok {
					return true
				}
				if use, tracked := fields[v]; tracked && !writes[id.Pos()] {
					use.reads++
				}
				return true
			})
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Body != nil && !isPlumbingFunc(decl.Name.Name) {
						countReads(decl.Body)
					}
				case *ast.GenDecl:
					countReads(decl)
				}
			}
		}
	}

	sort.Slice(order, func(i, j int) bool { return order[i].obj.Pos() < order[j].obj.Pos() })
	for _, d := range order {
		if fields[d.obj].reads == 0 {
			mp.Reportf(d.obj.Pos(), "config field %s.%s.%s is never read outside config plumbing; wire it into the model or delete it", shortPkg(d.pkg), d.typeName, d.obj.Name())
		}
	}
	return nil
}

func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// writePositions records identifier positions used as assignment targets
// or composite-literal keys — uses that store into a field rather than
// consult it.
func writePositions(pass *analysis.Pass) map[token.Pos]bool {
	writes := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					break // op-assignments (+=, |=, ...) read their target
				}
				for _, lhs := range n.Lhs {
					switch lhs := ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr:
						writes[lhs.Sel.Pos()] = true
					case *ast.Ident:
						writes[lhs.Pos()] = true
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					writes[id.Pos()] = true
				}
			}
			return true
		})
	}
	return writes
}

// --- per-package pass: magic numbers ---------------------------------

func runMagic(pass *analysis.Pass) error {
	defaults := map[int64]string{} // value -> providing function
	var defaultFuncs []*ast.FuncDecl
	plumbing := map[*ast.FuncDecl]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isPlumbingFunc(fd.Name.Name) {
				plumbing[fd] = true
				if strings.HasPrefix(fd.Name.Name, "Default") {
					defaultFuncs = append(defaultFuncs, fd)
				}
			}
		}
	}
	for _, fd := range defaultFuncs {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if v, ok := constIntValue(pass, e); ok && v >= MinMagic {
				if _, seen := defaults[v]; !seen {
					defaults[v] = fd.Name.Name
				}
			}
			return true
		})
	}
	// A size that no caller varies is a package constant rather than a
	// Default* value, and a literal copy of it goes stale the same way.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || c.Val().Kind() != constant.Int {
						continue
					}
					if v, exact := constant.Int64Val(c.Val()); exact && v >= MinMagic {
						if _, seen := defaults[v]; !seen {
							defaults[v] = "const " + name.Name
						}
					}
				}
			}
		}
	}
	if len(defaults) == 0 {
		return nil
	}

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Body == nil || plumbing[decl] {
					continue
				}
				flagMagic(pass, decl.Body, defaults)
			case *ast.GenDecl:
				// Const and var declarations name their values; naming
				// is exactly the remedy, so they are exempt.
			}
		}
	}
	return nil
}

// flagMagic walks a body flagging maximal literal-only constant
// expressions whose value duplicates a default.
func flagMagic(pass *analysis.Pass, body ast.Node, defaults map[int64]string) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if gd, ok := n.(*ast.GenDecl); ok && (gd.Tok == token.CONST || gd.Tok == token.VAR) {
			return false // declarations name their values: exempt
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		v, isConst := constIntValue(pass, e)
		if isConst && literalOnly(e) {
			if from, hit := defaults[v]; hit {
				pass.Reportf(e.Pos(), "literal %d duplicates the %s value set in %s; plumb the config field (or a named constant) through instead", v, pass.Pkg.Name(), from)
			}
			return false // maximal expression reported (or clean); skip children
		}
		return true
	}
	ast.Inspect(body, visit)
}

// constIntValue returns an expression's compile-time integer value.
func constIntValue(pass *analysis.Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// literalOnly reports whether an expression is built from literals alone
// (no identifiers): 8 << 10 qualifies, PCacheEntries does not.
func literalOnly(e ast.Expr) bool {
	ok := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.CallExpr:
			ok = false
		}
		return ok
	})
	return ok
}
