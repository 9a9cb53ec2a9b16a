package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxLeakAnalyzer covers the handler layer: any function receiving a
// *net/http.Request must not mint a fresh root context with
// context.Background() or context.TODO(). Query work rooted there keeps
// running after the client disconnects and ignores per-request deadlines —
// handlers must derive from r.Context() so cancellation propagates into the
// engine's ctx plumbing. (Goroutines launched with no join or cancellation
// path are golifetime's, which sees through callees.)
var CtxLeakAnalyzer = &Analyzer{
	Name: "ctxleak",
	Doc:  "handler work rooted outside the request context",
	Run:  runCtxLeak,
}

// runCtxLeak flags context.Background()/context.TODO() calls inside any
// function with a *net/http.Request parameter (including goroutines the
// handler spawns): the request already carries the context the work must
// derive from.
func runCtxLeak(pass *Pass) {
	reported := map[token.Pos]bool{} // a nested handler literal is walked twice
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ft *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ft, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ft, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !hasRequestParam(pass, ft) {
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if pkg, ok := pass.Info.Uses[id].(*types.PkgName); ok && pkg.Imported().Path() == "context" && !reported[call.Pos()] {
					reported[call.Pos()] = true
					pass.Reportf(call.Pos(), "handler creates a fresh root context with context.%s; derive from the request's Context() so client disconnects and deadlines propagate", sel.Sel.Name)
				}
				return true
			})
			return true
		})
	}
}

// hasRequestParam reports whether the signature receives a *net/http.Request.
func hasRequestParam(pass *Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if t := pass.TypeOf(f.Type); t != nil && isPkgType(t, "net/http", "Request") {
			return true
		}
	}
	return false
}

func isContext(t types.Type) bool {
	return t != nil && isPkgType(t, "context", "Context")
}
