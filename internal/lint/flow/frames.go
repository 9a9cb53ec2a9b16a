package flow

// Synchronous closure frames: a function literal that provably runs only
// inside a specific activation of its enclosing function shares that frame's
// concurrency context. Two shapes qualify:
//
//   - a local helper: f := func(...) {...} where every use of f anywhere in
//     the enclosing body is a plain (non-defer, non-go) call in the enclosing
//     frame itself. The closure runs exactly at those call sites, so it
//     inherits the lock state the frame provably holds at each of them.
//   - a synchronous callback argument: a literal passed directly to
//     sort.Slice/SliceStable/SliceIsSorted/Search (which invoke it before
//     returning), or to a same-package function whose corresponding parameter
//     is strictly called — every use of the parameter in the callee body is a
//     plain call in the callee's own frame. The closure runs during the
//     parent's call, so the parent's pre-publication facts still apply; lock
//     state additionally transfers for the sort functions, which cannot touch
//     the caller's locks, but not for package callees, which might.
//
// Everything else — literals stored in fields, returned, sent on channels, or
// launched with go — gets no frame: those closures can outlive the enclosing
// activation, and crediting them with its context would be unsound.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// litFrame records the enclosing activation a literal runs inside.
type litFrame struct {
	parent *CallNode
	// sites are the parent-frame call expressions at which the literal runs,
	// when lock state transfers; nil when only pre-publication facts inherit
	// (package-callee callbacks, where the callee may manipulate locks before
	// invoking the closure).
	sites []*ast.CallExpr
}

// detectLitFrames populates ix.frames. It needs only the call graph and the
// type info, so it runs before pre-publication and entry-held analysis (both
// consume frames).
func (ix *Index) detectLitFrames() {
	for _, n := range ix.graph.Nodes {
		async := map[*ast.CallExpr]bool{}
		collectAsyncCalls(n.Body(), async)
		static := map[*ast.CallExpr]*CallNode{}
		for _, e := range n.Out {
			if e.Kind == EdgeStatic && e.Call != nil {
				static[e.Call] = e.Callee
			}
		}
		inspectNoLitNode(n.Body(), func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE && len(x.Lhs) == 1 && len(x.Rhs) == 1 {
					if lit, ok := x.Rhs[0].(*ast.FuncLit); ok {
						if id, ok := x.Lhs[0].(*ast.Ident); ok {
							ix.localHelperFrame(n, id, lit, async)
						}
					}
				}
			case *ast.CallExpr:
				ix.callbackFrames(n, x, static[x], async)
			}
			return true
		})
	}
}

// localHelperFrame checks the f := func(){...} shape: every use of f must be
// a plain call in n's own frame. Uses inside nested literals, non-call uses
// (passing f somewhere, reassigning it), and defer/go calls all disqualify.
func (ix *Index) localHelperFrame(n *CallNode, id *ast.Ident, lit *ast.FuncLit, async map[*ast.CallExpr]bool) {
	obj := ix.info.Defs[id]
	if obj == nil {
		return
	}
	ln := ix.graph.LitNode(lit)
	if ln == nil || ix.frames[ln] != nil {
		return
	}
	total := 0
	ast.Inspect(n.Body(), func(x ast.Node) bool {
		if u, ok := x.(*ast.Ident); ok && ix.info.Uses[u] == obj {
			total++
		}
		return true
	})
	var sites []*ast.CallExpr
	ok := true
	inspectNoLitNode(n.Body(), func(x ast.Node) bool {
		call, isCall := x.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if u, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && ix.info.Uses[u] == obj {
			if async[call] {
				ok = false
			}
			sites = append(sites, call)
		}
		return true
	})
	if !ok || len(sites) == 0 || len(sites) != total {
		return
	}
	ix.frames[ln] = &litFrame{parent: n, sites: sites}
}

// callbackFrames checks literal arguments of one call in n: sort callbacks
// get full frames (lock state transfers), strictly-called same-package
// callbacks get pre-publication-only frames.
func (ix *Index) callbackFrames(n *CallNode, call *ast.CallExpr, callee *CallNode, async map[*ast.CallExpr]bool) {
	if async[call] {
		return
	}
	if pkg, name, ok := ix.pkgFuncCall(call); ok {
		if pkg != "sort" {
			return
		}
		switch name {
		case "Slice", "SliceStable", "SliceIsSorted", "Search":
		default:
			return
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				if ln := ix.graph.LitNode(lit); ln != nil && ix.frames[ln] == nil {
					ix.frames[ln] = &litFrame{parent: n, sites: []*ast.CallExpr{call}}
				}
			}
		}
		return
	}
	if callee == nil || callee.Decl == nil {
		return
	}
	for i, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.FuncLit)
		if !ok {
			continue
		}
		ln := ix.graph.LitNode(lit)
		if ln == nil || ix.frames[ln] != nil {
			continue
		}
		if ix.paramStrictlyCalled(callee, i) {
			ix.frames[ln] = &litFrame{parent: n}
		}
	}
}

// paramStrictlyCalled reports whether the i-th parameter of callee is only
// ever invoked as a plain call in callee's own frame — never stored, passed
// on, deferred, or launched. Such a parameter runs entirely within one
// activation of callee, and therefore within the caller's activation too.
func (ix *Index) paramStrictlyCalled(callee *CallNode, i int) bool {
	if callee.Decl == nil || callee.Decl.Type.Params == nil {
		return false
	}
	var param *ast.Ident
	idx := 0
	for _, f := range callee.Decl.Type.Params.List {
		names := len(f.Names)
		if names == 0 {
			names = 1 // unnamed parameter: cannot be used, cannot match
		}
		if i < idx+names {
			if len(f.Names) > 0 {
				param = f.Names[i-idx]
			}
			break
		}
		idx += names
	}
	if param == nil {
		return false
	}
	obj := ix.info.Defs[param]
	if obj == nil {
		return false
	}
	async := map[*ast.CallExpr]bool{}
	collectAsyncCalls(callee.Body(), async)
	total := 0
	ast.Inspect(callee.Body(), func(x ast.Node) bool {
		if u, ok := x.(*ast.Ident); ok && ix.info.Uses[u] == obj {
			total++
		}
		return true
	})
	calls := 0
	ok := true
	inspectNoLitNode(callee.Body(), func(x ast.Node) bool {
		call, isCall := x.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if u, isID := ast.Unparen(call.Fun).(*ast.Ident); isID && ix.info.Uses[u] == obj {
			if async[call] {
				ok = false
			}
			calls++
		}
		return true
	})
	return ok && calls > 0 && calls == total
}

// rootIsFresh reports whether obj is a freshly constructed local visible to
// n: a fresh local of n itself or of any enclosing synchronous frame (a
// closure captures the enclosing function's locals directly).
func (ix *Index) rootIsFresh(n *CallNode, obj types.Object) bool {
	for f := n; f != nil; {
		if ix.fresh[f][obj] {
			return true
		}
		fr := ix.frames[f]
		if fr == nil {
			return false
		}
		f = fr.parent
	}
	return false
}

// PrePubRoot reports whether obj, as seen from n, is pre-publication state:
// a fresh local of n or an enclosing synchronous frame, or the receiver of
// the declaring function when that receiver never escapes construction.
func (ix *Index) PrePubRoot(n *CallNode, obj types.Object) bool {
	if obj == nil {
		return false
	}
	if ix.rootIsFresh(n, obj) {
		return true
	}
	f := n
	for ix.frames[f] != nil {
		f = ix.frames[f].parent
	}
	return f.Recv != nil && obj == f.Recv && ix.prepub[f]
}
