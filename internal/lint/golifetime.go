package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/flow"
)

// GoLifetimeAnalyzer requires every goroutine launch to carry an
// interprocedurally visible join obligation: something that lets the rest of
// the program know the goroutine finished or tells the goroutine to stop.
// Accepted evidence, checked through the call-graph summaries so it may live
// arbitrarily deep in the spawned function's callees:
//
//   - the spawned body (transitively) observes a lifecycle signal — a
//     context's Done/Err, any channel operation, or sync.WaitGroup use;
//   - the launch passes the spawned function a channel, a context, or a
//     *sync.WaitGroup (the obligation is delegated through the argument).
//
// Launch sites whose target cannot be resolved within the package (function
// values, foreign functions) are skipped rather than guessed at. A goroutine
// failing both tests has no way to be joined or cancelled: exactly the leak
// shape a served, connection-per-client system multiplies without bound.
var GoLifetimeAnalyzer = &Analyzer{
	Name: "golifetime",
	Doc:  "goroutine launch with no interprocedurally visible join obligation (no WaitGroup, channel, or context reaches the spawned body)",
	Run:  runGoLifetime,
}

func runGoLifetime(pass *Pass) {
	ix := pass.FlowIndex()
	for _, node := range ix.Graph().Nodes {
		n := node
		inspectNoLit(n.Body(), func(x ast.Node) bool {
			g, ok := x.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, ix, g)
			return true
		})
	}
}

func checkGoStmt(pass *Pass, ix *flow.Index, g *ast.GoStmt) {
	if argsCarrySignal(pass, g.Call) {
		return
	}
	target := spawnTarget(pass, ix, g.Call)
	if target == nil {
		return // unresolvable launch: nothing sound to say
	}
	if sum := ix.Summary(target); sum != nil && sum.Lifecycle {
		return
	}
	pass.Reportf(g.Pos(), "goroutine runs %s, which never observes a context, channel, or WaitGroup (directly or via callees), and the launch passes it none: the goroutine cannot be joined or cancelled", target.Name)
}

// argsCarrySignal reports whether the launch hands the goroutine a lifecycle
// channel: a chan, a context, or a *sync.WaitGroup argument.
func argsCarrySignal(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		t := pass.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, ok := t.Underlying().(*types.Chan); ok {
			return true
		}
		if isContext(t) || isPkgType(t, "sync", "WaitGroup") {
			return true
		}
	}
	return false
}

// spawnTarget resolves the function a go statement runs: a literal, or a
// statically known function/method of this package.
func spawnTarget(pass *Pass, ix *flow.Index, call *ast.CallExpr) *flow.CallNode {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return ix.Graph().LitNode(fun)
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return ix.Graph().FuncNode(fn)
		}
	case *ast.SelectorExpr:
		if selection := pass.Info.Selections[fun]; selection != nil && selection.Kind() == types.MethodVal {
			if fn, ok := selection.Obj().(*types.Func); ok {
				return ix.Graph().FuncNode(fn)
			}
		}
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return ix.Graph().FuncNode(fn)
		}
	}
	return nil
}
