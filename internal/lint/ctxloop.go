package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/flow"
)

// CtxLoopAnalyzer carries the cancellation rule from goroutine launches
// (golifetime) into loop bodies: the per-region retry/backoff in
// Cluster.Scan and any scan plumbing that iterates making RPC-shaped calls.
// The rule is "every retry loop observes its context" — a backoff loop
// that never looks at ctx turns cancellation into a no-op and holds region
// handlers (and their retained SSTables) for the full retry budget.
//
// Loops are found on the control-flow graph as natural loops (back edges
// whose target dominates their source), so goto-formed and labeled-continue
// loops are held to the same rule as for/range. A loop is suspect when it
//
//   - blocks in time.Sleep / time.After / time.Tick / time.NewTimer /
//     time.NewTicker (a backoff or polling loop), or
//   - issues calls that take a context.Context but feeds them a fresh
//     context.Background()/TODO() while a real ctx is in scope, or
//   - sends on a channel (a producer loop) while a ctx is in scope: a bare
//     send blocks forever once the consumer stops reading, so the producer
//     must race every send against ctx.Done().
//
// A suspect loop passes when its body observes a context — ctx.Err(),
// ctx.Done() (directly or in a select), or passing the in-scope ctx to a
// callee, which delegates the observation. Amortized checks (every N rows)
// count: the observation just has to live inside the loop. Function literals
// are separate functions and are analyzed on their own.
var CtxLoopAnalyzer = &Analyzer{
	Name: "ctxloop",
	Doc:  "retry/backoff or context-taking loop that never observes its context",
	Run:  runCtxLoop,
}

// timeBlockers is the time-package surface that makes a loop a backoff loop.
var timeBlockers = map[string]bool{
	"Sleep": true, "After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func runCtxLoop(pass *Pass) {
	for _, file := range pass.Files {
		allFuncs(file, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
			checkCtxLoop(pass, name, ft, body)
		})
	}
}

func checkCtxLoop(pass *Pass, name string, ft *ast.FuncType, body *ast.BlockStmt) {
	// Cheap pre-scan: only build a CFG for functions that touch time's
	// blocking surface or make context-taking calls inside some loop.
	relevant := false
	inspectNoLit(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if timeBlockerName(pass, call) != "" || callTakesCtx(pass, call) {
				relevant = true
			}
		}
		if _, ok := n.(*ast.SendStmt); ok {
			relevant = true
		}
		return !relevant
	})
	if !relevant {
		return
	}

	hasCtx := signatureHasCtx(pass, ft) || bodyHasCtxIdent(pass, body)
	g := flow.New(body)
	dom := g.Dominators()
	for _, loop := range dom.NaturalLoops() {
		var blocker *ast.CallExpr // first time.Sleep/After/... in the loop
		var blockerName string
		var freshCtxCall *ast.CallExpr // ctx-taking call fed Background/TODO
		var sendStmt *ast.SendStmt     // first channel send in the loop
		observed := false
		for blk := range loop.Body {
			for _, n := range blk.Nodes {
				inspectNoLit(n, func(x ast.Node) bool {
					if send, ok := x.(*ast.SendStmt); ok && sendStmt == nil {
						sendStmt = send
					}
					call, ok := x.(*ast.CallExpr)
					if !ok {
						return true
					}
					if nm := timeBlockerName(pass, call); nm != "" && blocker == nil {
						blocker, blockerName = call, nm
					}
					if isCtxObservation(pass, call) {
						observed = true
					}
					if callTakesCtx(pass, call) {
						if passesFreshCtx(pass, call) {
							if freshCtxCall == nil {
								freshCtxCall = call
							}
						} else {
							observed = true // delegates observation to the callee
						}
					}
					return true
				})
			}
		}
		switch {
		case blocker != nil && !observed:
			if hasCtx {
				pass.Reportf(blocker.Pos(), "%s: loop blocks in time.%s without observing ctx; select on ctx.Done() (or check ctx.Err()) each iteration so cancellation can interrupt the backoff", name, blockerName)
			} else {
				pass.Reportf(blocker.Pos(), "%s: retry/backoff loop has no context to observe; plumb a context.Context through so the loop can be cancelled", name)
			}
		case freshCtxCall != nil && hasCtx && !observed:
			pass.Reportf(freshCtxCall.Pos(), "%s: loop issues context-taking calls with a fresh Background/TODO context while a ctx is in scope; pass the caller's ctx so cancellation propagates", name)
		case sendStmt != nil && hasCtx && !observed:
			pass.Reportf(sendStmt.Pos(), "%s: producer loop sends on a channel without observing ctx; select on ctx.Done() alongside the send so a cancelled consumer cannot strand the producer", name)
		}
	}
}

// timeBlockerName returns the time-package blocker's name ("" when call is
// not one).
func timeBlockerName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := pass.Info.Uses[sel.Sel]
	if objInPkg(obj, "time") && timeBlockers[obj.Name()] {
		return obj.Name()
	}
	return ""
}

// isCtxObservation reports ctx.Err() / ctx.Done() on a context value.
func isCtxObservation(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Err" && sel.Sel.Name != "Done") {
		return false
	}
	return isContext(pass.TypeOf(sel.X))
}

// callTakesCtx reports whether some argument of call is a context.Context.
func callTakesCtx(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if isContext(pass.TypeOf(arg)) {
			return true
		}
	}
	return false
}

// passesFreshCtx reports whether every context argument of call is a fresh
// context.Background() / context.TODO() rather than a propagated one.
func passesFreshCtx(pass *Pass, call *ast.CallExpr) bool {
	fresh := false
	for _, arg := range call.Args {
		if !isContext(pass.TypeOf(arg)) {
			continue
		}
		inner, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		obj := pass.Info.Uses[sel.Sel]
		if !objInPkg(obj, "context") || (obj.Name() != "Background" && obj.Name() != "TODO") {
			return false
		}
		fresh = true
	}
	return fresh
}

// signatureHasCtx reports a context.Context parameter.
func signatureHasCtx(pass *Pass, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, f := range ft.Params.List {
		if isContext(pass.TypeOf(f.Type)) {
			return true
		}
	}
	return false
}

// bodyHasCtxIdent reports any identifier of type context.Context in the body
// (locals and closed-over variables both count as "in scope").
func bodyHasCtxIdent(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			var t types.Type
			if obj := pass.Info.Uses[id]; obj != nil {
				t = obj.Type()
			} else if obj := pass.Info.Defs[id]; obj != nil {
				t = obj.Type()
			}
			if isContext(t) {
				found = true
			}
		}
		return !found
	})
	return found
}
