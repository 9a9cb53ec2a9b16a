package lint

import (
	"go/ast"

	"repro/internal/lint/flow"
)

// LoopRetainAnalyzer flags defer accumulation: a defer inside a loop runs only
// at function return, so a scan that opens an iterator (or file, or region
// handler slot) per iteration and defers its Close holds every one of them
// until the whole function exits. Loops are detected as natural loops on the
// control-flow graph, so goto-formed loops count too; a defer inside a
// function literal that merely sits in a loop is fine (the literal is its own
// function and runs its defers when it returns). No runtime suite notices the
// bug — the handles are released, only late — so this rule is its one guard.
var LoopRetainAnalyzer = &Analyzer{
	Name: "loopretain",
	Doc:  "defer accumulation inside a loop",
	Run:  runLoopRetain,
}

func runLoopRetain(pass *Pass) {
	for _, file := range pass.Files {
		allFuncs(file, func(name string, _ *ast.FuncType, body *ast.BlockStmt) {
			checkDeferInLoops(pass, name, body)
		})
	}
}

// checkDeferInLoops flags defer statements whose block belongs to a natural
// loop of the enclosing function.
func checkDeferInLoops(pass *Pass, name string, body *ast.BlockStmt) {
	hasDefer := false
	inspectNoLit(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.DeferStmt); ok {
			hasDefer = true
		}
		return !hasDefer
	})
	if !hasDefer {
		return
	}
	g := flow.New(body)
	dom := g.Dominators()
	seen := map[ast.Node]bool{}
	for _, loop := range dom.NaturalLoops() {
		for blk := range loop.Body {
			for _, n := range blk.Nodes {
				d, ok := n.(*ast.DeferStmt)
				if !ok || seen[d] {
					continue
				}
				seen[d] = true
				pass.Reportf(d.Pos(), "%s: defer inside a loop runs only at function return, accumulating one deferred call per iteration; release explicitly or hoist the body into a function", name)
			}
		}
	}
}
