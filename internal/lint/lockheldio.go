package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/flow"
)

// LockHeldIOAnalyzer flags call chains that reach durability I/O — the vfs
// write surface (File.Sync, File.Write, FS.Rename, FS.SyncDir, and the
// vfs.WriteFileAtomic helper that wraps all four) — or a retry sleep while a
// sync mutex is held. Holding a lock across an fsync
// serializes every other writer behind a disk flush, and holding one across
// a backoff sleep serializes them behind a timer; both are the scalability
// cliff the ROADMAP's group-commit work exists to remove. The check is
// interprocedural: the flow summary layer says whether any call chain from a
// callee reaches I/O or a sleep, and the lock dataflow says which locks are
// held at the call site.
//
// Reporting discipline: a finding is attached only where the lock was
// *locally* acquired — the function that took the lock is the one that can
// move the I/O out from under it — and each (function, lock) pair reports
// once, at the first offending node in source order. internal/vfs itself is
// exempt: it is the I/O layer, and its fault-injection wrapper holds its own
// bookkeeping mutex around delegated calls by design.
var LockHeldIOAnalyzer = &Analyzer{
	Name: "lockheldio",
	Doc:  "durability I/O (vfs Sync/Write/Rename) or a retry sleep reached while a mutex is held",
	Run:  runLockHeldIO,
}

// vfsWriteClassifier classifies the vfs write-side surface for the flow
// summary layer: the calls whose latency must not sit under a lock. Reads
// through the seam are deliberately not included — serving reads under an
// RLock is the design.
func vfsWriteClassifier(info *types.Info) func(*ast.CallExpr) (string, bool) {
	return func(call *ast.CallExpr) (string, bool) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		// The commit helper is a package-level function of the seam: summaries
		// are per package, so without naming it here a manifest commit would
		// drop out of sight the moment its body moved into internal/vfs.
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Name() == "WriteFileAtomic" &&
			fn.Pkg() != nil && isVFSPackage(fn.Pkg().Path()) {
			return "vfs.WriteFileAtomic", true
		}
		if !typeFromVFS(typeOfInfo(info, sel.X)) {
			return "", false
		}
		switch sel.Sel.Name {
		case "Sync":
			return "File.Sync", true
		case "Write", "WriteString", "ReadFrom":
			return "File." + sel.Sel.Name, true
		case "Rename":
			return "FS.Rename", true
		case "SyncDir":
			return "FS.SyncDir", true
		}
		return "", false
	}
}

func typeOfInfo(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func runLockHeldIO(pass *Pass) {
	if pass.Pkg != nil && isVFSPackage(pass.Pkg.Path()) {
		return
	}
	ix := pass.FlowIndex()
	classify := vfsWriteClassifier(pass.Info)
	for _, node := range ix.Graph().Nodes {
		n := node
		reported := map[flow.LockKey]bool{}
		edgesBySite := map[*ast.CallExpr][]*flow.CallEdge{}
		for _, e := range n.Out {
			if e.Call != nil && e.Kind != flow.EdgeConservative {
				edgesBySite[e.Call] = append(edgesBySite[e.Call], e)
			}
		}
		inspectNoLit(n.Body(), func(x ast.Node) bool {
			switch x.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// Deferred calls run at return and goroutines run elsewhere;
				// neither executes under this program point's locks.
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			what := offendingCall(pass, ix, classify, edgesBySite[call], call)
			if what == "" {
				return true
			}
			for _, h := range ix.LocallyHeldAt(n, call) {
				if reported[h.Key] {
					continue
				}
				reported[h.Key] = true
				pass.Reportf(call.Pos(), "%s: %s reached while %s is held; fsync and retry sleeps must move out from under the lock", n.Name, what, h.Expr)
			}
			return true
		})
	}
}

// offendingCall classifies a call as reaching durability I/O or a sleep,
// directly or through a statically resolved callee's summary.
func offendingCall(pass *Pass, ix *flow.Index, classify func(*ast.CallExpr) (string, bool), edges []*flow.CallEdge, call *ast.CallExpr) string {
	if what, ok := classify(call); ok {
		return what
	}
	if name, ok := timeBlocker(pass, call); ok {
		return name
	}
	for _, e := range edges {
		sum := ix.Summary(e.Callee)
		if sum == nil {
			continue
		}
		if sum.IO {
			return e.Callee.Name + " → " + sum.IOWhy
		}
		if sum.Sleeps {
			return e.Callee.Name + " → " + sum.SleepWhy
		}
	}
	return ""
}

// timeBlocker matches the retry-backoff sleep surface.
func timeBlocker(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if pn, ok := pass.Info.Uses[id].(*types.PkgName); !ok || pn.Imported().Path() != "time" {
		return "", false
	}
	switch sel.Sel.Name {
	case "Sleep", "After", "Tick":
		return "time." + sel.Sel.Name, true
	}
	return "", false
}
