package lint

import (
	"go/ast"
	"go/types"
)

// LocksAnalyzer enforces lock pairing in the LSM substrate (internal/kv), the
// sharded cluster layer and the store metadata: a function that calls
// Lock/RLock on a sync mutex must also contain a matching Unlock/RUnlock for
// the same lock expression (deferred or on some path). A function that
// acquires and never releases is either a leak or an undocumented
// locked-helper and needs a lint:ignore. Copied locks are go vet's copylocks
// check, which runs in the same gate.
var LocksAnalyzer = &Analyzer{
	Name: "locks",
	Doc:  "Lock() without any matching Unlock()",
	Run:  runLocks,
}

func runLocks(pass *Pass) {
	for _, file := range pass.Files {
		checkLockPairs(pass, file)
	}
}

// lockCall identifies m.Lock / m.Unlock / m.RLock / m.RUnlock where the
// method really is sync.Mutex's or sync.RWMutex's, returning the lock
// expression key ("db.mu") and the method name.
func lockCall(pass *Pass, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	selection := pass.Info.Selections[sel]
	if selection == nil || !objInPkg(selection.Obj(), "sync") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// checkLockPairs flags functions that acquire a sync lock but contain no
// matching release for the same lock expression. The check is per function
// declaration, with nested function literals (defer/goroutine bodies)
// included — all-paths analysis is deliberately out of scope; the absence of
// any release at all is the bug class this catches.
func checkLockPairs(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		type counts struct {
			lock, unlock, rlock, runlock int
			firstLock, firstRLock        ast.Node
		}
		locks := map[string]*counts{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			key, method, ok := lockCall(pass, call)
			if !ok {
				return true
			}
			c := locks[key]
			if c == nil {
				c = &counts{}
				locks[key] = c
			}
			switch method {
			case "Lock", "TryLock":
				c.lock++
				if c.firstLock == nil {
					c.firstLock = call
				}
			case "Unlock":
				c.unlock++
			case "RLock", "TryRLock":
				c.rlock++
				if c.firstRLock == nil {
					c.firstRLock = call
				}
			case "RUnlock":
				c.runlock++
			}
			return true
		})
		for key, c := range locks {
			if c.lock > 0 && c.unlock == 0 {
				pass.Reportf(c.firstLock.Pos(), "%s: %s.Lock() with no %s.Unlock() anywhere in the function", fd.Name.Name, key, key)
			}
			if c.rlock > 0 && c.runlock == 0 {
				pass.Reportf(c.firstRLock.Pos(), "%s: %s.RLock() with no %s.RUnlock() anywhere in the function (Unlock() does not release a read lock)", fd.Name.Name, key, key)
			}
		}
	}
}
