package flow

// The summary layer: per-function facts computed bottom-up over the call
// graph's SCCs, plus a lock-state dataflow precise enough to answer "which
// mutexes are definitely held when control reaches this node".
//
// A Summary records what a function does that its callers care about:
// whether any call chain from it reaches durability I/O or a retry sleep,
// whether its body observes a lifecycle signal
// (context, channel, WaitGroup), and its net lock effect (locks still held
// at exit that it acquired, locks it releases that it never acquired — the
// lock-helper shapes).
//
// Lock identity is (root object, selector path): "db.mu" inside a method is
// the pair (db's *types.Var, ".mu"), and a package-level mutex is (its var,
// ""). Identity is intentionally syntactic beyond the root object — two
// distinct expressions reaching the same mutex through different aliases are
// different locks to this analysis.
//
// Three deliberate approximations, shared by every client:
//
//   - held-ness is a MUST analysis seeded empty at entry, so the answer is a
//     sound under-approximation: "held" means held on every path. The
//     entry-held pass (below) adds locks every non-pre-publication caller
//     provably holds at every call site, so helpers called with the lock
//     held are credited interprocedurally.
//   - defer bodies are skipped by the lock transfer: a deferred Unlock runs
//     at return, so the lock stays held for the rest of the function — which
//     is exactly what the forward analysis should see.
//   - a function whose receiver never escapes construction (every call site
//     passes a freshly built value) is *pre-publication*: no other goroutine
//     can observe its effects yet, so lock-discipline analyzers exempt it.
//     Function literals never inherit pre-publication status — a closure can
//     outlive construction.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockKey identifies a mutex: the root object the lock expression hangs off
// plus the selector path from it (".mu", ".inner.mu", "" for a bare var).
// Root is nil for expressions the analysis cannot root (indexing, calls);
// those match by Path string only, within a single function.
type LockKey struct {
	Root types.Object
	Path string
}

// HeldLock is one mutex known to be held, with the flavor of the hold.
type HeldLock struct {
	Key LockKey
	// Expr is the lock expression as written where the hold was established
	// ("db.mu"), for diagnostics.
	Expr string
	// Write is true for Lock(), false for RLock().
	Write bool
}

// Summary is the bottom-up interprocedural fact set of one function.
type Summary struct {
	Node *CallNode
	// IO: some call chain from this function reaches durability I/O as
	// classified by Options.IsIO. IOWhy is the chain ("flushLocked → File.Sync").
	IO    bool
	IOWhy string
	// Sleeps: reaches time.Sleep or time.After (the retry-backoff surface).
	Sleeps   bool
	SleepWhy string
	// Lifecycle: the body observes a lifecycle signal — context Done/Err,
	// channel operations, WaitGroup use — directly or through a callee.
	// golifetime treats a spawned function with this set as joinable.
	Lifecycle bool
	// AcquiresAtExit: locks acquired here and still held on every path at
	// exit (lock-helper shape).
	AcquiresAtExit []HeldLock
	// ReleasesAtExit: locks this function releases on some path without
	// having acquired them (unlock-helper shape).
	ReleasesAtExit []LockKey
	// MayAcquire: lock classes some path through this function or its
	// synchronous callees may acquire (blocking acquisitions only), each with
	// a call-chain witness. The lockorder analyzer joins these with held-lock
	// facts into the package's acquisition-order graph.
	MayAcquire []AcquireFact
	// TouchedRecvFields: receiver struct fields this method (or a static
	// callee invoked on the same receiver) mentions. mustclose consults this
	// on the releaser methods of a type to decide whether storing a resource
	// into one of its fields hands the release obligation to the owner.
	TouchedRecvFields []*types.Var
}

// Options configures an Index.
type Options struct {
	// IsIO classifies a call as durability I/O, returning a short label
	// ("File.Sync"). nil disables I/O tracking (flow stays agnostic about
	// what counts as I/O; trasslint injects the vfs write surface).
	IsIO func(*ast.CallExpr) (string, bool)
}

// Index ties the call graph, summaries, lock dataflow and pre-publication
// facts of one package together behind query methods.
type Index struct {
	graph *CallGraph
	info  *types.Info
	pkg   *types.Package
	opts  Options

	sums  map[*CallNode]*Summary
	locks map[*CallNode]*funcLocks
	entry map[*CallNode][]HeldLock
	// fresh marks per-node locals bound to freshly constructed values
	// (x := &T{...}); prepub marks receivers that never escape construction.
	fresh  map[*CallNode]map[types.Object]bool
	prepub map[*CallNode]bool
	// frames maps literals that provably run inside one activation of their
	// enclosing function to that frame (see frames.go).
	frames map[*CallNode]*litFrame

	accesses map[*CallNode][]FieldAccess

	// Lock-order recording (order.go), computed lazily.
	orderDone  bool
	orderEdges []LockOrderEdge
	reacquires []Reacquire
	// obligations is the per-function resource-obligation cache
	// (obligations.go).
	obligations map[*CallNode][]Obligation
}

// funcLocks is the per-function lock dataflow state.
type funcLocks struct {
	g    *Graph
	dom  *DomTree
	refs []lockRef
	// static maps call sites to their static callee for lock-effect
	// application; async holds DeferStmt/GoStmt call exprs, whose effects do
	// not apply inline.
	static map[*ast.CallExpr]*CallNode
	async  map[*ast.CallExpr]bool
	// zeroIn / heldIn are block-entry facts for the zero-seeded (locally
	// acquired) and entry-seeded (locally ∪ entry) problems.
	zeroIn []Facts
	heldIn []Facts
	// entrySeed is the seed for heldIn, derived from the entry-held pass.
	entrySeed Facts
	// extraEntry holds entry locks with no local ref (never touched in the
	// body): constant throughout the function.
	extraEntry []HeldLock
}

type lockRef struct {
	key  LockKey
	expr string
}

// maxLockRefs bounds tracked locks per function: 2 bits each in a 64-bit
// fact set. Functions juggling more than 31 distinct lock expressions are
// beyond this analysis (and this codebase).
const maxLockRefs = 31

func (fl *funcLocks) refIndex(key LockKey) int {
	for i, r := range fl.refs {
		if r.key == key {
			return i
		}
	}
	return -1
}

func (fl *funcLocks) addRef(key LockKey, expr string) int {
	if i := fl.refIndex(key); i >= 0 {
		return i
	}
	if len(fl.refs) >= maxLockRefs {
		return -1
	}
	fl.refs = append(fl.refs, lockRef{key: key, expr: expr})
	return len(fl.refs) - 1
}

func writeBit(i int) Facts { return 1 << (2 * uint(i)) }
func readBit(i int) Facts  { return 1 << (2*uint(i) + 1) }

// NewIndex builds the interprocedural index for one package.
func NewIndex(files []*ast.File, info *types.Info, pkg *types.Package, opts Options) *Index {
	ix := &Index{
		graph:  BuildCallGraph(files, info, pkg),
		info:   info,
		pkg:    pkg,
		opts:   opts,
		sums:   map[*CallNode]*Summary{},
		locks:  map[*CallNode]*funcLocks{},
		entry:  map[*CallNode][]HeldLock{},
		fresh:  map[*CallNode]map[types.Object]bool{},
		prepub: map[*CallNode]bool{},
		frames: map[*CallNode]*litFrame{},
	}
	for _, n := range ix.graph.Nodes {
		ix.fresh[n] = ix.freshLocals(n)
	}
	ix.detectLitFrames()
	ix.computePrePub()
	for _, scc := range ix.graph.SCCs() {
		ix.summarizeSCC(scc)
	}
	ix.computeEntryHeld()
	return ix
}

// Graph returns the underlying call graph.
func (ix *Index) Graph() *CallGraph { return ix.graph }

// Summary returns n's summary (never nil for graph nodes).
func (ix *Index) Summary(n *CallNode) *Summary { return ix.sums[n] }

// EntryHeld returns the locks every non-pre-publication caller provably
// holds at every call site of n (the helper-called-with-lock-held set).
func (ix *Index) EntryHeld(n *CallNode) []HeldLock { return ix.entry[n] }

// HeldAt returns the locks definitely held (on every path) when control
// reaches target inside n, including locks held by every caller at entry.
func (ix *Index) HeldAt(n *CallNode, target ast.Node) []HeldLock {
	return ix.heldAt(n, target, false)
}

// LocallyHeldAt is HeldAt restricted to locks n itself acquired — the set a
// caller is responsible for, excluding entry-held credit.
func (ix *Index) LocallyHeldAt(n *CallNode, target ast.Node) []HeldLock {
	return ix.heldAt(n, target, true)
}

func (ix *Index) heldAt(n *CallNode, target ast.Node, localOnly bool) []HeldLock {
	fl := ix.locks[n]
	if fl == nil {
		return nil
	}
	b, node := fl.blockContaining(target)
	if b == nil || !fl.dom.Reachable(b) {
		// Dead or unlocated code: claim nothing rather than flag it.
		if localOnly {
			return nil
		}
		return append([]HeldLock(nil), fl.extraEntry...)
	}
	in := fl.heldIn
	if localOnly {
		in = fl.zeroIn
	}
	facts := FactsBefore(in[b.Index], b, node, fl.transfer(ix))
	held := fl.decode(facts)
	if !localOnly {
		held = append(held, fl.extraEntry...)
	}
	return held
}

func (fl *funcLocks) blockContaining(target ast.Node) (*Block, ast.Node) {
	for _, b := range fl.g.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= target.Pos() && target.End() <= n.End() {
				return b, n
			}
		}
	}
	return nil, nil
}

func (fl *funcLocks) decode(facts Facts) []HeldLock {
	var held []HeldLock
	for i, r := range fl.refs {
		if facts&writeBit(i) != 0 {
			held = append(held, HeldLock{Key: r.key, Expr: r.expr, Write: true})
		} else if facts&readBit(i) != 0 {
			held = append(held, HeldLock{Key: r.key, Expr: r.expr, Write: false})
		}
	}
	return held
}

// --- construction helpers -------------------------------------------------

// exprRootPath decomposes a pure selector chain into its root identifier and
// dotted path: db.mu → (db, ".mu"); mu → (mu, ""). Expressions with calls or
// indexing in the chain are not decomposable.
func exprRootPath(e ast.Expr) (*ast.Ident, string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e, "", true
	case *ast.SelectorExpr:
		root, path, ok := exprRootPath(e.X)
		if !ok {
			return nil, "", false
		}
		return root, path + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return exprRootPath(e.X)
	}
	return nil, "", false
}

// ExprRootPath is exprRootPath for analyzer clients: root object (via Uses
// then Defs) plus dotted path.
func ExprRootPath(info *types.Info, e ast.Expr) (types.Object, string, bool) {
	id, path, ok := exprRootPath(e)
	if !ok {
		return nil, "", false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return nil, "", false
	}
	return obj, path, true
}

// lockOp classifies a call as a sync mutex acquire/release on a decomposed
// lock key.
type lockOpKind int

const (
	lockNone lockOpKind = iota
	lockWrite
	lockRead
	unlockWrite
	unlockRead
)

func (ix *Index) lockOp(call *ast.CallExpr) (LockKey, string, lockOpKind) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockKey{}, "", lockNone
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "TryLock":
		kind = lockWrite
	case "RLock", "TryRLock":
		kind = lockRead
	case "Unlock":
		kind = unlockWrite
	case "RUnlock":
		kind = unlockRead
	default:
		return LockKey{}, "", lockNone
	}
	selection := ix.info.Selections[sel]
	if selection == nil {
		return LockKey{}, "", lockNone
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return LockKey{}, "", lockNone
	}
	expr := types.ExprString(sel.X)
	if obj, path, ok := ExprRootPath(ix.info, sel.X); ok {
		return LockKey{Root: obj, Path: path}, expr, kind
	}
	// Unrooted lock expression (indexing, call result): string identity.
	return LockKey{Root: nil, Path: expr}, expr, kind
}

// freshLocals collects locals bound to freshly constructed composite values:
// x := T{...}, x := &T{...}, x := new(T). Their state is unpublished for the
// whole function, so lock analyzers exempt accesses through them.
func (ix *Index) freshLocals(n *CallNode) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	inspectNoLitNode(n.Body(), func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if !isFreshValue(as.Rhs[i]) {
				continue
			}
			if obj := ix.info.Defs[id]; obj != nil {
				fresh[obj] = true
			}
		}
		return true
	})
	return fresh
}

func isFreshValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && id.Name == "new" && len(e.Args) == 1 {
			return true
		}
	}
	return false
}

// computePrePub marks methods whose receiver never escapes construction:
// every static call site invokes them on a fresh local of the caller, or on
// the receiver of a caller that is itself pre-publication. Exported names,
// interface/conservative in-edges, deferred/goroutine call sites, and
// call-site-less functions all disqualify (anyone might call them on shared
// state). The fixpoint iterates upward from direct fresh-receiver calls.
func (ix *Index) computePrePub() {
	async := map[*ast.CallExpr]bool{}
	for _, n := range ix.graph.Nodes {
		collectAsyncCalls(n.Body(), async)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range ix.graph.Nodes {
			if ix.prepub[n] || n.Recv == nil || n.Exported() || len(n.In) == 0 {
				continue
			}
			ok := true
			for _, e := range n.In {
				if e.Kind != EdgeStatic || e.Call == nil || async[e.Call] {
					ok = false
					break
				}
				if !ix.prePubCallSite(e) {
					ok = false
					break
				}
			}
			if ok {
				ix.prepub[n] = true
				changed = true
			}
		}
	}
}

// prePubCallSite reports whether a static method call's receiver expression
// is pre-publication state of the caller — a fresh local of the caller or an
// enclosing synchronous frame, or a receiver that itself never escaped
// construction.
func (ix *Index) prePubCallSite(e *CallEdge) bool {
	sel, ok := ast.Unparen(e.Call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	root, _, ok := ExprRootPath(ix.info, sel.X)
	if !ok {
		return false
	}
	return ix.PrePubRoot(e.Caller, root)
}

func collectAsyncCalls(body *ast.BlockStmt, async map[*ast.CallExpr]bool) {
	inspectNoLitNode(body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.DeferStmt:
			async[x.Call] = true
		case *ast.GoStmt:
			async[x.Call] = true
		}
		return true
	})
}

// --- summaries ------------------------------------------------------------

// summarizeSCC computes summaries for one SCC, iterating to a fixpoint when
// the component is cyclic (summary facts only ever turn on, so this
// terminates). Lock effects of same-SCC callees are not modeled — a
// recursive lock helper would deadlock anyway.
func (ix *Index) summarizeSCC(scc []*CallNode) {
	for _, n := range scc {
		ix.sums[n] = &Summary{Node: n}
	}
	for _, n := range scc {
		ix.buildFuncLocks(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range scc {
			if ix.summarize(n) {
				changed = true
			}
		}
	}
	for _, n := range scc {
		ix.lockEffects(n)
	}
}

// buildFuncLocks constructs the CFG and lock reference table for one node:
// direct sync calls plus mapped lock effects of already-summarized callees.
func (ix *Index) buildFuncLocks(n *CallNode) {
	fl := &funcLocks{
		static: map[*ast.CallExpr]*CallNode{},
		async:  map[*ast.CallExpr]bool{},
	}
	ix.locks[n] = fl
	for _, e := range n.Out {
		if e.Kind == EdgeStatic && e.Call != nil {
			fl.static[e.Call] = e.Callee
		}
	}
	collectAsyncCalls(n.Body(), fl.async)
	inspectNoLitNode(n.Body(), func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, expr, kind := ix.lockOp(call); kind != lockNone {
			fl.addRef(key, expr)
			return true
		}
		if callee := fl.static[call]; callee != nil && !fl.async[call] {
			if sum := ix.sums[callee]; sum != nil {
				for _, h := range sum.AcquiresAtExit {
					if key, expr, ok := ix.mapCalleeLock(call, callee, h.Key); ok {
						fl.addRef(key, expr)
					}
				}
				for _, k := range sum.ReleasesAtExit {
					if key, expr, ok := ix.mapCalleeLock(call, callee, k); ok {
						fl.addRef(key, expr)
					}
				}
			}
		}
		return true
	})
	fl.g = New(n.Body())
	fl.dom = fl.g.Dominators()
	fl.zeroIn = fl.g.Forward(0, Must, fl.transfer(ix))
	fl.heldIn = fl.zeroIn // until the entry-held pass reseeds
}

// mapCalleeLock translates a callee-side lock key into the caller's frame at
// a specific call site: package-level locks map unchanged; receiver-rooted
// locks substitute the call's receiver expression.
func (ix *Index) mapCalleeLock(call *ast.CallExpr, callee *CallNode, key LockKey) (LockKey, string, bool) {
	if key.Root == nil {
		return LockKey{}, "", false
	}
	if isPackageLevel(key.Root, ix.pkg) {
		return key, key.Root.Name() + key.Path, true
	}
	if callee.Recv == nil || key.Root != callee.Recv {
		return LockKey{}, "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockKey{}, "", false
	}
	root, path, ok := ExprRootPath(ix.info, sel.X)
	if !ok {
		return LockKey{}, "", false
	}
	return LockKey{Root: root, Path: path + key.Path}, types.ExprString(sel.X) + key.Path, true
}

func isPackageLevel(obj types.Object, pkg *types.Package) bool {
	return obj != nil && pkg != nil && obj.Parent() == pkg.Scope()
}

// transfer is the lock dataflow transfer function: sync calls set/clear the
// ref's bits; static calls apply the callee's net lock effect; defer bodies
// and goroutine launches are skipped (they do not run here).
func (fl *funcLocks) transfer(ix *Index) Transfer {
	return func(n ast.Node, in Facts) Facts {
		if _, ok := n.(*ast.DeferStmt); ok {
			return in
		}
		if _, ok := n.(*ast.GoStmt); ok {
			return in
		}
		inspectNoLitNode(n, func(x ast.Node) bool {
			if _, ok := x.(*ast.DeferStmt); ok {
				return false
			}
			if _, ok := x.(*ast.GoStmt); ok {
				return false
			}
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if key, _, kind := ix.lockOp(call); kind != lockNone {
				if i := fl.refIndex(key); i >= 0 {
					switch kind {
					case lockWrite:
						in |= writeBit(i) | readBit(i)
					case lockRead:
						in |= readBit(i)
					case unlockWrite:
						in &^= writeBit(i) | readBit(i)
					case unlockRead:
						in &^= readBit(i)
					}
				}
				return true
			}
			if callee := fl.static[call]; callee != nil && !fl.async[call] {
				if sum := ix.sums[callee]; sum != nil {
					for _, k := range sum.ReleasesAtExit {
						if key, _, ok := ix.mapCalleeLock(call, callee, k); ok {
							if i := fl.refIndex(key); i >= 0 {
								in &^= writeBit(i) | readBit(i)
							}
						}
					}
					for _, h := range sum.AcquiresAtExit {
						if key, _, ok := ix.mapCalleeLock(call, callee, h.Key); ok {
							if i := fl.refIndex(key); i >= 0 {
								if h.Write {
									in |= writeBit(i) | readBit(i)
								} else {
									in |= readBit(i)
								}
							}
						}
					}
				}
			}
			return true
		})
		return in
	}
}

// lockEffects derives AcquiresAtExit/ReleasesAtExit from two solved
// problems: zero-seeded (what is held at exit that entered free) and
// all-seeded (what entered held and is no longer). Deferred sync calls run
// at return — after the dataflow's exit facts — so their effects are applied
// to both exit states here: `mu.RLock(); defer mu.RUnlock()` nets to no
// effect, the helper shape the rest of the analysis depends on. A deferred
// unlock on a conditional path is applied unconditionally, which errs toward
// "not held at exit" / "released" — the sound direction for a must-analysis.
func (ix *Index) lockEffects(n *CallNode) {
	fl := ix.locks[n]
	sum := ix.sums[n]
	if len(fl.refs) == 0 {
		return
	}
	exit := fl.g.Exit.Index
	zeroExit := fl.deferredOps(ix, n, fl.zeroIn[exit])
	var allSeed Facts
	for i := range fl.refs {
		allSeed |= writeBit(i) | readBit(i)
	}
	allIn := fl.g.Forward(allSeed, Must, fl.transfer(ix))
	allExit := fl.deferredOps(ix, n, allIn[exit])
	for i, r := range fl.refs {
		if zeroExit&writeBit(i) != 0 {
			sum.AcquiresAtExit = append(sum.AcquiresAtExit, HeldLock{Key: r.key, Expr: r.expr, Write: true})
		} else if zeroExit&readBit(i) != 0 {
			sum.AcquiresAtExit = append(sum.AcquiresAtExit, HeldLock{Key: r.key, Expr: r.expr, Write: false})
		}
		if allExit&(writeBit(i)|readBit(i)) == 0 {
			sum.ReleasesAtExit = append(sum.ReleasesAtExit, r.key)
		}
	}
}

// deferredOps applies the lock effects of every deferred sync call in n's
// body to exit facts. Only direct mutex calls are modeled; a deferred call to
// a lock helper is beyond this pass (and flagged by locks' defer pairing).
func (fl *funcLocks) deferredOps(ix *Index, n *CallNode, facts Facts) Facts {
	inspectNoLitNode(n.Body(), func(x ast.Node) bool {
		ds, ok := x.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if key, _, kind := ix.lockOp(ds.Call); kind != lockNone {
			if i := fl.refIndex(key); i >= 0 {
				switch kind {
				case lockWrite:
					facts |= writeBit(i) | readBit(i)
				case lockRead:
					facts |= readBit(i)
				case unlockWrite:
					facts &^= writeBit(i) | readBit(i)
				case unlockRead:
					facts &^= readBit(i)
				}
			}
		}
		return true
	})
	return facts
}

// summarize folds direct facts and callee summaries into n's summary,
// reporting whether anything changed (for the SCC fixpoint).
func (ix *Index) summarize(n *CallNode) bool {
	sum := ix.sums[n]
	before := *sum
	ix.directFacts(n, sum)
	ix.collectAcquires(n, sum)
	ix.collectRecvFields(n, sum)
	fl := ix.locks[n]
	for _, e := range n.Out {
		if e.Kind == EdgeConservative {
			// A reference is not a call: the callee may never run, or run on
			// another goroutine. Its facts do not flow here.
			continue
		}
		cs := ix.sums[e.Callee]
		if cs == nil {
			continue
		}
		if cs.IO && !sum.IO {
			sum.IO, sum.IOWhy = true, e.Callee.Name+" → "+cs.IOWhy
		}
		if cs.Sleeps && !sum.Sleeps {
			sum.Sleeps, sum.SleepWhy = true, e.Callee.Name+" → "+cs.SleepWhy
		}
		sum.Lifecycle = sum.Lifecycle || cs.Lifecycle
		// Acquisition facts fold only through synchronous call sites: a
		// deferred call acquires at return and a goroutine on another stack,
		// so neither orders against locks held at this site.
		if e.Call != nil && (fl == nil || !fl.async[e.Call]) {
			for _, f := range cs.MayAcquire {
				chain := e.Callee.Name
				if f.Chain != "" {
					chain += " → " + f.Chain
				}
				sum.addAcquire(AcquireFact{Class: f.Class, Expr: f.Expr, Pos: f.Pos, Chain: chain})
			}
		}
		ix.foldRecvFields(n, e, sum)
	}
	return before.IO != sum.IO || before.Sleeps != sum.Sleeps ||
		before.Lifecycle != sum.Lifecycle ||
		len(before.MayAcquire) != len(sum.MayAcquire) ||
		len(before.TouchedRecvFields) != len(sum.TouchedRecvFields)
}

// directFacts scans n's own body (nested literals excluded — they are their
// own nodes) for lifecycle, sleep and I/O facts.
func (ix *Index) directFacts(n *CallNode, sum *Summary) {
	inspectNoLitNode(n.Body(), func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			sum.Lifecycle = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				sum.Lifecycle = true
			}
		case *ast.RangeStmt:
			if t := ix.typeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					sum.Lifecycle = true
				}
			}
		case *ast.CallExpr:
			ix.callFacts(x, sum)
		}
		return true
	})
}

func (ix *Index) callFacts(call *ast.CallExpr, sum *Summary) {
	if ix.opts.IsIO != nil {
		if what, ok := ix.opts.IsIO(call); ok && !sum.IO {
			sum.IO, sum.IOWhy = true, what
		}
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := ix.info.Uses[id].(*types.Builtin); isBuiltin {
			sum.Lifecycle = true
		}
	}
	if pkg, name, ok := ix.pkgFuncCall(call); ok && pkg == "time" {
		switch name {
		case "Sleep":
			if !sum.Sleeps {
				sum.Sleeps, sum.SleepWhy = true, "time.Sleep"
			}
		case "After", "Tick":
			if !sum.Sleeps {
				sum.Sleeps, sum.SleepWhy = true, "time."+name
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection := ix.info.Selections[sel]; selection != nil {
			if fn, ok := selection.Obj().(*types.Func); ok && fn.Pkg() != nil {
				if fn.Pkg().Path() == "sync" && isNamedType(selection.Recv(), "sync", "WaitGroup") {
					sum.Lifecycle = true
				}
				if fn.Pkg().Path() == "context" {
					switch sel.Sel.Name {
					case "Done", "Err", "Deadline":
						sum.Lifecycle = true
					}
				}
			}
		}
	}
	// Passing a context onward is lifecycle delegation: the callee observes
	// cancellation for this body.
	for _, arg := range call.Args {
		if isNamedType(ix.typeOf(arg), "context", "Context") {
			sum.Lifecycle = true
			break
		}
	}
}

func (ix *Index) pkgFuncCall(call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := ix.info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

func (ix *Index) typeOf(e ast.Expr) types.Type {
	if tv, ok := ix.info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := ix.info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// --- entry-held propagation ----------------------------------------------

// computeEntryHeld runs the top-down pass: a function's entry-held set is
// the intersection, over every static non-async call site, of the locks the
// caller provably holds there — mapped into the callee's frame. Exported
// names, interface/conservative in-edges and pre-publication call sites
// contribute nothing (the former because foreign callers are invisible, the
// latter because construction-time calls carry no concurrency obligation).
// The sets grow monotonically from ∅, so the least fixpoint is a sound
// under-approximation.
func (ix *Index) computeEntryHeld() {
	for changed := true; changed; {
		changed = false
		for _, scc := range ix.graph.SCCs() {
			for _, n := range scc {
				next := ix.entryHeldOf(n)
				if !sameHeld(ix.entry[n], next) {
					ix.entry[n] = next
					changed = true
				}
			}
			for _, n := range scc {
				ix.reseed(n)
			}
		}
	}
}

// entryHeldOf computes one node's entry-held set from current caller state.
func (ix *Index) entryHeldOf(n *CallNode) []HeldLock {
	if n.Lit != nil {
		// A literal with a synchronous frame and known run sites inherits the
		// intersection of what the frame holds at those sites — same frame,
		// same lock roots, no mapping needed. Other literals get nothing: the
		// closure may run anywhere.
		fr := ix.frames[n]
		if fr == nil || len(fr.sites) == 0 {
			return nil
		}
		var acc []HeldLock
		for i, site := range fr.sites {
			held := ix.HeldAt(fr.parent, site)
			if i == 0 {
				acc = held
			} else {
				acc = intersectHeld(acc, held)
			}
			if len(acc) == 0 {
				return nil
			}
		}
		return acc
	}
	if n.Exported() || len(n.In) == 0 {
		return nil
	}
	var acc []HeldLock
	first := true
	for _, e := range n.In {
		if e.Kind != EdgeStatic || e.Call == nil {
			return nil // invoked through a value or interface: context unknown
		}
		if ix.locks[e.Caller].async[e.Call] {
			return nil // deferred or goroutine call: held state there differs
		}
		if n.Recv != nil && ix.prePubCallSite(e) {
			continue // construction-time call: no concurrency yet
		}
		held := ix.heldAtCallMapped(e)
		if first {
			acc, first = held, false
		} else {
			acc = intersectHeld(acc, held)
		}
		if len(acc) == 0 && !first {
			return nil
		}
	}
	return acc
}

// heldAtCallMapped maps the caller's held set at a call site into the
// callee's frame: package-level locks pass through; locks rooted under the
// receiver expression re-root at the callee's receiver.
func (ix *Index) heldAtCallMapped(e *CallEdge) []HeldLock {
	held := ix.HeldAt(e.Caller, e.Call)
	var out []HeldLock
	var recvRoot types.Object
	var recvPath string
	if e.Callee.Recv != nil {
		if sel, ok := ast.Unparen(e.Call.Fun).(*ast.SelectorExpr); ok {
			recvRoot, recvPath, _ = ExprRootPath(ix.info, sel.X)
		}
	}
	for _, h := range held {
		if isPackageLevel(h.Key.Root, ix.pkg) {
			out = append(out, h)
			continue
		}
		if recvRoot == nil || h.Key.Root != recvRoot {
			continue
		}
		rest, ok := strings.CutPrefix(h.Key.Path, recvPath)
		if !ok || rest == "" {
			continue
		}
		out = append(out, HeldLock{
			Key:   LockKey{Root: e.Callee.Recv, Path: rest},
			Expr:  e.Callee.Recv.Name() + rest,
			Write: h.Write,
		})
	}
	return out
}

// reseed refreshes n's entry-seeded dataflow solution from its entry-held
// set, giving tracked locks their seed bits and parking untracked ones (no
// local lock/unlock of them exists) as constants.
func (ix *Index) reseed(n *CallNode) {
	fl := ix.locks[n]
	var seed Facts
	fl.extraEntry = nil
	for _, h := range ix.entry[n] {
		i := fl.refIndex(h.Key)
		if i < 0 {
			fl.extraEntry = append(fl.extraEntry, h)
			continue
		}
		if h.Write {
			seed |= writeBit(i) | readBit(i)
		} else {
			seed |= readBit(i)
		}
	}
	if seed == fl.entrySeed && fl.heldIn != nil {
		return
	}
	fl.entrySeed = seed
	if seed == 0 {
		fl.heldIn = fl.zeroIn
		return
	}
	fl.heldIn = fl.g.Forward(seed, Must, fl.transfer(ix))
}

func sameHeld(a, b []HeldLock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Write != b[i].Write {
			return false
		}
	}
	return true
}

func intersectHeld(a, b []HeldLock) []HeldLock {
	var out []HeldLock
	for _, x := range a {
		for _, y := range b {
			if x.Key == y.Key {
				h := x
				h.Write = x.Write && y.Write
				out = append(out, h)
				break
			}
		}
	}
	return out
}

// inspectNoLitNode walks n without descending into function literals (which
// are separate call-graph nodes with their own analyses).
func inspectNoLitNode(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		if _, ok := x.(*ast.FuncLit); ok && x != n {
			return false
		}
		return fn(x)
	})
}
