// Package lint is trasslint's engine: a project-specific static-analysis
// suite built entirely on the standard library's go/parser, go/ast and
// go/types. It exists because TraSS's correctness rests on invariants no
// general-purpose tool checks — lock discipline in the LSM substrate, the
// write→Sync→Rename→SyncDir durability order, the vfs filesystem seam,
// resource and goroutine lifetimes — and the project's stdlib-only constraint
// rules out golang.org/x/tools/go/analysis.
//
// The shape mirrors the x/tools analysis framework so analyzers stay small
// and testable: each Analyzer inspects one type-checked package through a
// Pass and reports Diagnostics. Suppression is explicit and audited: a
// comment of the form
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line above silences that analyzer there; a
// directive without a reason is itself a diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/lint/flow"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in diagnostics and lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer protects.
	Doc string
	// Run inspects the package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// All returns the full analyzer suite in stable order: the syntactic
// analyzers, the flow-aware ones built on internal/lint/flow, the
// interprocedural concurrency analyzers built on the call-graph summary
// layer, and the deadlock/lifetime analyzers built on the lock-order and
// obligation passes. waiverhygiene must stay last: it judges the directives
// every earlier analyzer consulted.
func All() []*Analyzer {
	return []*Analyzer{
		LocksAnalyzer,
		FloatCmpAnalyzer,
		ErrCheckAnalyzer,
		CtxLeakAnalyzer,
		VFSSeamAnalyzer,
		SyncRenameAnalyzer,
		CtxLoopAnalyzer,
		LoopRetainAnalyzer,
		GuardedByAnalyzer,
		GoLifetimeAnalyzer,
		LockHeldIOAnalyzer,
		LockOrderAnalyzer,
		MustCloseAnalyzer,
		WaiverHygieneAnalyzer,
	}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	pkg   *Package
	diags *[]Diagnostic
	run   *runState
}

// runState is shared by every pass of one Run: which analyzers have completed
// and which suppression directives exist (and were consulted). waiverhygiene
// reads it last to flag stale waivers.
type runState struct {
	executed   map[string]bool
	directives []*ignoreDirective
	byKey      map[ignoreKey]*ignoreDirective
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos      token.Pos
	analyzer string
	// used flips when the directive suppresses a finding.
	used bool
}

// FlowIndex returns the package's interprocedural index (call graph, lock
// dataflow, summaries), built once and shared by every analyzer that needs
// it. The I/O classifier injected into the summary layer is the vfs write
// surface — the durability calls lockheld-io polices.
func (p *Pass) FlowIndex() *flow.Index {
	if p.pkg.flowIdx == nil {
		p.pkg.flowIdx = flow.NewIndex(p.Files, p.Info, p.Pkg, flow.Options{
			IsIO: vfsWriteClassifier(p.Info),
		})
	}
	return p.pkg.flowIdx
}

type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// Report records a diagnostic at pos unless a lint:ignore directive covers it.
// A directive that suppresses a finding is marked used, so waiverhygiene can
// flag the ones that never fire.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, name := range []string{p.Analyzer.Name, "all"} {
			if d := p.run.byKey[ignoreKey{position.Filename, line, name}]; d != nil {
				d.used = true
				return
			}
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown (type errors).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.Info.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// AnalyzerPanic records an analyzer crash recovered by Run. The suite keeps
// going — one broken analyzer must not hide the others — but the crash is a
// hard failure for the caller (trasslint exits 2 and prints the stack).
type AnalyzerPanic struct {
	Analyzer string
	Package  string
	Value    any
	Stack    string
}

func (p AnalyzerPanic) Error() string {
	return fmt.Sprintf("analyzer %s panicked on %s: %v", p.Analyzer, p.Package, p.Value)
}

// Run executes the analyzers over pkg and returns their diagnostics sorted by
// position, plus every analyzer panic, recovered with its stack. Malformed
// lint:ignore directives are reported under analyzer "lint".
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerPanic) {
	var diags []Diagnostic
	run, bad := collectIgnores(pkg.Fset, pkg.Files)
	diags = append(diags, bad...)
	var panics []AnalyzerPanic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			pkg:      pkg,
			diags:    &diags,
			run:      run,
		}
		if p := protectedRun(a, pass); p != nil {
			panics = append(panics, *p)
		} else {
			run.executed[a.Name] = true
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, panics
}

// protectedRun executes one analyzer, converting a panic into an
// AnalyzerPanic with the goroutine stack attached.
func protectedRun(a *Analyzer, pass *Pass) (ap *AnalyzerPanic) {
	defer func() {
		if r := recover(); r != nil {
			ap = &AnalyzerPanic{
				Analyzer: a.Name,
				Package:  pass.pkg.Path,
				Value:    r,
				Stack:    string(debug.Stack()),
			}
		}
	}()
	a.Run(pass)
	return nil
}

// collectIgnores indexes lint:ignore directives by (file, line, analyzer).
// A directive must name an analyzer and give a non-empty reason; anything
// else is reported so suppressions stay auditable.
func collectIgnores(fset *token.FileSet, files []*ast.File) (*runState, []Diagnostic) {
	run := &runState{
		executed: make(map[string]bool),
		byKey:    make(map[ignoreKey]*ignoreDirective),
	}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "lint:ignore needs an analyzer name and a reason: //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				d := &ignoreDirective{pos: c.Pos(), analyzer: fields[0]}
				run.directives = append(run.directives, d)
				run.byKey[ignoreKey{pos.Filename, pos.Line, fields[0]}] = d
			}
		}
	}
	return run, bad
}

// --- shared type helpers -------------------------------------------------

// isPkgType reports whether t (after following pointers and named types) is
// the named type pkgPath.name.
func isPkgType(t types.Type, pkgPath, name string) bool {
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

// objInPkg reports whether obj is declared in the package with import path
// path.
func objInPkg(obj types.Object, path string) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// allFuncs yields every function body in the file — declarations and nested
// function literals — with its signature and a printable name. Flow-aware
// analyzers use this so each body gets its own control-flow graph.
func allFuncs(file *ast.File, fn func(name string, ft *ast.FuncType, body *ast.BlockStmt)) {
	var enclosing string
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				enclosing = n.Name.Name
				fn(n.Name.Name, n.Type, n.Body)
			}
		case *ast.FuncLit:
			name := "function literal"
			if enclosing != "" {
				name = "function literal in " + enclosing
			}
			fn(name, n.Type, n.Body)
		}
		return true
	})
}

// inspectNoLit walks n in source order without descending into function
// literals: their bodies are separate functions with their own graphs.
func inspectNoLit(n ast.Node, fn func(ast.Node) bool) {
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
