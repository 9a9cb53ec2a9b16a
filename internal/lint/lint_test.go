package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// wantRe extracts the expectation pattern from a `// want "..."` marker.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` marker: a diagnostic matching re must be
// reported on line.
type expectation struct {
	line int
	re   *regexp.Regexp
}

// sharedLoader is the one lint.Loader of the test binary: fixtures, scratch
// copies and the module-wide test all load through it, so the standard
// library and the module's own packages are type-checked from source once.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) { return lint.NewLoader(".") })

// loadDir type-checks the package in dir through the shared loader.
func loadDir(t *testing.T, dir string) *lint.Package {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("%s has type errors: %v", dir, pkg.TypeErrors)
	}
	return pkg
}

// loadFixture type-checks one seeded-violation package under testdata/src.
func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	return loadDir(t, filepath.Join("testdata", "src", name))
}

// run is lint.Run for tests that expect no analyzer to crash.
func run(t *testing.T, pkg *lint.Package, azs ...*lint.Analyzer) []lint.Diagnostic {
	t.Helper()
	diags, panics := lint.Run(pkg, azs)
	for _, p := range panics {
		t.Fatalf("%v\n%s", p, p.Stack)
	}
	return diags
}

// wantsOf collects the `// want` markers of a loaded fixture, keyed by line.
func wantsOf(t *testing.T, pkg *lint.Package) []expectation {
	t.Helper()
	var wants []expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pattern := strings.ReplaceAll(m[1], `\"`, `"`)
				re, err := regexp.Compile(pattern)
				if err != nil {
					t.Fatalf("bad want pattern %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, expectation{line: pos.Line, re: re})
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool { return wants[i].line < wants[j].line })
	return wants
}

// checkFixture runs exactly one analyzer over its fixture package and
// verifies the diagnostics match the `// want` markers one-to-one.
func checkFixture(t *testing.T, fixture string, az *lint.Analyzer) {
	t.Helper()
	checkFixtureMulti(t, fixture, []*lint.Analyzer{az})
}

// checkFixtureMulti is checkFixture for analyzers that only make sense in
// combination — waiverhygiene needs the analyzer whose waivers it audits to
// run in the same pass.
func checkFixtureMulti(t *testing.T, fixture string, azs []*lint.Analyzer) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	wants := wantsOf(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want markers; it proves nothing", fixture)
	}
	diags := run(t, pkg, azs...)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		pos := d.Pos
		found := false
		for i, w := range wants {
			if matched[i] || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("missing diagnostic on line %d: want match for %q", w.line, w.re)
		}
	}
}

func analyzerByName(t *testing.T, name string) *lint.Analyzer {
	t.Helper()
	for _, az := range lint.All() {
		if az.Name == name {
			return az
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

func TestLocksFixture(t *testing.T)    { checkFixture(t, "locksviol", analyzerByName(t, "locks")) }
func TestFloatcmpFixture(t *testing.T) { checkFixture(t, "floatviol", analyzerByName(t, "floatcmp")) }
func TestErrcheckFixture(t *testing.T) { checkFixture(t, "errviol", analyzerByName(t, "errcheck")) }
func TestCtxleakHandlerFixture(t *testing.T) {
	checkFixture(t, "handlerviol", analyzerByName(t, "ctxleak"))
}

func TestVfsseamFixture(t *testing.T) { checkFixture(t, "seamviol", analyzerByName(t, "vfsseam")) }
func TestSyncrenameFixture(t *testing.T) {
	checkFixture(t, "syncviol", analyzerByName(t, "syncrename"))
}
func TestCtxloopFixture(t *testing.T) { checkFixture(t, "loopviol", analyzerByName(t, "ctxloop")) }
func TestLoopretainFixture(t *testing.T) {
	checkFixture(t, "retainviol", analyzerByName(t, "loopretain"))
}

func TestGuardedbyFixture(t *testing.T) {
	checkFixture(t, "guardviol", analyzerByName(t, "guardedby"))
}
func TestGolifetimeFixture(t *testing.T) {
	checkFixture(t, "lifetimeviol", analyzerByName(t, "golifetime"))
}
func TestLockheldioFixture(t *testing.T) {
	checkFixture(t, "heldioviol", analyzerByName(t, "lockheldio"))
}

func TestLockorderFixture(t *testing.T) {
	checkFixture(t, "orderviol", analyzerByName(t, "lockorder"))
}
func TestMustcloseFixture(t *testing.T) {
	checkFixture(t, "mustviol", analyzerByName(t, "mustclose"))
}

// TestWaiverhygieneFixture runs floatcmp together with waiverhygiene: the
// used waiver stays silent, the stale one and the typo'd one are findings,
// and the comparison the typo failed to waive surfaces as well.
func TestWaiverhygieneFixture(t *testing.T) {
	checkFixtureMulti(t, "waiverviol", []*lint.Analyzer{
		analyzerByName(t, "floatcmp"),
		analyzerByName(t, "waiverhygiene"),
	})
}

// TestAllAnalyzers pins the analyzer roster: fourteen analyzers, distinct
// non-empty names, each with documentation, and waiverhygiene last — it
// audits the directives every earlier analyzer consulted.
func TestAllAnalyzers(t *testing.T) {
	all := lint.All()
	if len(all) != 14 {
		t.Fatalf("All() returned %d analyzers, want 14", len(all))
	}
	if all[len(all)-1].Name != "waiverhygiene" {
		t.Errorf("waiverhygiene must run last, roster ends with %q", all[len(all)-1].Name)
	}
	seen := map[string]bool{}
	for _, az := range all {
		if az.Name == "" || az.Doc == "" || az.Run == nil {
			t.Errorf("analyzer %+v is incomplete", az)
		}
		if seen[az.Name] {
			t.Errorf("duplicate analyzer name %q", az.Name)
		}
		seen[az.Name] = true
	}
}

// TestAnalyzerPanicRecovered: one crashing analyzer must not take down the
// suite — Run recovers it with a stack and the other analyzers' findings
// survive.
func TestAnalyzerPanicRecovered(t *testing.T) {
	pkg := loadFixture(t, "floatviol")
	boom := &lint.Analyzer{Name: "boom", Doc: "always panics", Run: func(*lint.Pass) { panic("kaboom") }}
	diags, panics := lint.Run(pkg, []*lint.Analyzer{boom, analyzerByName(t, "floatcmp")})
	if len(panics) != 1 {
		t.Fatalf("want 1 recovered panic, got %+v", panics)
	}
	p := panics[0]
	if p.Analyzer != "boom" || p.Value != "kaboom" {
		t.Errorf("panic misattributed: %+v", p)
	}
	if !strings.Contains(p.Stack, "goroutine") {
		t.Errorf("panic carries no stack: %q", p.Stack)
	}
	if len(diags) == 0 {
		t.Errorf("floatcmp findings lost after another analyzer panicked")
	}
}

// TestIgnoreDirectiveRequiresReason verifies that a bare lint:ignore without
// an analyzer name and reason is itself reported, not silently honored.
func TestIgnoreDirectiveRequiresReason(t *testing.T) {
	pkg := loadFixture(t, "floatviol")
	diags := run(t, pkg, lint.All()...)
	for _, d := range diags {
		if strings.Contains(d.Message, "malformed") {
			t.Errorf("well-formed fixture reported malformed directive: %s", d.Message)
		}
	}
}

// mutatedKV is the harness of the four spliced-bug acceptance tests: it
// requires az to be clean on the real internal/kv (so every finding below is
// the mutation's), copies kv's non-test sources into a scratch package under
// testdata — inside the module, so repro/internal/vfs imports resolve —
// applies mutate to the copy, and returns az's findings on it.
func mutatedKV(t *testing.T, az *lint.Analyzer, dirname string, mutate func(dir string)) []lint.Diagnostic {
	t.Helper()
	kvDir := filepath.Join("..", "kv")
	if diags := run(t, loadDir(t, kvDir), az); len(diags) != 0 {
		t.Fatalf("internal/kv is not clean under %s: %v", az.Name, diags)
	}
	scratch := filepath.Join("testdata", dirname)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(scratch) })
	entries, err := os.ReadDir(kvDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(kvDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(scratch, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mutate(scratch)
	return run(t, loadDir(t, scratch), az)
}

// rewriteFile replaces a scratch file's contents with edit(contents).
func rewriteFile(t *testing.T, path string, edit func(src []byte) []byte) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reported reports whether some diagnostic in file matches re.
func reported(diags []lint.Diagnostic, file string, re *regexp.Regexp) bool {
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == file && re.MatchString(d.Message) {
			return true
		}
	}
	return false
}

// TestSyncRenameCatchesReorder is the durability-contract acceptance test:
// swap the Sync and Rename steps of sstWriter.finish in a scratch copy of
// internal/kv and verify syncrename catches the reordering. No runtime suite
// does — FaultFS never persists a rename ahead of SyncDir (DESIGN.md §7).
func TestSyncRenameCatchesReorder(t *testing.T) {
	diags := mutatedKV(t, analyzerByName(t, "syncrename"), "scratch_syncrename", func(dir string) {
		// Swap the Sync if-statement and the Rename if-statement of finish by
		// their source ranges; the result is valid Go with the commit steps
		// reordered.
		path := filepath.Join(dir, "sstable.go")
		rewriteFile(t, path, func(src []byte) []byte {
			fset := token.NewFileSet()
			parsed, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			var syncStmt, renameStmt ast.Stmt
			for _, decl := range parsed.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != "finish" || fd.Body == nil {
					continue
				}
				for _, stmt := range fd.Body.List {
					ast.Inspect(stmt, func(x ast.Node) bool {
						sel, ok := x.(*ast.SelectorExpr)
						if !ok {
							return true
						}
						switch sel.Sel.Name {
						case "Sync":
							if syncStmt == nil {
								syncStmt = stmt
							}
						case "Rename":
							if renameStmt == nil {
								renameStmt = stmt
							}
						}
						return true
					})
				}
			}
			if syncStmt == nil || renameStmt == nil {
				t.Fatal("could not locate the Sync and Rename statements in sstWriter.finish")
			}
			off := func(p token.Pos) int { return fset.Position(p).Offset }
			sa, sb := off(syncStmt.Pos()), off(syncStmt.End())
			ra, rb := off(renameStmt.Pos()), off(renameStmt.End())
			if sb > ra {
				t.Fatalf("expected Sync (ends %d) before Rename (starts %d) in finish", sb, ra)
			}
			var mutated []byte
			mutated = append(mutated, src[:sa]...)
			mutated = append(mutated, src[ra:rb]...)
			mutated = append(mutated, src[sb:ra]...)
			mutated = append(mutated, src[sa:sb]...)
			return append(mutated, src[rb:]...)
		})
	})
	if !reported(diags, "sstable.go", regexp.MustCompile(`not preceded by a completed File\.Sync`)) {
		t.Fatal("reordered Sync/Rename in sstable.go was not caught by syncrename")
	}
}

// TestGuardedByCatchesDroppedLock is the concurrency-contract acceptance
// test: delete the db.mu.Lock()/defer db.mu.Unlock() pair from DB.Tables in a
// scratch copy of internal/kv and verify the now-unguarded db.tables read is
// caught — proving the guard was inferred from the other accesses, not
// declared anywhere.
func TestGuardedByCatchesDroppedLock(t *testing.T) {
	diags := mutatedKV(t, analyzerByName(t, "guardedby"), "scratch_guardedby", func(dir string) {
		// Delete the lock acquisition and its deferred release from Tables by
		// source range, leaving `return len(db.tables)` outside any guard.
		path := filepath.Join(dir, "store.go")
		rewriteFile(t, path, func(src []byte) []byte {
			fset := token.NewFileSet()
			parsed, err := parser.ParseFile(fset, path, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			off := func(p token.Pos) int { return fset.Position(p).Offset }
			var mutated []byte
			prev, cut := 0, 0
			for _, decl := range parsed.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != "Tables" || fd.Body == nil {
					continue
				}
				for _, stmt := range fd.Body.List {
					text := string(src[off(stmt.Pos()):off(stmt.End())])
					if strings.Contains(text, "db.mu.Lock") || strings.Contains(text, "db.mu.Unlock") {
						mutated = append(mutated, src[prev:off(stmt.Pos())]...)
						prev = off(stmt.End())
						cut++
					}
				}
			}
			if cut != 2 {
				t.Fatalf("expected to cut the Lock and deferred Unlock from Tables, found %d statements", cut)
			}
			return append(mutated, src[prev:]...)
		})
	})
	re := regexp.MustCompile(`DB\.tables is guarded by DB\.mu .* but this access does not hold db\.mu`)
	if !reported(diags, "store.go", re) {
		t.Fatal("unguarded db.tables read in Tables was not caught by guardedby")
	}
}

// TestLockOrderCatchesSplicedCycle is the deadlock-contract acceptance test:
// splice an inverted acquisition into each side of a scratch copy of
// internal/kv — flush takes db.commit.mu while holding db.mu, submit takes
// c.db.mu while holding c.mu — and verify lockorder reports the
// DB.mu/committer.mu cycle with a witness chain for each direction.
func TestLockOrderCatchesSplicedCycle(t *testing.T) {
	diags := mutatedKV(t, analyzerByName(t, "lockorder"), "scratch_lockorder", func(dir string) {
		// Insert each half of the inversion immediately before a statement
		// that is provably inside the other lock's critical section.
		splice := func(file, anchor, inserted string) {
			rewriteFile(t, filepath.Join(dir, file), func(src []byte) []byte {
				i := strings.Index(string(src), anchor)
				if i < 0 {
					t.Fatalf("anchor %q not found in %s", anchor, file)
				}
				return []byte(string(src[:i]) + inserted + string(src[i:]))
			})
		}
		// flush holds db.mu around `db.freezeLocked()`; submit holds c.mu
		// around the queue append.
		splice("store.go", "db.freezeLocked()", "db.commit.mu.Lock()\n\tdb.commit.mu.Unlock()\n\t")
		splice("commit.go", "c.queue = append(c.queue, req)", "c.db.mu.Lock()\n\tc.db.mu.Unlock()\n\t")
	})

	cycleRe := regexp.MustCompile(`lock-order cycle DB\.mu → committer\.mu → DB\.mu`)
	abRe := regexp.MustCompile(`committer\.mu \(db\.commit\.mu\) acquired while DB\.mu \(db\.mu\) held in .*flush`)
	baRe := regexp.MustCompile(`DB\.mu \(c\.db\.mu\) acquired while committer\.mu \(c\.mu\) held in .*submit`)
	var found bool
	for _, d := range diags {
		if !cycleRe.MatchString(d.Message) {
			continue
		}
		found = true
		if !abRe.MatchString(d.Message) {
			t.Errorf("cycle diagnostic lacks the flush-side witness: %s", d.Message)
		}
		if !baRe.MatchString(d.Message) {
			t.Errorf("cycle diagnostic lacks the submit-side witness: %s", d.Message)
		}
	}
	if !found {
		t.Fatal("spliced DB.mu/committer.mu inversion was not reported by lockorder")
	}
}

// TestMustCloseCatchesDeletedClose is the resource-lifetime acceptance test:
// delete the `defer merged.Close()` guarding the merge iterator of the
// table-build loop (DB.buildTable, under flush and compaction) in a scratch
// copy of internal/kv and verify the leaked iterator is named.
func TestMustCloseCatchesDeletedClose(t *testing.T) {
	diags := mutatedKV(t, analyzerByName(t, "mustclose"), "scratch_mustclose", func(dir string) {
		rewriteFile(t, filepath.Join(dir, "store.go"), func(src []byte) []byte {
			const closer = "defer merged.Close()\n"
			i := strings.Index(string(src), closer)
			if i < 0 {
				t.Fatalf("no %q in store.go to delete", strings.TrimSpace(closer))
			}
			return []byte(string(src[:i]) + string(src[i+len(closer):]))
		})
	})
	if !reported(diags, "store.go", regexp.MustCompile(`merged \(\*mergeIter\) is leaked: .*buildTable`)) {
		t.Fatal("deleted defer merged.Close() in buildTable was not caught by mustclose")
	}
}

// TestModuleLoadAll smoke-tests the loader against the real module: every
// package must load, and the lint gate must be clean (the repo's own code is
// the sixth fixture — one that must produce zero diagnostics).
func TestModuleLoadAll(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadAll found only %d packages; module walk is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "testdata") {
			t.Errorf("LoadAll descended into testdata: %s", pkg.Path)
		}
		for _, d := range run(t, pkg, lint.All()...) {
			t.Errorf("repo is not lint-clean: %s", d)
		}
	}
}
