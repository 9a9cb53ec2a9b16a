// Command trasslint runs the project's static-analysis suite (internal/lint)
// over the module: stdlib-only analyzers for the invariants TraSS depends on
// — lock discipline, float comparison hygiene, discarded errors, iterator
// key aliasing, goroutine lifecycle, the vfs filesystem seam, the
// write→Sync→Rename→SyncDir durability order, context observation in retry
// loops, and loop/buffer retention.
//
// Usage:
//
//	trasslint [-tests] [-v] [-format=text|json|github] [-only=a,b] [-skip=c] [packages]
//
// where packages is ./... (the default) or one or more package directories.
//
// Analyzer selection:
//
//	-list       print every analyzer with its one-line doc and exit
//	-only=a,b   run only the named analyzers
//	-skip=c,d   run everything except the named analyzers
//
// -only is applied before -skip, so "-only=locks,guardedby -skip=locks" runs
// just guardedby. Unknown names are an error (exit 2), not a silent no-op.
//
// Timing:
//
//	-timingjson=PATH   write per-analyzer wall time as a JSON artifact
//
// The artifact carries run metadata (experiment, git SHA from
// TRASSLINT_GIT_SHA or GITHUB_SHA, started_at, wall_ms) and one
// {name, ms, findings} row per analyzer: the per-analyzer cost an audit of
// the suite reads.
//
// Output formats:
//
//	text    one "file:line:col: [analyzer] message" line per finding (default)
//	json    a JSON array of {file,line,col,analyzer,message} objects
//	github  GitHub Actions ::error annotations, one per finding
//
// The default format can also be set with the TRASSLINT_FORMAT environment
// variable; the -format flag wins when both are given.
//
// Exit status (the contract CI relies on):
//
//	0  every analyzed package is clean
//	1  at least one diagnostic was reported
//	2  the module or a requested package failed to load, an analyzer
//	   panicked, or the -maxwall budget was exceeded
//
// An analyzer panic is recovered per analyzer — the rest of the suite still
// runs and its findings are still printed — but the run exits 2, the panic
// is reported like a finding (in -format=json with the goroutine stack in a
// "stack" field), and the stack goes to stderr in text mode. A crash must
// fail the gate loudly rather than silently dropping one analyzer's
// coverage.
//
// Wall-time budget:
//
//	-maxwall=DURATION   exit 2 if the whole run exceeds this wall time
//
// A regression tripwire for lint cost: a quadratic blowup in one analyzer
// fails the run instead of silently tripling its wall time.
//
// A summary timing line (packages, findings, elapsed) is always written to
// stderr so CI logs show where lint time goes; it never pollutes stdout,
// which carries only findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
	"repro/internal/vfs"
)

func main() {
	tests := flag.Bool("tests", false, "also analyze in-package _test.go files")
	verbose := flag.Bool("v", false, "log each analyzed package")
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", defaultFormat(), "output format: text, json, or github")
	only := flag.String("only", "", "comma-separated analyzers to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzers to exclude")
	timingJSON := flag.String("timingjson", "", "write per-analyzer timing JSON to this path")
	maxWall := flag.Duration("maxwall", 0, "fail (exit 2) if the run exceeds this wall time; 0 disables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: trasslint [-tests] [-v] [-format=text|json|github] [-only=a,b] [-skip=c] [-timingjson=path] [-maxwall=30s] [./... | dirs]\n")
		fmt.Fprintf(os.Stderr, "exit status: 0 clean, 1 findings, 2 load error\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "trasslint: unknown -format %q (want text, json, or github)\n", *format)
		os.Exit(2)
	}
	analyzers, err := selectAnalyzers(lint.All(), *only, *skip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trasslint: %v\n", err)
		os.Exit(2)
	}

	start := time.Now()
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *tests

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			all, err := loader.LoadAll()
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, all...)
		case strings.HasSuffix(arg, "/..."):
			all, err := loader.LoadAll()
			if err != nil {
				fatal(err)
			}
			prefix := filepath.Clean(strings.TrimSuffix(arg, "/...")) + string(filepath.Separator)
			for _, p := range all {
				rel, err := filepath.Rel(cwd, p.Dir)
				if err == nil && (strings.HasPrefix(rel+string(filepath.Separator), prefix) || rel == filepath.Clean(strings.TrimSuffix(arg, "/..."))) {
					pkgs = append(pkgs, p)
				}
			}
		default:
			p, err := loader.LoadDir(arg)
			if err != nil {
				fatal(err)
			}
			if p != nil {
				pkgs = append(pkgs, p)
			}
		}
	}

	var timings map[string]time.Duration
	if *timingJSON != "" {
		timings = map[string]time.Duration{}
	}
	var diags []lint.Diagnostic
	var panics []lint.AnalyzerPanic
	for _, pkg := range pkgs {
		if *verbose {
			fmt.Fprintf(os.Stderr, "trasslint: %s\n", pkg.Path)
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "trasslint: warning: %s: %v\n", pkg.Path, terr)
		}
		pkgDiags, pkgPanics := lint.RunTimed(pkg, analyzers, timings)
		for _, d := range pkgDiags {
			if r, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
				d.Pos.Filename = r
			}
			diags = append(diags, d)
		}
		panics = append(panics, pkgPanics...)
	}

	emit(*format, diags, panics)
	if *timingJSON != "" {
		if err := writeTimings(*timingJSON, analyzers, timings, diags, len(pkgs), start); err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "trasslint: %d packages, %d findings, %d panics, %s elapsed\n",
		len(pkgs), len(diags), len(panics), elapsed.Round(time.Millisecond))
	switch {
	case len(panics) > 0:
		os.Exit(2)
	case *maxWall > 0 && elapsed > *maxWall:
		fmt.Fprintf(os.Stderr, "trasslint: wall time %s exceeded -maxwall=%s budget\n",
			elapsed.Round(time.Millisecond), *maxWall)
		os.Exit(2)
	case len(diags) > 0:
		os.Exit(1)
	}
}

// selectAnalyzers applies -only then -skip to the full roster. Unknown names
// are errors so a typo cannot silently disable a gate.
func selectAnalyzers(all []*lint.Analyzer, only, skip string) ([]*lint.Analyzer, error) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(flagName, list string) (map[string]bool, error) {
		if list == "" {
			return nil, nil
		}
		set := map[string]bool{}
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("-%s: unknown analyzer %q (run trasslint -list)", flagName, name)
			}
			set[name] = true
		}
		return set, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if onlySet != nil && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analyzer selection is empty: -only=%q -skip=%q cancel out", only, skip)
	}
	return out, nil
}

// timingReport is the -timingjson payload: run metadata (experiment, git
// SHA, started_at, wall_ms) with one row per analyzer.
type timingReport struct {
	Experiment string      `json:"experiment"`
	GitSHA     string      `json:"git_sha,omitempty"`
	StartedAt  string      `json:"started_at"`
	WallMS     int64       `json:"wall_ms"`
	Packages   int         `json:"packages"`
	Findings   int         `json:"findings"`
	Analyzers  []timingRow `json:"analyzers"`
}

type timingRow struct {
	Name     string  `json:"name"`
	MS       float64 `json:"ms"`
	Findings int     `json:"findings"`
}

// writeTimings persists the per-analyzer timing artifact through the vfs
// seam. Rows keep roster order — stable across runs, so artifact diffs show
// cost movement, not reordering.
func writeTimings(path string, analyzers []*lint.Analyzer, timings map[string]time.Duration, diags []lint.Diagnostic, packages int, start time.Time) error {
	perAnalyzer := map[string]int{}
	for _, d := range diags {
		perAnalyzer[d.Analyzer]++
	}
	rep := timingReport{
		Experiment: "lint",
		GitSHA:     gitSHA(),
		StartedAt:  start.UTC().Format(time.RFC3339),
		WallMS:     time.Since(start).Milliseconds(),
		Packages:   packages,
		Findings:   len(diags),
	}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, timingRow{
			Name:     a.Name,
			MS:       float64(timings[a.Name].Microseconds()) / 1000,
			Findings: perAnalyzer[a.Name],
		})
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := vfs.Default.MkdirAll(dir); err != nil {
			return err
		}
	}
	f, err := vfs.Default.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trasslint: wrote %s\n", path)
	return nil
}

func gitSHA() string {
	if sha := os.Getenv("TRASSLINT_GIT_SHA"); sha != "" {
		return sha
	}
	return os.Getenv("GITHUB_SHA")
}

// defaultFormat resolves the format default from TRASSLINT_FORMAT so CI can
// flip the whole gate to annotations without touching flag plumbing.
func defaultFormat() string {
	if f := os.Getenv("TRASSLINT_FORMAT"); f != "" {
		return f
	}
	return "text"
}

// jsonDiag is the machine-readable finding shape: flat, stable field names.
// Stack is only set on analyzer-panic rows.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Stack    string `json:"stack,omitempty"`
}

func emit(format string, diags []lint.Diagnostic, panics []lint.AnalyzerPanic) {
	switch format {
	case "text":
		for _, d := range diags {
			fmt.Println(d.String())
		}
		for _, p := range panics {
			fmt.Printf("%s: [%s] PANIC: %v\n", p.Package, p.Analyzer, p.Value)
			fmt.Fprintf(os.Stderr, "trasslint: %v\n%s\n", p.Error(), p.Stack)
		}
	case "json":
		out := make([]jsonDiag, 0, len(diags)+len(panics))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		for _, p := range panics {
			out = append(out, jsonDiag{
				File:     p.Package,
				Analyzer: p.Analyzer,
				Message:  p.Error(),
				Stack:    p.Stack,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	case "github":
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=trasslint(%s)::%s\n",
				escapeProperty(d.Pos.Filename), d.Pos.Line, d.Pos.Column,
				escapeProperty(d.Analyzer), escapeData(d.Message))
		}
		for _, p := range panics {
			fmt.Printf("::error title=trasslint(%s) panic::%s\n",
				escapeProperty(p.Analyzer), escapeData(p.Error()))
		}
	}
}

// escapeData encodes an annotation message per the workflow-command rules.
func escapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// escapeProperty encodes an annotation property value (additionally , and :).
func escapeProperty(s string) string {
	s = escapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "trasslint: %v\n", err)
	os.Exit(2)
}
