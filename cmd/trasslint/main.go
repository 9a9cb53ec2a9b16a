// Command trasslint runs the project's static-analysis suite (internal/lint)
// over the module: stdlib-only analyzers for the invariants TraSS depends on
// — lock pairing, guard and order, float comparison hygiene, discarded
// errors, goroutine and resource lifetimes, the vfs filesystem seam, the
// write→Sync→Rename→SyncDir durability order, context observation in retry
// loops, and defer accumulation.
//
// Usage:
//
//	trasslint [-list] [-format=text|github] [-only=a,b] [packages]
//
// where packages is ./... (the default) or one or more package directories.
//
//	-list       print every analyzer with its one-line doc and exit
//	-only=a,b   run only the named analyzers, to bisect a finding; unknown
//	            names are an error (exit 2), not a silent no-op
//	-format     text: one "file:line:col: [analyzer] message" line per finding
//	            (default); github: GitHub Actions ::error annotations
//
// The default format can also be set with the TRASSLINT_FORMAT environment
// variable; the -format flag wins when both are given.
//
// Exit status (the contract CI relies on):
//
//	0  every analyzed package is clean
//	1  at least one diagnostic was reported
//	2  the module or a requested package failed to load, or an analyzer
//	   panicked
//
// An analyzer panic is recovered per analyzer — the rest of the suite still
// runs and its findings are still printed — but the run exits 2, the panic
// is reported like a finding, and the stack goes to stderr in text mode. A
// crash must fail the gate loudly rather than silently dropping one
// analyzer's coverage.
//
// A summary timing line (packages, findings, elapsed) is always written to
// stderr so CI logs show what lint costs; it never pollutes stdout, which
// carries only findings.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	format := flag.String("format", defaultFormat(), "output format: text or github")
	only := flag.String("only", "", "comma-separated analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: trasslint [-list] [-format=text|github] [-only=a,b] [./... | dirs]\n")
		fmt.Fprintf(os.Stderr, "exit status: 0 clean, 1 findings, 2 load error or analyzer panic\n\nAnalyzers:\n")
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
	case "text", "github":
	default:
		fmt.Fprintf(os.Stderr, "trasslint: unknown -format %q (want text or github)\n", *format)
		os.Exit(2)
	}
	analyzers, err := selectAnalyzers(lint.All(), *only)
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

	var diags []lint.Diagnostic
	var panics []lint.AnalyzerPanic
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "trasslint: warning: %s: %v\n", pkg.Path, terr)
		}
		pkgDiags, pkgPanics := lint.Run(pkg, analyzers)
		for _, d := range pkgDiags {
			if r, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
				d.Pos.Filename = r
			}
			diags = append(diags, d)
		}
		panics = append(panics, pkgPanics...)
	}

	emit(*format, diags, panics)
	fmt.Fprintf(os.Stderr, "trasslint: %d packages, %d findings, %d panics, %s elapsed\n",
		len(pkgs), len(diags), len(panics), time.Since(start).Round(time.Millisecond))
	switch {
	case len(panics) > 0:
		os.Exit(2)
	case len(diags) > 0:
		os.Exit(1)
	}
}

// selectAnalyzers narrows the roster to the -only list. Unknown names are
// errors so a typo cannot silently disable a gate.
func selectAnalyzers(all []*lint.Analyzer, only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	picked := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if byName[name] == nil {
			return nil, fmt.Errorf("-only: unknown analyzer %q (run trasslint -list)", name)
		}
		picked[name] = true
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if picked[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only=%q names no analyzer", only)
	}
	return out, nil
}

// defaultFormat resolves the format default from TRASSLINT_FORMAT so CI can
// flip the whole gate to annotations without touching flag plumbing.
func defaultFormat() string {
	if f := os.Getenv("TRASSLINT_FORMAT"); f != "" {
		return f
	}
	return "text"
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
