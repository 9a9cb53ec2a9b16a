package lint

// WaiverHygieneAnalyzer audits the suppression directives themselves. A
// //lint:ignore that names an analyzer not in the roster is a typo that
// silently suppresses nothing; one that names a real analyzer but no longer
// has a finding to suppress is a stale waiver that will hide the next real
// finding added on that line. Both are reported so the waiver inventory
// decays with the code instead of accreting.
//
// Staleness is only judged for analyzers that actually completed this run:
// under -only (or after an analyzer panic) an unused directive proves
// nothing. Directives naming "lint" (malformed-directive findings are
// emitted outside the suppression path) or waiverhygiene itself are checked
// for roster membership but not staleness. This analyzer must run last —
// All() keeps it there — so every earlier analyzer has had its chance to
// mark directives used.
var WaiverHygieneAnalyzer = &Analyzer{
	Name: "waiverhygiene",
	Doc:  "every lint:ignore must name a roster analyzer and actually suppress a finding",
}

// Run is attached in init: runWaiverHygiene calls All(), which mentions this
// analyzer, and a direct reference in the composite literal would be an
// initialization cycle.
func init() { WaiverHygieneAnalyzer.Run = runWaiverHygiene }

func runWaiverHygiene(pass *Pass) {
	known := map[string]bool{"all": true, "lint": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	allRan := true
	for _, a := range All() {
		if a.Name != WaiverHygieneAnalyzer.Name && !pass.run.executed[a.Name] {
			allRan = false
		}
	}
	for _, d := range pass.run.directives {
		switch {
		case !known[d.analyzer]:
			pass.Reportf(d.pos, "lint:ignore names unknown analyzer %q; run trasslint -list for the roster", d.analyzer)
		case d.used:
		case d.analyzer == "lint" || d.analyzer == WaiverHygieneAnalyzer.Name:
			// not judged: "lint" findings bypass suppression, and a waiver of
			// waiverhygiene is consulted after this pass reports.
		case d.analyzer == "all" && !allRan:
		case d.analyzer != "all" && !pass.run.executed[d.analyzer]:
			// the named analyzer did not complete this run (-only or a
			// panic): unused proves nothing.
		default:
			pass.Reportf(d.pos, "stale waiver: %s reports no finding here; delete the lint:ignore or re-point it", d.analyzer)
		}
	}
}
