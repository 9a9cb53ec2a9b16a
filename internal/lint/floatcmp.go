package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatCmpAnalyzer flags == and != between floating-point values. The
// geometry and pruning layers (internal/geo, internal/dist, internal/xzstar)
// derive bounds from chains of float arithmetic, where exact equality is
// almost never what the math means: two different evaluation orders of the
// same bound differ in the last ulp, and a NaN silently compares unequal to
// everything. Comparisons must go through an epsilon helper; the rare
// intentional exact comparison (e.g. an untouched sentinel value) takes a
// lint:ignore with its justification.
//
// Two shapes are exempt. Comparisons where both operands are compile-time
// constants are exact by definition. And x == 0 / x != 0 against the
// compile-time constant zero is a well-defined predicate rather than a
// rounding accident: it is the guard in front of a division (a degenerate
// segment, a collinearity test) or the early exit of a nonnegative distance,
// where a value one ulp off zero is correctly NOT zero — the division is
// safe, and only the shortcut is skipped. No epsilon would mean more.
var FloatCmpAnalyzer = &Analyzer{
	Name: "floatcmp",
	Doc:  "exact ==/!= comparison of floating-point values; use an epsilon comparison",
	Run:  runFloatCmp,
}

func runFloatCmp(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xt, yt := pass.Info.Types[be.X], pass.Info.Types[be.Y]
			if !isFloat(xt.Type) && !isFloat(yt.Type) {
				return true
			}
			if xt.Value != nil && yt.Value != nil {
				return true // constant folding is exact
			}
			if isConstZero(xt.Value) || isConstZero(yt.Value) {
				return true
			}
			pass.Reportf(be.OpPos, "%s compares floating-point values exactly; use an epsilon comparison (or lint:ignore with justification)", be.Op)
			return true
		})
	}
}

// isConstZero reports whether v is a numeric compile-time constant equal to 0.
func isConstZero(v constant.Value) bool {
	return v != nil && (v.Kind() == constant.Int || v.Kind() == constant.Float) && constant.Sign(v) == 0
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
