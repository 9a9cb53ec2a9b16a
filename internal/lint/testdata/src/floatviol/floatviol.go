// Package floatviol seeds violations for the floatcmp analyzer: exact
// equality comparisons between floating-point values.
package floatviol

func eq(a, b float64) bool {
	return a == b // want "compares floating-point values exactly"
}

func neq(a, b float32) bool {
	return a != b // want "compares floating-point values exactly"
}

func mixed(a float64, n int) bool {
	return a == float64(n) // want "compares floating-point values exactly"
}

// Constant folding is exempt: both sides are untyped constants.
const third = 1.0 / 3.0

var constOK = third == 0.3333333333333333

// Ordered comparisons are exempt — only == and != are fragile.
func ordered(a, b float64) bool {
	return a < b || a >= b
}

// Comparison against the compile-time constant zero is exempt on either
// side: a division guard or a nonnegative-distance early exit.
const zero = 0.0

func zeroOK(d float64) bool {
	return d == 0 || 0 != d || d == zero || d != 0.0
}

// Any other constant is not.
func one(d float64) bool {
	return d == 1 // want "compares floating-point values exactly"
}

// A justified suppression must silence the diagnostic.
func suppressed(d, sentinel float64) bool {
	//lint:ignore floatcmp the sentinel is stored and compared untouched in this fixture
	return d == sentinel
}

// Integer equality is exempt.
func ints(a, b int64) bool {
	return a == b
}
