package xzstar

import (
	"fmt"

	"repro/internal/geo"
)

// PosCode is a position code: which combination of the enlarged element's
// four sub-quads a trajectory occupies (Section IV-B, Figure 3(e)). Valid
// codes are 1..10; 10 (only quad a) occurs only at the maximum resolution.
type PosCode uint8

// QuadMask is a bit set over the four sub-quads of an enlarged element.
type QuadMask uint8

// Sub-quad bits. The names follow Figure 3(d): a is the base cell (SW),
// b is SE, c is NW, d is NE.
const (
	QuadA QuadMask = 1 << iota
	QuadB
	QuadC
	QuadD
)

// Position codes in the paper's numbering. The assignment of codes 3..9 to
// quad combinations reproduces every worked I/O-reduction number in
// Section IV-B (verified in tests).
const (
	CodeAB   PosCode = 1  // {a,b}  — MBR-2
	CodeAC   PosCode = 2  // {a,c}  — MBR-3
	CodeAD   PosCode = 3  // {a,d}  — MBR-4
	CodeBC   PosCode = 4  // {b,c}  — MBR-4
	CodeABC  PosCode = 5  // {a,b,c} — MBR-4
	CodeACD  PosCode = 6  // {a,c,d} — MBR-4
	CodeABD  PosCode = 7  // {a,b,d} — MBR-4
	CodeBCD  PosCode = 8  // {b,c,d} — MBR-4
	CodeABCD PosCode = 9  // {a,b,c,d} — MBR-4
	CodeA    PosCode = 10 // {a}    — MBR-1, max resolution only
)

// codeToMask maps a position code to its quad combination.
var codeToMask = [11]QuadMask{
	0, // unused; codes start at 1
	QuadA | QuadB,
	QuadA | QuadC,
	QuadA | QuadD,
	QuadB | QuadC,
	QuadA | QuadB | QuadC,
	QuadA | QuadC | QuadD,
	QuadA | QuadB | QuadD,
	QuadB | QuadC | QuadD,
	QuadA | QuadB | QuadC | QuadD,
	QuadA,
}

// maskToCode is the inverse of codeToMask; 0 marks combinations that are not
// valid index spaces (single quads b, c, d, {b,d}, {c,d} and the empty set).
var maskToCode [16]PosCode

func init() {
	for p := PosCode(1); p <= 10; p++ {
		maskToCode[codeToMask[p]] = p
	}
}

// Mask returns the quad combination of p. It panics on an invalid code.
func (p PosCode) Mask() QuadMask {
	if p < 1 || p > 10 {
		panic(fmt.Sprintf("xzstar: invalid position code %d", p))
	}
	return codeToMask[p]
}

// Contains reports whether p's index space includes quad q.
func (p PosCode) Contains(q QuadMask) bool { return p.Mask()&q != 0 }

// NumQuads returns how many sub-quads p's index space contains.
func (p PosCode) NumQuads() int {
	m := p.Mask()
	n := 0
	for m != 0 {
		n += int(m & 1)
		m >>= 1
	}
	return n
}

// CodeForMask returns the position code for a quad combination and whether
// the combination is a valid index space.
func CodeForMask(m QuadMask) (PosCode, bool) {
	c := maskToCode[m&15]
	return c, c != 0
}

// AllCodes lists the position codes available at a resolution: 1..9 below the
// maximum resolution, 1..10 at it (Section IV-C).
func AllCodes(atMaxRes bool) []PosCode {
	if atMaxRes {
		return []PosCode{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	return []PosCode{1, 2, 3, 4, 5, 6, 7, 8, 9}
}

// quadOf returns the quad bit for point p inside the enlarged element of s.
// Points on the plane's far (upper/right) edge clamp inward, as the cell
// they anchor does (seqForPoint), so a coordinate of exactly 1 falls in the
// quad whose closed edge it lies on.
func quadOf(p geo.Point, origin geo.Point, w float64) QuadMask {
	var ixd, iyd int
	if clampCoord(p.X) >= origin.X+w {
		ixd = 1
	}
	if clampCoord(p.Y) >= origin.Y+w {
		iyd = 1
	}
	switch {
	case ixd == 0 && iyd == 0:
		return QuadA
	case ixd == 1 && iyd == 0:
		return QuadB
	case ixd == 0 && iyd == 1:
		return QuadC
	default:
		return QuadD
	}
}

// codeForPoints computes the position code of a trajectory (its discrete
// points) within the enlarged element of s. Occupancy is decided by the
// points themselves, not the interpolated segments: Lemma 10's soundness
// rests on every quad in the combination containing at least one actual
// point of the trajectory.
func codeForPoints(pts []geo.Point, s Seq) PosCode {
	c := s.Cell()
	w := c.Width()
	var m QuadMask
	for _, p := range pts {
		m |= quadOf(p, c.Min, w)
		if m == QuadA|QuadB|QuadC|QuadD {
			break
		}
	}
	code, ok := CodeForMask(m)
	if !ok {
		// The sequence was derived from the MBR's lower-left corner, so the
		// occupied quads always form one of the ten combinations; anything
		// else is a caller bug (points disagree with the sequence).
		panic(fmt.Sprintf("xzstar: occupancy %04b of %s is not an index space", m, s))
	}
	return code
}
