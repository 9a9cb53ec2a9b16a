package server

// Differential tests of the hand-written match lines: appendMatch must write
// the bytes encoding/json writes for the same match, and parseMatchLine must
// read a line into exactly what json.Unmarshal reads, or decline it.

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	trass "repro"
	"repro/internal/gen"
	"repro/internal/traj"
)

// wireOracle is the WireMatch the server encoded with encoding/json before
// matches were written by hand; json.Marshal of it is the reference bytes.
func wireOracle(m trass.Match, includePoints bool) WireMatch {
	wm := WireMatch{ID: m.ID, Distance: m.Distance}
	if includePoints {
		wm.Points = make([][2]float64, len(m.Points))
		for i, p := range m.Points {
			wm.Points[i] = [2]float64{p.X, p.Y}
		}
	}
	return wm
}

// checkMatchBytes requires appendMatch to write json.Marshal's bytes for m
// as a match line, or to fail where json.Marshal fails; the line must then
// parse back as json.Unmarshal reads it, and an id encoding/json did not
// escape must take the fast path.
func checkMatchBytes(t testing.TB, m trass.Match, includePoints bool) {
	t.Helper()
	wm := wireOracle(m, includePoints)
	wantLine, wantErr := json.Marshal(StreamLine{Match: &wm})
	obj, err := appendMatch([]byte("prefix"), m, includePoints)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%+v: appendMatch error %v, json.Marshal error %v", m, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("%+v: appendMatch error %q, json.Marshal error %q", m, err, wantErr)
		}
		return
	}
	obj = bytes.TrimPrefix(obj, []byte("prefix"))
	line := append(append([]byte(`{"match":`), obj...), '}')
	if !bytes.Equal(line, wantLine) {
		t.Fatalf("stream line\n%s\njson.Marshal writes\n%s", line, wantLine)
	}
	if accepted := checkParse(t, line); !accepted && plainASCII(line) {
		t.Fatalf("parseMatchLine declined a line with no escape: %s", line)
	}
}

// plainASCII reports whether b is printable ASCII without a backslash: the
// only ids parseMatchLine reads itself.
func plainASCII(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c >= 0x80 || c == '\\' {
			return false
		}
	}
	return true
}

// checkParse requires parseMatchLine to decline line or to return, bit for
// bit, the match json.Unmarshal decodes from it. It reports acceptance.
func checkParse(t testing.TB, line []byte) bool {
	t.Helper()
	var scratch [][2]float64
	got, ok := parseMatchLine(line, &scratch)
	if !ok {
		return false
	}
	var sl StreamLine
	if err := json.Unmarshal(line, &sl); err != nil {
		t.Fatalf("parseMatchLine accepted %q, json.Unmarshal fails: %v", line, err)
	}
	if sl.Match == nil || sl.Done || sl.Results != 0 || sl.Stats != nil || sl.Error != "" {
		t.Fatalf("parseMatchLine accepted %q, json.Unmarshal reads %+v", line, sl)
	}
	if !sameWireMatch(got, *sl.Match) {
		t.Fatalf("line %q: parseMatchLine read %+v, json.Unmarshal %+v", line, got, *sl.Match)
	}
	return true
}

// sameWireMatch compares float bits, so -0 differs from 0, and a nil point
// slice differs from an empty one.
func sameWireMatch(a, b WireMatch) bool {
	if a.ID != b.ID || math.Float64bits(a.Distance) != math.Float64bits(b.Distance) ||
		(a.Points == nil) != (b.Points == nil) || len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		for j := range 2 {
			if math.Float64bits(a.Points[i][j]) != math.Float64bits(b.Points[i][j]) {
				return false
			}
		}
	}
	return true
}

var (
	edgeIDs = []string{"", "td000042", `a"b`, `a\b`, "<a&b>", "\x00\x1f", "\x7f", "\t", "é", "\xff\xfe", "a b", "a b/c"}

	edgeFloats = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-6, -1e-6, 1e-7,
		9.999999e-7, 1e-300, 0.1, 1.0 / 3, 0.7234567891234567, 123456789.125, 1e20,
		1e21, -1e21, 1.5e300, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)}
)

// edgeMatch builds a match from an id and three floats, with n points.
func edgeMatch(id string, d, x, y float64, n int) trass.Match {
	pts := []trass.Point{{X: x, Y: y}, {X: y, Y: d}, {X: d, Y: x}}
	return trass.Match{ID: id, Distance: d, Points: pts[:n%(len(pts)+1)]}
}

// TestMatchBytesMatchEncodingJSON covers the edges of encoding/json's string
// and float rules, then random matches, with and without points.
func TestMatchBytesMatchEncodingJSON(t *testing.T) {
	for _, id := range edgeIDs {
		for i, f := range edgeFloats {
			g := edgeFloats[(i*7+3)%len(edgeFloats)]
			for n := range 4 {
				for _, include := range []bool{false, true} {
					checkMatchBytes(t, edgeMatch(id, f, g, f, n), include)
					checkMatchBytes(t, edgeMatch(id, 0.5, f, g, n), include)
				}
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("td0123456789_-.:/ <>&\"\\\x00\x1f\x7f\xc3\xa9\xff")
	randFloat := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return math.Float64frombits(rng.Uint64())
		case 1:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 2:
			return rng.Float64()
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
	}
	for range 20000 {
		id := make([]byte, rng.Intn(12))
		for i := range id {
			id[i] = alphabet[rng.Intn(len(alphabet))]
		}
		checkMatchBytes(t, edgeMatch(string(id), randFloat(), randFloat(), randFloat(), rng.Intn(4)), rng.Intn(2) == 0)
	}
}

// TestParseMatchLineDeclines: lines of another shape go to json.Unmarshal,
// and lines of this shape in JSON's full number grammar are still read.
func TestParseMatchLineDeclines(t *testing.T) {
	for _, line := range []string{
		`{"match":{"id":"a","distance":-0.5e+3,"points":[[1E2,0],[-0,2.5e-1]]}}`,
		`{"match":{"id":"","distance":0}}`,
	} {
		if !checkParse(t, []byte(line)) {
			t.Errorf("parseMatchLine declined %s", line)
		}
	}
	for _, line := range []string{
		``,
		`{"done":true,"results":3}`,
		`{"match":{"id":"a\"b","distance":1}}`,
		`{"match":{"id":"a","distance":1} }`,
		`{"match": {"id":"a","distance":1}}`,
		`{"match":{"distance":1,"id":"a"}}`,
		`{"match":{"id":"a","distance":1e400}}`,
		`{"match":{"id":"a","distance":01}}`,
		`{"match":{"id":"a","distance":1.}}`,
		`{"match":{"id":"a","distance":.5}}`,
		`{"match":{"id":"a","distance":+1}}`,
		`{"match":{"id":"a","distance":NaN}}`,
		`{"match":{"id":"a","distance":1,"points":[]}}`,
		`{"match":{"id":"a","distance":1,"points":[[1]]}}`,
		`{"match":{"id":"a","distance":1,"points":[[1,2,3]]}}`,
		`{"match":{"id":"a","distance":1,"points":[[1,2],]}}`,
		`{"match":{"id":"a","distance":1}}x`,
		"{\"match\":{\"id\":\"\xc3\xa9\",\"distance\":1}}",
	} {
		if checkParse(t, []byte(line)) {
			t.Errorf("parseMatchLine accepted %s", line)
		}
	}
}

// FuzzMatchLine drives checkMatchBytes from id bytes, float bits and
// includePoints, and also feeds the id bytes to parseMatchLine as a line.
func FuzzMatchLine(f *testing.F) {
	for i, id := range edgeIDs {
		f.Add([]byte(id), math.Float64bits(edgeFloats[i]), math.Float64bits(edgeFloats[i+1]), uint8(i), i%2 == 0)
	}
	f.Add([]byte(`{"match":{"id":"a","distance":1,"points":[[1,2]]}}`), uint64(0), uint64(1), uint8(2), true)
	f.Fuzz(func(t *testing.T, id []byte, d, x uint64, n uint8, includePoints bool) {
		df, xf := math.Float64frombits(d), math.Float64frombits(x)
		checkMatchBytes(t, edgeMatch(string(id), df, xf, -df, int(n)), includePoints)
		checkParse(t, id)
	})
}

// checkWireFloat requires appendFloat to write json.Marshal's bytes for f,
// or to fail where it fails, and the bytes to parse back as strconv reads
// them. It reports whether both directions took the dyadic path.
func checkWireFloat(t testing.TB, f float64) bool {
	t.Helper()
	want, wantErr := json.Marshal(f)
	got, err := appendFloat([]byte("prefix"), f)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%v (%#x): appendFloat error %v, json.Marshal error %v", f, math.Float64bits(f), err, wantErr)
	}
	if err != nil {
		return false
	}
	got = bytes.TrimPrefix(got, []byte("prefix"))
	if !bytes.Equal(got, want) {
		t.Fatalf("%#x: appendFloat wrote %s, json.Marshal writes %s", math.Float64bits(f), got, want)
	}
	_, formatted := appendDyadic(nil, f)
	return checkWireNumber(t, got) && formatted
}

// checkWireNumber requires the wire parser to read tok, a JSON number, to
// strconv.ParseFloat's bits, or to fail where it fails. It reports whether
// the dyadic path read it.
func checkWireNumber(t testing.TB, tok []byte) bool {
	t.Helper()
	want, wantErr := strconv.ParseFloat(string(tok), 64)
	p := wireParser{b: tok}
	got, ok := p.number()
	if ok != (wantErr == nil) {
		t.Fatalf("%s: wire parser ok %v, strconv error %v", tok, ok, wantErr)
	}
	if ok && (p.i != len(tok) || math.Float64bits(got) != math.Float64bits(want)) {
		t.Fatalf("%s: wire parser read %v (%#x) over %d bytes, strconv %v (%#x)", tok, got, math.Float64bits(got), p.i, want, math.Float64bits(want))
	}
	_, _, parsed := parseDyadic(tok)
	return parsed
}

// TestWireFloatMatchesStrconv pins the dyadic fast paths to strconv, which
// is encoding/json's float format and parse: every k/2^30 with k < 2^20,
// 2^22 random k below 2^30, every power of two, the neighbours of the
// format's edges 1e-6 and 1, and values whose digits fall on a rounding tie;
// then 2^22 random "0.d…" tokens and as many near dyadic values. With -short
// or -race the sweep and each random set shrink to 2^16.
func TestWireFloatMatchesStrconv(t *testing.T) {
	const scale = 1 << 30
	nAll, nRandom := 1<<20, 1<<22
	if testing.Short() || raceEnabled {
		// One goroutine, nothing shared: -race has nothing to find here.
		nAll, nRandom = 1<<16, 1<<16
	}
	fast, total := 0, 0
	check := func(f float64) {
		total++
		if checkWireFloat(t, f) {
			fast++
		}
	}
	for k := range nAll {
		check(float64(k) / scale)
	}
	rng := rand.New(rand.NewSource(1))
	for range nRandom {
		check(float64(rng.Int63n(scale)) / scale)
	}
	for e := -1074; e <= 1023; e++ {
		check(math.Ldexp(1, e))
	}
	for _, edge := range []float64{1e-6, 1} {
		for _, k := range []int{-3, -2, -1, 0, 1, 2, 3} {
			f := edge*scale + float64(k)
			check(math.Floor(f) / scale)
			check(math.Ceil(f) / scale)
		}
		check(math.Nextafter(edge, 0))
		check(math.Nextafter(edge, 2))
	}
	// k = j·2^(29−n) with j odd puts f·10^n exactly halfway between two
	// n-digit decimals.
	for n := 14; n <= 22; n++ {
		for range 1000 {
			j := uint64(rng.Int63n(1<<(n+1))) | 1
			check(float64(j<<(29-n)) / scale)
		}
	}
	t.Logf("format: %d of %d values took the dyadic path both ways", fast, total)

	fast, total = 0, 0
	checkTok := func(tok []byte) {
		total++
		if checkWireNumber(t, tok) {
			fast++
		}
	}
	tok := make([]byte, 0, 24)
	for range nRandom {
		tok = append(tok[:0], "0."...)
		for range 1 + rng.Intn(19) {
			tok = append(tok, byte('0'+rng.Intn(10)))
		}
		checkTok(tok)
	}
	// Tokens near a dyadic value: its shortest digits with the last one
	// moved, or with more digits appended, up to one past the 19 read.
	for range nRandom {
		tok, _ = appendFloat(tok[:0], float64(1+rng.Int63n(scale-1))/scale)
		switch last := len(tok) - 1; rng.Intn(3) {
		case 0:
			if tok[last] < '9' {
				tok[last]++
			}
		case 1:
			if tok[last] > '1' {
				tok[last]--
			}
		default:
			for len(tok) < 2+20 && rng.Intn(4) > 0 {
				tok = append(tok, byte('0'+rng.Intn(10)))
			}
		}
		checkTok(tok)
	}
	t.Logf("parse: %d of %d tokens took the dyadic path", fast, total)
}

// FuzzWireFloat checks arbitrary float bits, and the k/2^30 a uint32 picks,
// both ways against strconv, and parses the fuzzed bytes as a number.
func FuzzWireFloat(f *testing.F) {
	f.Add(math.Float64bits(0.1), uint32(1<<29+1), []byte("0.5"))
	f.Add(math.Float64bits(1e-6), uint32(1074), []byte("0.1234567890123456789"))
	f.Add(math.Float64bits(math.Nextafter(1, 0)), uint32(1<<30-1), []byte("0.0000010e1"))
	f.Fuzz(func(t *testing.T, fbits uint64, k uint32, tok []byte) {
		checkWireFloat(t, math.Float64frombits(fbits))
		checkWireFloat(t, float64(k&(1<<30-1))/(1<<30))
		if _, err := strconv.ParseFloat(string(tok), 64); err == nil && validJSONNumber(tok) {
			checkWireNumber(t, tok)
		}
	})
}

// validJSONNumber reports whether tok is one number in JSON's grammar.
func validJSONNumber(tok []byte) bool {
	var n json.Number
	return json.Unmarshal(tok, &n) == nil && string(n) == string(tok)
}

// TestTDrivePointsTakeDyadicPath sends generated points through the codec,
// as a stored row does, and requires every coordinate in (0, 1) that is not
// a power of two to be written and read by the dyadic path, as strconv
// would. If the codec's resolution changes, this fails rather than the wire
// quietly losing its fast path.
func TestTDrivePointsTakeDyadicPath(t *testing.T) {
	coords := 0
	for _, tr := range gen.TDrive(gen.TDriveOptions{Seed: 1, N: 200}) {
		pts, err := traj.DecodePoints(traj.EncodePoints(tr.Points))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			for _, c := range []float64{p.X, p.Y} {
				if c <= 0 || c >= 1 {
					continue
				}
				if frac, _ := math.Frexp(c); frac == 0.5 {
					continue
				}
				coords++
				if !checkWireFloat(t, c) {
					t.Fatalf("coordinate %v (%#x) did not take the dyadic path", c, math.Float64bits(c))
				}
			}
		}
	}
	if coords == 0 {
		t.Fatal("no coordinate in (0, 1)")
	}
}

// BenchmarkMatchLine encodes and parses one stream line of a 100-point
// match, by hand and with encoding/json (the path the hand-written one
// replaced), and formats and parses single coordinates. The points go
// through the codec, so they are the k/2^30 values a stored row holds.
func BenchmarkMatchLine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := trass.Match{ID: "td000042", Distance: 0.0123456789}
	for range 100 {
		m.Points = append(m.Points, trass.Point{X: 0.7 + rng.Float64()/100, Y: 0.2 + rng.Float64()/100})
	}
	pts, err := traj.DecodePoints(traj.EncodePoints(m.Points))
	if err != nil {
		b.Fatal(err)
	}
	m.Points = pts
	var coords []float64
	var toks [][]byte
	for _, p := range pts {
		for _, c := range []float64{p.X, p.Y} {
			tok, _ := appendFloat(nil, c)
			coords, toks = append(coords, c), append(toks, tok)
		}
	}
	line, err := appendMatch([]byte(`{"match":`), m, true)
	if err != nil {
		b.Fatal(err)
	}
	line = append(line, '}')

	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		var buf []byte
		for range b.N {
			buf, _ = appendMatch(append(buf[:0], `{"match":`...), m, true)
			buf = append(buf, "}\n"...)
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		var scratch [][2]float64
		for range b.N {
			if _, ok := parseMatchLine(line, &scratch); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("float/format", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := range b.N {
			buf, _ = appendFloat(buf[:0], coords[i%len(coords)])
		}
	})
	b.Run("float/parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := range b.N {
			p := wireParser{b: toks[i%len(toks)]}
			if _, ok := p.number(); !ok {
				b.Fatal("declined")
			}
		}
	})
	b.Run("encoding_json/encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		enc := json.NewEncoder(io.Discard)
		for range b.N {
			wm := wireOracle(m, true)
			if err := enc.Encode(StreamLine{Match: &wm}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json/parse", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for range b.N {
			var sl StreamLine
			if err := json.Unmarshal(line, &sl); err != nil {
				b.Fatal(err)
			}
		}
	})
}
