package kv

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/vfs"
)

// A table whose footer or index claims a section or a block near 2^62 bytes
// fails to open or to read, with an error: offset plus length can wrap past
// the int64 range, and no check may let such a length reach an allocation.
func TestSSTableHugeLengthsFail(t *testing.T) {
	dir := t.TempDir()
	fsys := vfs.OS{}
	sw, err := newSSTWriter(fsys, dir, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sw.add(kindValue, []byte(fmt.Sprintf("k%d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sw.finish(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(sstPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	footer := orig[len(orig)-footerSize:]
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(footer[8*i:]) }
	indexOff, bloomOff := field(0), field(2)
	data, index, bloom := orig[:indexOff], orig[indexOff:bloomOff], orig[bloomOff:bloomOff+field(3)]

	// table lays out data, idx and the bloom filter under a fresh footer,
	// then sets footer fields (by number) to the given values.
	table := func(idx []byte, fields map[int]uint64) []byte {
		out := append(append([]byte(nil), data...), idx...)
		bo := len(out)
		out = append(out, bloom...)
		var f [footerSize]byte
		for i, v := range []uint64{uint64(len(data)), uint64(len(idx)), uint64(bo), uint64(len(bloom)), field(4), tableMagic} {
			binary.LittleEndian.PutUint64(f[8*i:], v)
		}
		for i, v := range fields {
			binary.LittleEndian.PutUint64(f[8*i:], v)
		}
		return append(out, f[:]...)
	}
	// entry is an index of one block, the whole data area's first key, at
	// the given offset and length.
	entry := func(off, length uint64) []byte {
		e := binary.AppendUvarint(nil, 2)
		e = append(e, "k0"...)
		e = binary.AppendUvarint(e, off)
		e = binary.AppendUvarint(e, length)
		return binary.AppendUvarint(e, uint64(crc32.ChecksumIEEE(data)))
	}
	if err := os.WriteFile(sstPath(dir, 2), table(index, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if sr, err := openSSTable(fsys, sstPath(dir, 2), 2, &Stats{}, nil); err != nil {
		t.Fatalf("the table laid out again: %v", err)
	} else if v, _, found, err := sr.get([]byte("k3")); err != nil || !found || string(v) != "value" {
		t.Fatalf("the table laid out again reads k3 as %q, %v, %v", v, found, err)
	} else {
		sr.release()
	}
	const huge = 1 << 62
	for i, c := range []struct {
		name string
		file []byte
	}{
		{"index offset and length wrap", table(index, map[int]uint64{0: huge, 1: huge})},
		{"index length past the file", table(index, map[int]uint64{1: huge})},
		{"bloom offset and length wrap", table(index, map[int]uint64{2: huge, 3: huge})},
		{"bloom length past the file", table(index, map[int]uint64{3: huge})},
		{"block length", table(entry(0, huge), nil)},
		{"block offset", table(entry(huge, uint64(len(data))), nil)},
		{"block offset and length wrap", table(entry(huge, huge), nil)},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := sstPath(dir, uint64(10+i))
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			sr, err := openSSTable(fsys, path, uint64(10+i), &Stats{}, nil)
			if err == nil {
				defer sr.release()
				_, _, _, err = sr.get([]byte("k0"))
			}
			if err == nil {
				t.Fatal("a table claiming 2^62 bytes opened and read without an error")
			}
		})
	}
}
