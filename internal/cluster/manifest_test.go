package cluster

import (
	"strings"
	"testing"

	"repro/internal/vfs"
)

// The MANIFEST encoding, pinned byte for byte: JSON (bounds base64) plus a
// newline. A directory written before vfs.WriteFileAtomic took over the
// commit must open afterwards, and the reverse.
const twoRegionManifest = `{"version":1,"next_id":2,"regions":[{"id":0,"end":"bQ=="},{"id":1,"start":"bQ=="}]}` + "\n"

func TestManifestGoldenBytes(t *testing.T) {
	fsys := vfs.NewFault()
	c, err := Open(Config{Dir: clusterTortureDir, FS: fsys, SplitKeys: [][]byte{[]byte("m")}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put([]byte("zebra"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(fsys, clusterTortureDir+"/"+manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != twoRegionManifest {
		t.Fatalf("MANIFEST bytes:\n got %q\nwant %q", got, twoRegionManifest)
	}

	// The reverse: those bytes, hand-placed, recover the same topology.
	if err := vfs.WriteFileAtomic(fsys, clusterTortureDir+"/"+manifestName, []byte(twoRegionManifest)); err != nil {
		t.Fatal(err)
	}
	c, err = Open(Config{Dir: clusterTortureDir, FS: fsys})
	if err != nil {
		t.Fatalf("reopen from golden manifest: %v", err)
	}
	defer c.Close()
	checkTopology(t, c, -1)
	if rs := c.Regions(); len(rs) != 2 || string(rs[0].End()) != "m" {
		t.Fatalf("recovered %d regions, first ending at %q; want 2 split at \"m\"", len(rs), rs[0].End())
	}
	if v, err := c.Get([]byte("zebra")); err != nil || string(v) != "v" {
		t.Fatalf("row after reopen: %q, %v", v, err)
	}
}

// Open must refuse a manifest whose regions do not tile the key space under
// unique ids — before opening any region store — instead of panicking in the
// routing search or silently misrouting rows at the first Put or Get.
// (Bounds: "Zw==" = g, "bQ==" = m, "dA==" = t.)
func TestOpenRejectsBrokenManifestTiling(t *testing.T) {
	cases := []struct {
		name, regions, wantInErr string
	}{
		{"gap", `{"id":0,"end":"Zw=="},{"id":1,"start":"bQ=="}`, "region 0 ends at \"g\" but its successor, region 1, starts at \"m\""},
		{"overlap", `{"id":0,"end":"bQ=="},{"id":1,"start":"Zw=="}`, "region 0 ends at \"m\" but its successor, region 1, starts at \"g\""},
		{"bounded tail", `{"id":0,"end":"bQ=="},{"id":1,"start":"bQ==","end":"dA=="}`, "last region 1 ends at \"t\""},
		{"duplicate id", `{"id":0,"end":"bQ=="},{"id":0,"start":"bQ=="}`, "region id 0 twice"},
		{"bounded head", `{"id":0,"start":"Zw==","end":"bQ=="},{"id":1,"start":"bQ=="}`, "first region 0 starts at \"g\""},
		{"no regions", ``, "no regions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := vfs.NewFault()
			if err := fsys.MkdirAll(clusterTortureDir); err != nil {
				t.Fatal(err)
			}
			m := `{"version":1,"next_id":2,"regions":[` + tc.regions + `]}` + "\n"
			if err := vfs.WriteFileAtomic(fsys, clusterTortureDir+"/"+manifestName, []byte(m)); err != nil {
				t.Fatal(err)
			}
			c, err := Open(Config{Dir: clusterTortureDir, FS: fsys})
			if err == nil {
				c.Close()
				t.Fatal("Open accepted the manifest")
			}
			if !strings.Contains(err.Error(), tc.wantInErr) {
				t.Fatalf("error %q does not name the offending region (want %q)", err, tc.wantInErr)
			}
			if dirs := regionDirs(t, fsys, clusterTortureDir); len(dirs) != 0 {
				t.Fatalf("Open created region stores %v before rejecting the manifest", dirs)
			}
		})
	}
}
