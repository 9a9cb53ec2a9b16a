package cluster

import (
	"strings"
	"testing"

	"repro/internal/vfs"
)

// The MANIFEST encoding, pinned byte for byte: JSON (split keys base64) plus
// a newline. ("Zw==" = g, "bQ==" = m.)
const twoRegionManifest = `{"version":2,"split_keys":["bQ=="],"schema":"golden v1"}` + "\n"

func placeManifest(t *testing.T, fsys vfs.FS, content string) {
	t.Helper()
	if err := fsys.MkdirAll(clusterTortureDir); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFileAtomic(fsys, clusterTortureDir+"/"+manifestName, []byte(content)); err != nil {
		t.Fatal(err)
	}
}

func TestManifestGoldenBytes(t *testing.T) {
	fsys := vfs.NewFault()
	c, err := Open(Config{Dir: clusterTortureDir, FS: fsys, SplitKeys: [][]byte{[]byte("m")}, Schema: "golden v1"})
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

	// The reverse: those bytes, hand-placed, open the same cluster — whatever
	// shape the reopening caller asks for.
	placeManifest(t, fsys, twoRegionManifest)
	c, err = Open(Config{Dir: clusterTortureDir, FS: fsys, SplitKeys: [][]byte{[]byte("g")}, Schema: "other"})
	if err != nil {
		t.Fatalf("reopen from golden manifest: %v", err)
	}
	defer c.Close()
	checkTopology(t, c, -1)
	if rs := c.Regions(); len(rs) != 2 || string(rs[0].End()) != "m" {
		t.Fatalf("recovered %d regions, first ending at %q; want 2 split at \"m\"", len(rs), rs[0].End())
	}
	if c.Schema() != "golden v1" {
		t.Fatalf("Schema() = %q after reopen, want the recorded %q", c.Schema(), "golden v1")
	}
	if v, err := c.Get([]byte("zebra")); err != nil || string(v) != "v" {
		t.Fatalf("row after reopen: %q, %v", v, err)
	}
}

// Open must refuse a manifest it cannot route by — split keys that do not
// strictly ascend describe overlapping or empty regions — and one it cannot
// read, before opening any region store. A version-1 manifest (regions with
// ids and bounds, no shape) is refused with the way out. A manifest without
// split keys is not broken: it is a one-region cluster.
func TestOpenRejectsBrokenManifestTiling(t *testing.T) {
	cases := []struct {
		name, manifest, wantInErr string
	}{
		{"overlap", `{"version":2,"split_keys":["bQ==","Zw=="]}`, `not strictly ascending: "m" then "g"`},
		{"duplicate key", `{"version":2,"split_keys":["bQ==","bQ=="]}`, `not strictly ascending: "m" then "m"`},
		{"garbage", `{"version":2,"split_keys":[`, "parse manifest"},
		{"version 1", `{"version":1,"next_id":2,"regions":[{"id":0,"end":"bQ=="},{"id":1,"start":"bQ=="}]}`, "version 1 not supported (this build reads version 2): re-load"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := vfs.NewFault()
			placeManifest(t, fsys, tc.manifest+"\n")
			c, err := Open(Config{Dir: clusterTortureDir, FS: fsys})
			if err == nil {
				c.Close()
				t.Fatal("Open accepted the manifest")
			}
			if !strings.Contains(err.Error(), tc.wantInErr) {
				t.Fatalf("error %q does not say what is wrong (want %q)", err, tc.wantInErr)
			}
			if dirs := regionDirs(t, fsys, clusterTortureDir); len(dirs) != 0 {
				t.Fatalf("Open created region stores %v before rejecting the manifest", dirs)
			}
		})
	}

	t.Run("no keys", func(t *testing.T) {
		fsys := vfs.NewFault()
		placeManifest(t, fsys, `{"version":2}`+"\n")
		c, err := Open(Config{Dir: clusterTortureDir, FS: fsys, SplitKeys: [][]byte{[]byte("m")}})
		if err != nil {
			t.Fatalf("manifest without split keys: %v", err)
		}
		defer c.Close()
		if rs := c.Regions(); len(rs) != 1 || rs[0].Start() != nil || rs[0].End() != nil {
			t.Fatalf("manifest without split keys opened %d regions, want one unbounded", len(rs))
		}
	})
}
