package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"repro/internal/vfs"
)

// The cluster MANIFEST records the region topology — bounds, IDs, and the
// next ID to allocate — so that a reopened cluster recovers regions created
// by auto-splitting instead of rebuilding only the static pre-splits. It is
// replaced atomically (vfs.WriteFileAtomic); a region
// directory not referenced by the manifest is garbage from an uncommitted
// split (or a committed split's deleted parent whose removal was not yet
// durable) and is deleted at Open.

const manifestName = "MANIFEST"

type manifest struct {
	Version int              `json:"version"`
	NextID  int              `json:"next_id"`
	Regions []manifestRegion `json:"regions"`
}

// manifestRegion is one region record. Start/End are the raw key bounds
// (base64 in the JSON encoding); nil means unbounded.
type manifestRegion struct {
	ID    int    `json:"id"`
	Start []byte `json:"start,omitempty"`
	End   []byte `json:"end,omitempty"`
}

// readManifest loads dir's MANIFEST, with its regions sorted by start key and
// checked to tile the key space. ok=false when none exists (a fresh or
// pre-manifest directory).
func readManifest(fsys vfs.FS, dir string) (*manifest, bool, error) {
	data, err := vfs.ReadFile(fsys, filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cluster: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, false, fmt.Errorf("cluster: parse manifest: %w", err)
	}
	if m.Version != 1 {
		return nil, false, fmt.Errorf("cluster: manifest version %d not supported", m.Version)
	}
	sort.SliceStable(m.Regions, func(i, j int) bool {
		a, b := m.Regions[i].Start, m.Regions[j].Start
		if a == nil || b == nil {
			return a == nil && b != nil // nil start = unbounded = first
		}
		return bytes.Compare(a, b) < 0
	})
	if err := m.checkTiling(); err != nil {
		return nil, false, err
	}
	return &m, true, nil
}

// checkTiling verifies that the recorded regions, in start-key order, tile the
// whole key space — first start unbounded, every end equal to the next start,
// last end unbounded — under unique ids. Routing indexes the region list on
// that assumption, so a manifest that breaks it must fail Open rather than
// panic or misroute at the first Put or Get.
func (m *manifest) checkTiling() error {
	recs := m.Regions
	if len(recs) == 0 {
		return fmt.Errorf("cluster: manifest lists no regions")
	}
	seen := make(map[int]bool, len(recs))
	for i, rec := range recs {
		if seen[rec.ID] {
			return fmt.Errorf("cluster: manifest lists region id %d twice", rec.ID)
		}
		seen[rec.ID] = true
		switch {
		case i == 0 && rec.Start != nil:
			return fmt.Errorf("cluster: manifest: first region %d starts at %q, want unbounded", rec.ID, rec.Start)
		case i > 0 && !bytes.Equal(recs[i-1].End, rec.Start):
			return fmt.Errorf("cluster: manifest: region %d ends at %s but its successor, region %d, starts at %q (gap or overlap)",
				recs[i-1].ID, boundString(recs[i-1].End), rec.ID, rec.Start)
		case i == len(recs)-1 && rec.End != nil:
			return fmt.Errorf("cluster: manifest: last region %d ends at %q, want unbounded", rec.ID, rec.End)
		}
	}
	return nil
}

// writeManifest atomically replaces dir's MANIFEST with the topology in
// regions (key order) and makes it durable, through vfs.WriteFileAtomic. This
// is the commit point for topology changes: splitRegion writes the post-split
// manifest before touching the parent region's files.
func writeManifest(fsys vfs.FS, dir string, nextID int, regions []*Region) error {
	m := manifest{Version: 1, NextID: nextID}
	for _, r := range regions {
		m.Regions = append(m.Regions, manifestRegion{ID: r.id, Start: r.start, End: r.end})
	}
	data, err := json.Marshal(&m)
	if err != nil {
		return fmt.Errorf("cluster: encode manifest: %w", err)
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, manifestName), append(data, '\n')); err != nil {
		return fmt.Errorf("cluster: commit manifest: %w", err)
	}
	return nil
}
