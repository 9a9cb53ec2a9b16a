package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"repro/internal/vfs"
)

// The cluster MANIFEST records the shape the directory was created with: the
// ascending split keys — region i is directory region-%04d of i, bounded by
// keys i-1 and i — and the caller's schema string. It is written once, at
// creation, through vfs.WriteFileAtomic, and only read after that.

const (
	manifestName    = "MANIFEST"
	manifestVersion = 2
)

// manifest is the MANIFEST's JSON encoding; split keys are base64 there.
type manifest struct {
	Version   int      `json:"version"`
	SplitKeys [][]byte `json:"split_keys,omitempty"`
	Schema    string   `json:"schema,omitempty"`
}

// readManifest loads dir's MANIFEST. ok=false when none exists: a directory
// still to be created.
func readManifest(fsys vfs.FS, dir string) (m *manifest, ok bool, err error) {
	data, err := vfs.ReadFile(fsys, filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cluster: read manifest: %w", err)
	}
	m = new(manifest)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, false, fmt.Errorf("cluster: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		// Version 1 listed regions but not the shape they were written with,
		// so there is nothing to check a reopen against.
		return nil, false, fmt.Errorf("cluster: manifest version %d not supported (this build reads version %d): re-load the data into a new directory",
			m.Version, manifestVersion)
	}
	return m, true, nil
}

// writeManifest commits dir's MANIFEST durably.
func writeManifest(fsys vfs.FS, dir string, m *manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("cluster: encode manifest: %w", err)
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, manifestName), append(data, '\n')); err != nil {
		return fmt.Errorf("cluster: commit manifest: %w", err)
	}
	return nil
}
