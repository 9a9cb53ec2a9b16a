package store

// SetCommitHook installs f as the hook PutBatch runs between a shard batch's
// commit and the metadata update that records it; nil removes it. It must
// not be called while a PutBatch runs.
func (s *Store) SetCommitHook(f func()) { s.commitHook = f }
