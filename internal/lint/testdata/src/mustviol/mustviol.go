// Package mustviol seeds resource-lifetime violations for the mustclose
// analyzer: a straight leak, a leak on an early return after first use, and
// a store into a field no releaser ever touches. The clean shapes — defer,
// hand-off, return, error-guarded open, and ownership transfer into a
// closing owner — must stay silent.
package mustviol

import "errors"

type res struct{ n int }

func (r *res) Close() error { return nil }
func (r *res) read() int    { return r.n }

func open() *res { return &res{} }
func openErr() (*res, error) {
	return nil, errors.New("no")
}

func sink(r *res) {}

type owner struct{ r *res }

func (o *owner) Close() error { return o.r.Close() }

type sack struct{ r *res }

func leak() int {
	r := open() // want "r \(\*res\) is leaked: no path"
	return r.read()
}

func earlyReturn(c bool) error {
	r := open() // want "r \(\*res\) is leaked: a path reaches the end"
	r.read()
	if c {
		return nil
	}
	return r.Close()
}

func stash(s *sack) {
	r := open() // want "stored in sack\.r, but no releaser method of sack touches that field"
	r.read()
	s.r = r
}

func deferred() int {
	r := open()
	defer r.Close()
	return r.read()
}

func errGuarded() (int, error) {
	r, err := openErr()
	if err != nil {
		return 0, err
	}
	defer r.Close()
	return r.read(), nil
}

func handedOff() {
	r := open()
	r.read()
	sink(r)
}

func returned() *res {
	r := open()
	r.read()
	return r
}

func adopted(o *owner) {
	r := open()
	r.read()
	o.r = r
}

// snapshot mirrors the kv layer's MVCC pin: acquired fallibly, it must be
// released on every path out of the query or the refcount reaper never
// drains and obsolete tables pile up on disk.
type snapshot struct{ tables []*res }

func (s *snapshot) Close() error { return nil }
func (s *snapshot) get() int     { return len(s.tables) }

func acquireSnapshot() (*snapshot, error) { return &snapshot{}, nil }

// snapshotLeakOnError is the query-engine bug shape the MVCC refactor guards
// against: pin a snapshot, read through it, then take an error return that
// skips the release. The error-guarded acquire itself stays silent — the
// obligation starts at first use.
func snapshotLeakOnError(bad bool) (int, error) {
	s, err := acquireSnapshot() // want "s \(\*snapshot\) is leaked: a path reaches the end"
	if err != nil {
		return 0, err
	}
	n := s.get()
	if bad {
		return 0, errors.New("mid-query failure")
	}
	return n, s.Close()
}

// snapshotDeferred is the sanctioned shape: release deferred right after the
// error guard, covering every later path.
func snapshotDeferred() (int, error) {
	s, err := acquireSnapshot()
	if err != nil {
		return 0, err
	}
	defer s.Close()
	return s.get(), nil
}
