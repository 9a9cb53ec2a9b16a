package kv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"

	"repro/internal/vfs"
)

// Write-ahead log. One record holds one write request (a Put, a Delete or an
// Apply), framed as
//
//	crc32(payload) uint32 | payloadLen uint32 | payload
//
// where payload = count uvarint | count entries in the SSTable data-block
// encoding (appendEntry). Replay applies a record whole or stops silently at
// it, torn or corrupt: everything before was acknowledged durable, nothing of
// it or after it was.
//
// A wal is poisoned by its first append/flush/sync failure: the error is
// sticky and every later operation refuses to run. A failed write may have
// left torn bytes in the file, and replay stops at the first tear — appending
// more records after one would silently lose them even if their own writes
// succeeded. The store clears the poison by rotating to a fresh WAL, which is
// safe only once the memtable (which holds every acknowledged record) has
// been flushed; see DB.flush.
//
// A wal is not concurrency-safe on its own: after Open returns, the
// committer goroutine is its sole user (see commit.go).

type wal struct {
	f    vfs.File
	w    *bufio.Writer
	size int64
	err  error // sticky poison; non-nil after any append/flush/sync failure
}

// openWAL opens the log at path for appending. buf, when non-nil, is a
// retired wal's writer, reset onto the new file so a rotation reuses its
// 64 KiB buffer; whatever it still held is discarded.
func openWAL(fsys vfs.FS, path string, buf *bufio.Writer) (*wal, error) {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("kv: open wal: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("kv: size wal: %w", err)
	}
	if buf == nil {
		buf = bufio.NewWriterSize(f, 64<<10)
	} else {
		buf.Reset(f)
	}
	return &wal{f: f, w: buf, size: size}, nil
}

// brokenWAL stands in for a WAL that could not be rotated: permanently
// poisoned until the next successful rotation replaces it.
func brokenWAL(err error) *wal { return &wal{err: err} }

func (w *wal) poisoned() bool { return w.err != nil }

func (w *wal) poison(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// append writes one request's entries as one record and returns its size.
func (w *wal) append(entries []batchEntry) (int, error) {
	if w.err != nil {
		return 0, fmt.Errorf("kv: wal poisoned by earlier failure: %w", w.err)
	}
	size := binary.MaxVarintLen32
	for _, e := range entries {
		size += 1 + 2*binary.MaxVarintLen32 + len(e.key) + len(e.value)
	}
	payload := binary.AppendUvarint(make([]byte, 0, size), uint64(len(entries)))
	for _, e := range entries {
		payload = appendEntry(payload, e.kind, e.key, e.value)
	}

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return 0, w.poison(err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return 0, w.poison(err)
	}
	n := len(hdr) + len(payload)
	w.size += int64(n)
	return n, nil
}

func (w *wal) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.poison(w.w.Flush())
}

func (w *wal) sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		return w.poison(err)
	}
	return w.poison(w.f.Sync())
}

// close flushes and closes the file. A poisoned or rotation-failed wal closes
// without flushing: its buffered bytes follow a tear and would be lost at
// replay anyway.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	if w.err != nil {
		return w.f.Close()
	}
	if err := w.w.Flush(); err != nil {
		_ = w.f.Close()
		return err
	}
	return w.f.Close()
}

// replayWAL feeds each intact record's entries to fn, in order. A corrupt or
// truncated record, or one that does not decode to exactly its count of
// entries, ends replay without error: fn never sees part of a record. The
// entries alias a buffer the next record overwrites; fn copies what it keeps.
// It returns the length of the intact prefix and of the file (0 and 0 when
// there is none); Open never appends after a longer file's prefix.
func replayWAL(fsys vfs.FS, path string, fn func([]batchEntry)) (valid, size int64, err error) {
	f, err := fsys.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("kv: open wal for replay: %w", err)
	}
	defer f.Close()
	if size, err = f.Size(); err != nil {
		return 0, 0, fmt.Errorf("kv: size wal for replay: %w", err)
	}
	// left is the bytes not yet read: a length the header claims is checked
	// against it before anything is allocated, so a corrupt header over a
	// small file cannot make replay allocate what the file does not hold.
	left := size

	r := bufio.NewReaderSize(f, int(min(left, 64<<10)))
	var hdr [8]byte
	var payload []byte       // grown once, reused across records
	var entries []batchEntry // likewise
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, size, nil // clean EOF or torn header: stop
		}
		left -= int64(len(hdr))
		wantCRC := binary.LittleEndian.Uint32(hdr[0:4])
		n := binary.LittleEndian.Uint32(hdr[4:8])
		if int64(n) > left {
			return valid, size, nil // longer than the rest of the file: a torn tail
		}
		left -= int64(n)
		if uint32(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, size, nil
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return valid, size, nil
		}
		// An all-zero header passes the CRC check; its empty payload has no count.
		count, pos := binary.Uvarint(payload)
		if pos <= 0 || count > uint64(len(payload)) {
			return valid, size, nil
		}
		entries = entries[:0]
		for ; count > 0; count-- {
			kind, key, value, next, err := decodeEntry(payload, pos)
			if err != nil {
				return valid, size, nil
			}
			entries = append(entries, batchEntry{kind: kind, key: key, value: value})
			pos = next
		}
		if pos != len(payload) {
			return valid, size, nil
		}
		fn(entries)
		valid = size - left
	}
}
