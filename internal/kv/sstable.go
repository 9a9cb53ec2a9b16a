package kv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/vfs"
)

// SSTable format:
//
//	[data block]* [index block] [bloom block] [footer]
//
// A data block is a run of entries `kind | klen | key | vlen | value`
// (varint lengths), cut at targetBlockSize. The index block holds one entry
// per data block: first key, file offset, length and CRC. The footer is
// fixed-size so a reader can find everything from the end of the file.
//
// Crash safety: the writer streams into `<name>.sst.tmp` and, at finish,
// syncs the file, renames it to its final name and fsyncs the directory.
// A crash mid-write leaves only a `.tmp` file, deleted at the next Open;
// after finish returns, the table survives power loss.

const (
	targetBlockSize = 4 << 10
	footerSize      = 48
	tableMagic      = 0x7452615353746266 // "tRaSStbf"

	// maxWriteBuffer caps an sstWriter's buffer. A table expected to hold
	// less gets a buffer of its own size, never below one block, so a flush
	// of a few rows does not allocate the cap.
	maxWriteBuffer = 256 << 10

	sstSuffix = ".sst"
	tmpSuffix = ".tmp"
)

// sstPath returns the final path of table seq inside dir.
func sstPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%012d%s", seq, sstSuffix))
}

// sstWriter streams sorted entries into an SSTable file.
type sstWriter struct {
	fs      vfs.FS
	f       vfs.File
	dir     string
	tmp     string
	final   string
	w       *bufio.Writer
	off     int64
	block   []byte
	index   []indexEntry
	bloom   *bloomFilter
	count   int64
	lastKey []byte
	first   bool
}

type indexEntry struct {
	firstKey []byte
	offset   int64
	length   int64
	crc      uint32
}

// newSSTWriter starts table seq in dir. expectedKeys sizes the bloom filter
// and srcBytes, the size of the input the table is built from, the write
// buffer.
func newSSTWriter(fsys vfs.FS, dir string, seq uint64, expectedKeys int, srcBytes int64) (*sstWriter, error) {
	final := sstPath(dir, seq)
	tmp := final + tmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("kv: create sstable: %w", err)
	}
	return &sstWriter{
		fs:    fsys,
		f:     f,
		dir:   dir,
		tmp:   tmp,
		final: final,
		w:     bufio.NewWriterSize(f, int(min(max(srcBytes, targetBlockSize), maxWriteBuffer))),
		bloom: newBloomFilter(expectedKeys),
		first: true,
	}, nil
}

// add appends an entry; keys must arrive in strictly ascending order.
func (sw *sstWriter) add(kind byte, key, value []byte) error {
	if !sw.first && bytes.Compare(key, sw.lastKey) <= 0 {
		return fmt.Errorf("kv: sstable keys out of order: %q after %q", key, sw.lastKey)
	}
	sw.first = false
	sw.lastKey = append(sw.lastKey[:0], key...)

	if len(sw.block) == 0 {
		sw.index = append(sw.index, indexEntry{
			firstKey: append([]byte(nil), key...),
			offset:   sw.off,
		})
	}
	sw.block = appendEntry(sw.block, kind, key, value)
	sw.bloom.add(key)
	sw.count++

	if len(sw.block) >= targetBlockSize {
		return sw.finishBlock()
	}
	return nil
}

func (sw *sstWriter) finishBlock() error {
	if len(sw.block) == 0 {
		return nil
	}
	ie := &sw.index[len(sw.index)-1]
	ie.length = int64(len(sw.block))
	ie.crc = crc32.ChecksumIEEE(sw.block)
	if _, err := sw.w.Write(sw.block); err != nil {
		return err
	}
	sw.off += int64(len(sw.block))
	sw.block = sw.block[:0]
	return nil
}

// finish writes the index, bloom filter and footer, syncs the file, renames
// it from its .tmp name to the final one and fsyncs the directory, so the
// finished table is atomically visible and durable. It returns the total
// file size.
func (sw *sstWriter) finish() (int64, error) {
	if err := sw.finishBlock(); err != nil {
		sw.abort()
		return 0, err
	}
	indexOff := sw.off
	var idx []byte
	for _, ie := range sw.index {
		idx = binary.AppendUvarint(idx, uint64(len(ie.firstKey)))
		idx = append(idx, ie.firstKey...)
		idx = binary.AppendUvarint(idx, uint64(ie.offset))
		idx = binary.AppendUvarint(idx, uint64(ie.length))
		idx = binary.AppendUvarint(idx, uint64(ie.crc))
	}
	if _, err := sw.w.Write(idx); err != nil {
		sw.abort()
		return 0, err
	}
	bloomOff := indexOff + int64(len(idx))
	bl := sw.bloom.encode()
	if _, err := sw.w.Write(bl); err != nil {
		sw.abort()
		return 0, err
	}

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(len(idx)))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[24:32], uint64(len(bl)))
	binary.LittleEndian.PutUint64(footer[32:40], uint64(sw.count))
	binary.LittleEndian.PutUint64(footer[40:48], tableMagic)
	if _, err := sw.w.Write(footer[:]); err != nil {
		sw.abort()
		return 0, err
	}
	if err := sw.w.Flush(); err != nil {
		sw.abort()
		return 0, err
	}
	if err := sw.f.Sync(); err != nil {
		sw.abort()
		return 0, err
	}
	if err := sw.f.Close(); err != nil {
		_ = sw.fs.Remove(sw.tmp)
		return 0, err
	}
	if err := sw.fs.Rename(sw.tmp, sw.final); err != nil {
		_ = sw.fs.Remove(sw.tmp)
		return 0, fmt.Errorf("kv: commit sstable: %w", err)
	}
	if err := sw.fs.SyncDir(sw.dir); err != nil {
		// The rename happened but is not durable; the caller must not treat
		// the table as committed. Leave the file for Open-time cleanup.
		return 0, fmt.Errorf("kv: commit sstable: %w", err)
	}
	size := bloomOff + int64(len(bl)) + footerSize
	return size, nil
}

func (sw *sstWriter) abort() {
	_ = sw.f.Close()
	_ = sw.fs.Remove(sw.tmp)
}

// sstReader serves point and range reads from one SSTable. The block index
// and bloom filter stay in memory; data blocks are read on demand. Readers
// are reference-counted: open scans retain them so a concurrent compaction
// cannot close or delete the file out from under an iterator.
type sstReader struct {
	fs       vfs.FS
	f        vfs.File
	path     string
	seq      uint64 // file sequence number: larger = newer data
	index    []indexEntry
	bloom    *bloomFilter
	count    int64
	size     int64 // file bytes
	stats    *Stats
	cache    *blockCache // shared per-DB; nil disables caching
	refs     atomic.Int32
	obsolete atomic.Bool // remove the file once the last reference drops
}

func (sr *sstReader) retain() { sr.refs.Add(1) }

// release drops one reference; the last drop closes the file and, for
// compacted-away tables, removes it from disk. This is the refcount-drain
// reaper: compaction marks a victim obsolete and drops the table set's
// reference, but snapshots and open iterators hold their own, so the unlink
// happens only when the last of them releases — a long scan keeps reading a
// retired table and the file vanishes the moment nobody can.
func (sr *sstReader) release() {
	if sr.refs.Add(-1) > 0 {
		return
	}
	_ = sr.f.Close()
	if sr.obsolete.Load() {
		_ = sr.fs.Remove(sr.path)
		if sr.stats != nil {
			sr.stats.ObsoleteTables.Add(-1)
		}
	}
}

func openSSTable(fsys vfs.FS, path string, seq uint64, stats *Stats, cache *blockCache) (*sstReader, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kv: open sstable: %w", err)
	}
	size, err := f.Size()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if size < footerSize {
		_ = f.Close()
		return nil, fmt.Errorf("kv: sstable %s too small", path)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], size-footerSize); err != nil {
		_ = f.Close()
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[40:48]) != tableMagic {
		_ = f.Close()
		return nil, fmt.Errorf("kv: sstable %s has bad magic", path)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	indexLen := int64(binary.LittleEndian.Uint64(footer[8:16]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[16:24]))
	bloomLen := int64(binary.LittleEndian.Uint64(footer[24:32]))
	count := int64(binary.LittleEndian.Uint64(footer[32:40]))
	// Compared by subtraction: offset+length can wrap past the int64 range.
	if indexOff < 0 || indexLen < 0 || bloomOff < 0 || bloomLen < 0 ||
		indexOff > size || indexLen > size-indexOff || bloomOff > size || bloomLen > size-bloomOff {
		_ = f.Close()
		return nil, fmt.Errorf("kv: sstable %s has corrupt footer", path)
	}

	idxBuf := make([]byte, indexLen)
	if _, err := f.ReadAt(idxBuf, indexOff); err != nil {
		_ = f.Close()
		return nil, err
	}
	var index []indexEntry
	for len(idxBuf) > 0 {
		klen, sz := binary.Uvarint(idxBuf)
		if sz <= 0 || uint64(len(idxBuf)-sz) < klen {
			_ = f.Close()
			return nil, fmt.Errorf("kv: sstable %s has corrupt index", path)
		}
		idxBuf = idxBuf[sz:]
		key := append([]byte(nil), idxBuf[:klen]...)
		idxBuf = idxBuf[klen:]
		var vals [3]uint64
		for i := range vals {
			v, sz := binary.Uvarint(idxBuf)
			if sz <= 0 {
				_ = f.Close()
				return nil, fmt.Errorf("kv: sstable %s has corrupt index", path)
			}
			idxBuf = idxBuf[sz:]
			vals[i] = v
		}
		// A block lies inside the file: diskBlock allocates its length.
		if vals[0] > uint64(size) || vals[1] > uint64(size)-vals[0] {
			_ = f.Close()
			return nil, fmt.Errorf("kv: sstable %s has corrupt index", path)
		}
		index = append(index, indexEntry{
			firstKey: key,
			offset:   int64(vals[0]),
			length:   int64(vals[1]),
			crc:      uint32(vals[2]),
		})
	}

	blBuf := make([]byte, bloomLen)
	if _, err := f.ReadAt(blBuf, bloomOff); err != nil {
		_ = f.Close()
		return nil, err
	}
	bloom, ok := decodeBloomFilter(blBuf)
	if !ok {
		_ = f.Close()
		return nil, fmt.Errorf("kv: sstable %s has corrupt bloom filter", path)
	}
	return &sstReader{fs: fsys, f: f, path: path, seq: seq, index: index, bloom: bloom, count: count, size: size, stats: stats, cache: cache}, nil
}

// readBlock fetches and verifies data block i, consulting the block cache
// first. Returned blocks may be shared with other readers: treat as
// read-only.
func (sr *sstReader) readBlock(i int) ([]byte, error) {
	key := blockKey{seq: sr.seq, block: i}
	if sr.cache != nil {
		if buf := sr.cache.get(key); buf != nil {
			sr.stats.CacheHits.Add(1)
			return buf, nil
		}
	}
	buf, err := sr.diskBlock(i)
	if err != nil {
		return nil, err
	}
	sr.stats.BlocksRead.Add(1)
	sr.stats.BytesRead.Add(int64(len(buf)))
	// A table compaction has retired is still read through older snapshots,
	// but nothing would ever drop its blocks again: installCompaction marks it
	// obsolete before it calls dropTable, so either the first check sees the
	// mark, or the drop ran after the put, or the second check does and
	// takes the block back out.
	if sr.cache != nil && !sr.obsolete.Load() {
		sr.cache.put(key, buf)
		if sr.obsolete.Load() {
			sr.cache.drop(key)
		}
	}
	return buf, nil
}

// diskBlock reads data block i from disk, bypassing the cache, and checks its
// checksum: the read under readBlock's cache miss and under Verify.
func (sr *sstReader) diskBlock(i int) ([]byte, error) {
	ie := sr.index[i]
	buf := make([]byte, ie.length)
	if _, err := sr.f.ReadAt(buf, ie.offset); err != nil {
		return nil, fmt.Errorf("kv: read block: %w", err)
	}
	if crc32.ChecksumIEEE(buf) != ie.crc {
		return nil, fmt.Errorf("kv: sstable %s block %d checksum mismatch", sr.path, i)
	}
	return buf, nil
}

// blockFor returns the index of the block that could contain key: the last
// block whose first key is <= key.
func (sr *sstReader) blockFor(key []byte) int {
	i := sort.Search(len(sr.index), func(i int) bool {
		return bytes.Compare(sr.index[i].firstKey, key) > 0
	})
	return i - 1
}

// get performs a point lookup. Returns (value, kind, found, error).
func (sr *sstReader) get(key []byte) ([]byte, byte, bool, error) {
	if !sr.bloom.mayContain(key) {
		sr.stats.BloomNegative.Add(1)
		return nil, 0, false, nil
	}
	bi := sr.blockFor(key)
	if bi < 0 {
		return nil, 0, false, nil
	}
	block, err := sr.readBlock(bi)
	if err != nil {
		return nil, 0, false, err
	}
	for pos := 0; pos < len(block); {
		kind, k, v, next, err := decodeEntry(block, pos)
		if err != nil {
			return nil, 0, false, err
		}
		switch bytes.Compare(k, key) {
		case 0:
			return v, kind, true, nil
		case 1:
			return nil, 0, false, nil
		}
		pos = next
	}
	return nil, 0, false, nil
}

// appendEntry appends one entry in the data-block encoding, which WAL records
// share: kind byte | klen uvarint | key | vlen uvarint | value.
func appendEntry(dst []byte, kind byte, key, value []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(value)))
	return append(dst, value...)
}

// decodeEntry parses one entry at pos, returning the next position.
func decodeEntry(block []byte, pos int) (kind byte, key, value []byte, next int, err error) {
	if pos >= len(block) {
		return 0, nil, nil, 0, fmt.Errorf("kv: entry out of block bounds")
	}
	kind = block[pos]
	pos++
	klen, sz := binary.Uvarint(block[pos:])
	if sz <= 0 || pos+sz+int(klen) > len(block) {
		return 0, nil, nil, 0, fmt.Errorf("kv: corrupt entry key")
	}
	pos += sz
	key = block[pos : pos+int(klen)]
	pos += int(klen)
	vlen, sz := binary.Uvarint(block[pos:])
	if sz <= 0 || pos+sz+int(vlen) > len(block) {
		return 0, nil, nil, 0, fmt.Errorf("kv: corrupt entry value")
	}
	pos += sz
	value = block[pos : pos+int(vlen)]
	pos += int(vlen)
	return kind, key, value, pos, nil
}

// sstIter iterates one SSTable over the range its last seek set. pending
// marks a current entry Next has not yet yielded: the one seek landed on, or
// the one that ended a range, which the next range may start at.
type sstIter struct {
	sr       *sstReader
	blockIdx int
	block    []byte
	pos      int // offset of the entry after the current one
	end      []byte
	// stop bounds every entry before the current one once a range is walked
	// out: the larger of the range's start and end; nil when unbounded.
	stop    []byte
	kind    byte
	key     []byte
	value   []byte
	err     error
	pending bool
}

func (sr *sstReader) iter() *sstIter { return &sstIter{sr: sr} }

// seek positions the iterator at the first entry >= start, bounded by end.
// The index names the block start lies in. A start at or past where the last
// range stopped, in the current block or an earlier one, continues from the
// current entry; a start in the loaded block otherwise walks it again from its
// first entry; any other block is read.
func (it *sstIter) seek(start, end []byte) {
	forward := it.stop != nil && start != nil && bytes.Compare(start, it.stop) >= 0
	it.end, it.stop = end, end
	if end != nil && start != nil && bytes.Compare(start, end) > 0 {
		it.stop = start
	}
	pending := it.pending
	it.pending = false
	if it.err != nil {
		return
	}
	bi := 0
	if start != nil {
		bi = max(it.sr.blockFor(start), 0)
	}
	switch {
	case forward && bi <= it.blockIdx:
		if pending && bytes.Compare(it.key, start) >= 0 {
			it.pending = true
			return
		}
	case bi == it.blockIdx && it.block != nil:
		it.pos = 0
	default:
		if it.blockIdx = bi; !it.loadBlock() {
			return
		}
	}
	for it.step() {
		if start == nil || bytes.Compare(it.key, start) >= 0 {
			it.pending = true
			return
		}
	}
}

// reset forgets the last range: stop and end alias it. The loaded block stays,
// so a seek into it walks it again from its first entry instead of reading it.
func (it *sstIter) reset() { it.stop, it.end = nil, nil }

func (it *sstIter) Next() bool {
	if !it.pending && !it.step() {
		return false
	}
	it.pending = false
	return it.checkEnd()
}

// checkEnd reports whether the current entry lies below end. An entry at or
// past it stays pending, with its block loaded, for the next seek.
func (it *sstIter) checkEnd() bool {
	if it.end != nil && bytes.Compare(it.key, it.end) >= 0 {
		it.pending = true
		return false
	}
	return true
}

// loadBlock reads block blockIdx; false when past the last block.
func (it *sstIter) loadBlock() bool {
	if it.blockIdx >= len(it.sr.index) {
		return false
	}
	block, err := it.sr.readBlock(it.blockIdx)
	if err != nil {
		it.err = err
		return false
	}
	it.block = block
	it.pos = 0
	return true
}

// step advances one entry, crossing block boundaries.
func (it *sstIter) step() bool {
	it.pending = false
	for it.pos >= len(it.block) {
		it.blockIdx++
		if !it.loadBlock() {
			return false
		}
	}
	kind, k, v, next, err := decodeEntry(it.block, it.pos)
	if err != nil {
		it.err = err
		return false
	}
	it.kind, it.key, it.value, it.pos = kind, k, v, next
	return true
}

func (it *sstIter) Key() []byte   { return it.key }
func (it *sstIter) Value() []byte { return it.value }
func (it *sstIter) Kind() byte    { return it.kind }
func (it *sstIter) Err() error    { return it.err }
func (it *sstIter) Close() error  { it.block, it.pending = nil, false; return nil }
