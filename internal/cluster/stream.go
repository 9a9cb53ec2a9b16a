package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/kv"
)

// This file is the region side of the scan path. (*Snapshot).ScanStream
// (snapshot.go) delivers rows in bounded batches as regions produce them, so a
// consumer (the refinement stage) can overlap its work with the scan instead
// of waiting behind a collect-everything barrier, and per-scan memory stays
// one batch instead of O(rows shipped).

// batchRows caps the rows delivered per emit call.
const batchRows = 64

// StreamRequest is ScanRequest under the name benchmark/trace.go compiles
// against (`cluster.StreamRequest{ScanRequest: …}`); it has no fields of its
// own. Like store.StreamOptions it is benchmark-pinned and goes when ROADMAP
// item 1(C)'s benchmark PR moves that call.
type StreamRequest struct {
	ScanRequest
}

// ScanBatch is one unit of streamed rows, all from a single region, in key
// order within the batch. Entries is valid only during the emit call that
// receives it: the stream recycles the slice once emit returns. The key and
// value bytes of each entry are the consumer's to keep.
type ScanBatch struct {
	RegionID int
	Entries  []kv.Entry
}

// batchPool recycles scan batches. A batch is taken at a region call's first
// accepted row and put back once emit has returned, or once the stream has
// dropped it; its entries are cleared first, so a pooled batch holds no row.
var batchPool = sync.Pool{New: func() any {
	return &ScanBatch{Entries: make([]kv.Entry, 0, batchRows)}
}}

// recycle clears b's entries and returns it to batchPool.
func recycle(b *ScanBatch) {
	clear(b.Entries)
	b.Entries = b.Entries[:0]
	batchPool.Put(b)
}

// scanRegions walks the tasks' regions one after another, in region (= key)
// order, on the calling goroutine, as an HBase client scanner walks a
// table's regions, and hands each full batch straight to emit. It adds each
// region call's accounting to res. The first failing region fails the scan
// with its *RegionError; an emit error comes back as it is, and cancellation
// as ctx's error. With a cursor (cur not nil) each region call walks its
// region's slot.
func (c *Cluster) scanRegions(ctx context.Context, filter Filter, tasks []regionTask, cur *Cursor, res *ScanResult, emit func(ScanBatch) error) error {
	var emitErr error
	send := func(b *ScanBatch) error {
		emitErr = emit(*b)
		recycle(b)
		return emitErr
	}
	for _, t := range tasks {
		var slot *cursorSlot
		if cur != nil {
			slot = &cur.slots[t.region.id]
		}
		err := c.scanRegion(ctx, t, slot, filter, res, send)
		if emitErr != nil {
			return emitErr
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err != nil {
			return regionError(t.region, err)
		}
	}
	return nil
}

// scanRegion is one region "RPC": one iterator over every clipped range,
// the server-side filter applied to each row, accepted rows delivered in
// batches, the call's accounting added to res. ctx is observed between rows
// (amortized every 256). send takes over each batch it is given, and its
// error comes back as it is. The call walks slot's iterator when slot is not
// nil, and a new one otherwise.
func (c *Cluster) scanRegion(ctx context.Context, t regionTask, slot *cursorSlot, filter Filter, res *ScanResult, send func(*ScanBatch) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if rpcLatency := c.cfg.RPCLatency; rpcLatency > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(rpcLatency):
		}
	}
	if t.region.handlers != nil {
		// A bounded handler pool serves each region: scans queue once the
		// region is saturated, which is what makes too few shards hurt.
		select {
		case t.region.handlers <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
		defer func() { <-t.region.handlers }()
	}
	c.rpcs.Add(1)
	res.RPCs++

	// Most region calls of a best-first search ship nothing, so the batch is
	// taken on the first accepted row, not up front.
	var batch *ScanBatch
	flush := func() error {
		if batch == nil {
			return nil
		}
		rows, shipped := int64(len(batch.Entries)), int64(0)
		for _, e := range batch.Entries {
			shipped += int64(len(e.Key) + len(e.Value))
		}
		err := send(batch)
		batch = nil // send took it over
		if err != nil {
			return err
		}
		res.RowsReturned += rows
		res.BytesShipped += shipped
		return nil
	}

	// One iterator walks every range, as one HBase scanner serves a region's
	// multi-range scan; rows scanned are counted here and added once.
	it := slot.open(t)
	var scanned int64
	var err error
	for err == nil && it.Next() {
		if scanned++; scanned%256 == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if filter != nil && !filter(it.Key(), it.Value()) {
			continue
		}
		// The iterator's bytes are the store's own: a shipped row is copied
		// here, once, key and value into one array, each slice capped at its
		// own length.
		e := shipRow(it.Key(), it.Value())
		if batch == nil {
			batch = batchPool.Get().(*ScanBatch)
			batch.RegionID = t.region.id
		}
		if batch.Entries = append(batch.Entries, e); len(batch.Entries) >= batchRows {
			err = flush()
		}
	}
	if err == nil {
		err = it.Err()
	}
	slot.done(it)
	res.RowsScanned += scanned
	if err != nil {
		return err
	}
	return flush()
}

// shipRow copies a row the region ships into one array of exactly its size:
// the shipped bytes pin neither the block nor the memtable node they came from.
func shipRow(key, value []byte) kv.Entry {
	buf := make([]byte, len(key)+len(value))
	n := copy(buf, key)
	copy(buf[n:], value)
	return kv.Entry{Key: buf[:n:n], Value: buf[n:]}
}
