package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	trass "repro"
)

// sample is one timed operation.
type sample struct {
	idx int // position in the cycled query order
	lat time.Duration
	st  opStats
}

// windowResult is everything read at the two edges of a measured window and
// every sample taken inside it.
type windowResult struct {
	samples   []sample // ascending idx
	attempted int
	failed    int
	firstErr  error

	wall        time.Duration
	cpu         time.Duration // process user+sys over the window
	allocBytes  uint64        // MemStats.TotalAlloc delta
	storedRatio float64       // data-directory bytes ÷ user bytes ingested so far: median of the polls inside the window and one at its end
	heapInuse   int64         // live heap after the window, the store settled and runtime.GC(); less the in-memory filesystem's files
	putBytes    int64         // 16 B per point put inside the window

	storage    trass.StorageStats // counter deltas; gauges as of window end
	fs         fsCounts
	frozenPeak int64
	puts       []time.Duration // ingest only: each successful Put's duration
	putsIssued int             // ingest only: e.writes[:putsIssued] were put
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gaugePoll is how often (in queries) an ingest window polls the gauges that
// move under writes: frozen memtables, for their peak, and the size of the
// data directory, for its median. Both saw-tooth with flushes and
// compactions, so one reading at the instant the window ends says more about
// where in a cycle the window happened to stop than about the store.
const gaugePoll = 64

// opAt maps position i of a window's operation sequence to what runs there:
// on an ingest workload every mixPeriod-th operation is put number put;
// everything else is query number read (counted among the queries alone).
func opAt(i int, ingest bool) (read, put int, isPut bool) {
	if !ingest {
		return i, 0, false
	}
	if i%mixPeriod == mixPeriod-1 {
		return 0, i / mixPeriod, true
	}
	return i - i/mixPeriod, 0, false
}

// window runs the workload's traffic for the given duration (or sc.maxOps
// operations, whichever ends first): clients closed-loop clients claim the
// next operation from a shared cursor. Query number r is
// queries[(first+r) mod len]. An operation that has started when the time is
// up is finished and counted.
func (e *env) window(ctx context.Context, seconds float64, clients, first int) (*windowResult, error) {
	res := &windowResult{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st0, err := e.db.StorageStats()
	if err != nil {
		return nil, err
	}
	fs0 := e.fs.counts()
	cpu0 := cpuTime()
	start := time.Now()
	dur := time.Duration(seconds * float64(time.Second))

	var (
		wg     sync.WaitGroup
		next   atomic.Int64
		mu     sync.Mutex   // guards res and stored
		put    atomic.Int64 // user bytes put so far
		stored []float64    // polled data-directory bytes per user byte ingested
	)
	storedNow := func() float64 {
		return float64(e.fs.storedBytes()) / float64(e.userBytes+put.Load())
	}
	fail := func(err error) {
		mu.Lock()
		res.failed++
		if res.firstErr == nil {
			res.firstErr = err
		}
		mu.Unlock()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			var puts []time.Duration
			issued := 0 // puts are claimed in order and every claimed put runs: e.writes[:issued] were put
			for ctx.Err() == nil && time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				if e.sc.maxOps > 0 && i >= e.sc.maxOps {
					break
				}
				r, p, isPut := opAt(i, e.w.ingest)
				if isPut {
					if p >= len(e.writes) {
						fail(fmt.Errorf("the %d trajectories set aside for puts ran out before the window did", len(e.writes)))
						break
					}
					issued = p + 1
					t0 := time.Now()
					err := e.db.Put(e.writes[p])
					d := time.Since(t0)
					put.Add(16 * int64(len(e.writes[p].Points)))
					if err != nil {
						fail(err)
						continue
					}
					puts = append(puts, d)
					continue
				}
				t0 := time.Now()
				a, err := e.op(ctx, c, e.queries[(first+r)%len(e.queries)], false)
				lat := time.Since(t0)
				if err != nil {
					fail(err)
					continue
				}
				mine = append(mine, sample{idx: r, lat: lat, st: a.st})
				if e.w.ingest && r%gaugePoll == 0 {
					st, err := e.db.StorageStats()
					v := storedNow()
					mu.Lock()
					if err == nil {
						res.frozenPeak = max(res.frozenPeak, st.KV.FrozenMemtables)
					}
					stored = append(stored, v)
					mu.Unlock()
				}
			}
			mu.Lock()
			res.samples = append(res.samples, mine...)
			res.puts = append(res.puts, puts...)
			res.putsIssued = max(res.putsIssued, issued)
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.storedRatio = median(append(stored, storedNow()))
	res.fs = e.fs.counts().sub(fs0)
	st1, err := e.db.StorageStats()
	if err != nil {
		return nil, err
	}
	res.storage = st1
	res.storage.KV = st1.KV.Sub(st0.KV)
	res.storage.RPCs -= st0.RPCs
	res.storage.Retries -= st0.Retries
	res.putBytes = put.Load()
	// Memory is read with the store settled and the puts' trajectories dropped:
	// what the writes leave in flight when the window stops (frozen
	// memtables, half-written tables, obsolete ones awaiting their last
	// reader) is a matter of timing. The peak of the frozen gauge above is
	// where that cost is reported.
	if e.w.ingest {
		if err := e.db.Flush(); err != nil {
			return nil, err
		}
		if err := e.db.Compact(); err != nil {
			return nil, err
		}
		e.writes = nil
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.heapInuse = int64(m1.HeapAlloc) - e.fs.heldBytes()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(res.samples, func(i, j int) bool { return res.samples[i].idx < res.samples[j].idx })
	res.attempted = len(res.samples) + len(res.puts) + res.failed
	if res.attempted == 0 {
		return nil, fmt.Errorf("window of %v ran no operation", dur)
	}
	return res, nil
}

// latenciesMS returns the reader's latencies in ms, ascending.
func (r *windowResult) latenciesMS() []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = ms(s.lat)
	}
	sort.Float64s(out)
	return out
}

// wholePasses is how many leading samples make up complete passes over the
// query set. A per-operation counter averaged over whole
// passes does not depend on how many passes the machine managed in the
// window, so on a workload whose plan is deterministic it repeats exactly
// from run to run. With less than one pass (or a failed operation leaving a
// hole) every sample is used.
func (r *windowResult) wholePasses(queries int) int {
	n := len(r.samples) / queries * queries
	if n == 0 || r.failed > 0 {
		return len(r.samples)
	}
	return n
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// endToEnd computes the eight end-to-end metrics of one repetition: its
// set-up and its window.
func (e *env) endToEnd(r *windowResult) metrics {
	m := metrics{}
	lat := r.latenciesMS()
	ops := float64(len(r.samples))
	m.set("setup_s", e.setupTime.Seconds(), "s")
	m.set("op_p50_ms", percentile(lat, 0.50), "ms")
	m.set("op_p90_ms", percentile(lat, 0.90), "ms")
	m.set("ops_per_s", ops/r.wall.Seconds(), "1/s")
	m.set("cpu_ms_per_op", ms(r.cpu)/ops, "ms")
	m.set("alloc_kb_per_op", float64(r.allocBytes)/1024/ops, "kB")
	m.set("heap_inuse_mb", float64(r.heapInuse)/(1<<20), "MB")
	m.set("stored_bytes_per_user_byte", r.storedRatio, "ratio")
	return m
}

// counterMetrics are the per-layer metrics that come from counters the
// program keeps itself (QueryStats, StorageStats) and from the filesystem
// seam, over a window.
func (e *env) counterMetrics(r *windowResult) metrics {
	m := metrics{}
	var sum opStats
	whole := r.wholePasses(len(e.queries))
	for _, s := range r.samples[:whole] {
		sum.add(s.st)
	}
	n := float64(whole)
	ops := float64(len(r.samples))
	kv := r.storage.KV

	m.set("xzstar.ranges_per_op", float64(sum.Ranges)/n, "count")
	m.set("store.scan_ms", ms(sum.Scan)/n, "ms")
	m.set("store.rows_scanned_per_op", float64(sum.RowsScanned)/n, "count")
	m.set("store.rows_shipped_per_op", float64(sum.Shipped)/n, "count")
	m.set("store.filter_pass_ratio", ratio(float64(sum.Shipped), float64(sum.RowsScanned)), "ratio")
	m.set("store.bytes_shipped_per_op", float64(sum.BytesShipped)/n, "B")
	m.set("store.bulk_load_trajs_per_s", float64(e.sc.n)/e.bulkLoad.Seconds(), "1/s")
	m.set("cluster.rpcs_per_op", float64(sum.RPCs)/n, "count")
	m.set("cluster.retries_per_op", float64(sum.Retries)/n, "count")
	m.set("query.refine_wall_ms", ms(sum.Refine)/n, "ms")
	m.set("query.refine_cpu_ms", ms(sum.RefineCPU)/n, "ms")
	m.set("query.refined_per_op", float64(sum.Refined)/n, "count")
	m.set("query.precision", ratio(float64(sum.Results), float64(sum.Shipped)), "ratio")
	m.set("query.stream_stall_ms", ms(sum.Stall)/n, "ms")

	m.set("kv.blocks_read_per_op", float64(kv.BlocksRead)/ops, "count")
	m.set("kv.cache_hit_ratio", ratio(float64(kv.CacheHits), float64(kv.CacheHits+kv.BlocksRead)), "ratio")
	m.set("kv.read_amp", ratio(float64(kv.EntriesWalked), float64(kv.EntriesRead)), "ratio")
	m.set("kv.flushes", float64(kv.Flushes), "count")
	m.set("kv.compactions", float64(kv.Compactions), "count")
	m.set("kv.write_amp", ratio(float64(kv.BytesWritten), float64(r.putBytes)), "ratio")
	m.set("kv.frozen_memtables_peak", float64(r.frozenPeak), "count")
	m.set("kv.pinned_snapshots_end", float64(kv.PinnedSnapshots), "count")

	m.set("vfs.read_calls_per_op", float64(r.fs.ReadCalls)/ops, "count")
	m.set("vfs.read_kb_per_op", float64(r.fs.ReadBytes)/1024/ops, "kB")
	m.set("vfs.busy_ms_per_op", ms(r.fs.Busy)/ops, "ms")
	m.set("vfs.write_mb", float64(r.fs.WriteBytes)/(1<<20), "MB")
	m.set("vfs.syncs", float64(r.fs.Syncs), "count")

	put := make([]float64, len(r.puts))
	for i, d := range r.puts {
		put[i] = us(d)
	}
	sort.Float64s(put)
	m.set("store.put_p50_us", orZero(percentile(put, 0.50)), "us")
	return m
}

// orZero maps the NaN of an empty sample set to 0: the metric's row exists
// on every workload, and "no puts" reads as nothing measured.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}
