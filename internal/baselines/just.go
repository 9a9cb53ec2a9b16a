package baselines

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/traj"
	"repro/internal/xz2"
)

// JUST reproduces the trajectory similarity path of JUST/TrajMesa (ICDE
// 2020): trajectories live in a key-value store under XZ2 (plain
// XZ-Ordering) keys, a similarity query scans every XZ2 element whose region
// intersects the extended query MBR, and local filtering is only the MBR
// intersection plus the start/end-point check. This is exactly the baseline
// the paper's I/O-reduction claims are made against: the same storage
// substrate as TraSS, minus position codes and minus the fine-grained
// pruning lemmas.
type JUST struct {
	measure dist.Measure
	dir     string
	shards  int

	ix      *xz2.Index
	cluster *cluster.Cluster
}

// NewJUST builds an empty JUST engine storing its table under dir.
func NewJUST(measure dist.Measure, dir string) *JUST {
	return &JUST{measure: measure, dir: dir, shards: 8, ix: xz2.MustNew(16)}
}

// Name implements System.
func (j *JUST) Name() string { return "JUST" }

// Close implements System.
func (j *JUST) Close() error {
	if j.cluster == nil {
		return nil
	}
	return j.cluster.Close()
}

func (j *JUST) shardOf(tid string) byte {
	h := fnv.New32a()
	h.Write([]byte(tid))
	return byte(h.Sum32() % uint32(j.shards))
}

func (j *JUST) rowKey(value int64, tid string) []byte {
	key := make([]byte, 0, 1+8+1+len(tid))
	key = append(key, j.shardOf(tid))
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], uint64(value))
	key = append(key, v[:]...)
	key = append(key, 0)
	key = append(key, tid...)
	return key
}

// Build implements System: assign XZ2 values and load the table.
func (j *JUST) Build(trajs []*traj.Trajectory) (time.Duration, error) {
	if j.dir == "" {
		return 0, fmt.Errorf("just: storage dir is required")
	}
	start := time.Now()
	splits := make([][]byte, 0, j.shards-1)
	for s := 1; s < j.shards; s++ {
		splits = append(splits, []byte{byte(s)})
	}
	cl, err := cluster.Open(cluster.Config{Dir: j.dir, SplitKeys: splits})
	if err != nil {
		return 0, err
	}
	for _, t := range trajs {
		value := j.ix.Assign(t.Points)
		rec := &traj.Record{ID: t.ID, Points: t.Points, Features: traj.ComputeFeatures(t, 0.01)}
		if err := cl.Put(j.rowKey(value, t.ID), traj.EncodeRecord(rec)); err != nil {
			_ = cl.Close()
			return 0, err
		}
	}
	if err := cl.Flush(); err != nil {
		_ = cl.Close()
		return 0, err
	}
	// Ownership transfers only once the load fully succeeds: an error above
	// closes the half-built cluster instead of leaving it attached.
	j.cluster = cl
	return time.Since(start), nil
}

// Threshold implements System: XZ2 range cover of Ext(Q.MBR, eps), weak
// local filter (MBR intersect + endpoints), full verification client-side.
func (j *JUST) Threshold(q *traj.Trajectory, eps float64) ([]Result, *Stats, error) {
	if j.cluster == nil {
		return nil, &Stats{}, nil
	}
	stats := &Stats{}
	t0 := time.Now()
	ext := q.MBR().Buffer(eps)
	ranges := j.ix.Ranges(ext, 0)
	keyRanges := make([]cluster.KeyRange, 0, len(ranges)*j.shards)
	for s := 0; s < j.shards; s++ {
		for _, r := range ranges {
			keyRanges = append(keyRanges, cluster.KeyRange{
				Start: j.valueKey(byte(s), r.Lo),
				End:   j.valueKey(byte(s), r.Hi),
			})
		}
	}
	stats.PruneTime = time.Since(t0)

	qStart, qEnd := q.Start(), q.End()
	endpointLemma := dist.SupportsEndpointLemma(j.measure)
	filter := func(key, value []byte) bool {
		rec, err := traj.DecodeRecord(value)
		if err != nil {
			return true
		}
		if len(rec.Points) == 0 {
			return false
		}
		if !geo.MBRPoints(rec.Points).Intersects(ext) {
			return false
		}
		if endpointLemma {
			if qStart.Dist(rec.Points[0]) > eps || qEnd.Dist(rec.Points[len(rec.Points)-1]) > eps {
				return false
			}
		}
		return true
	}
	snap, err := j.cluster.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = snap.Close() }()
	var rows []cluster.Entry
	res, err := snap.ScanStream(context.Background(),
		cluster.StreamRequest{ScanRequest: cluster.ScanRequest{Ranges: keyRanges, Filter: filter}},
		func(b cluster.ScanBatch) error {
			rows = append(rows, b.Entries...)
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	// The ranges are disjoint, so the rows arrive in key order and equal
	// distances keep one output order from run to run.
	stats.Scanned = res.RowsScanned
	stats.Candidates = res.RowsReturned

	t1 := time.Now()
	within := dist.WithinFor(j.measure)
	full := dist.For(j.measure)
	var out []Result
	for _, e := range rows {
		rec, err := traj.DecodeRecord(e.Value)
		if err != nil {
			return nil, nil, err
		}
		if !within(q.Points, rec.Points, eps) {
			continue
		}
		out = append(out, Result{ID: rec.ID, Distance: full(q.Points, rec.Points)})
	}
	stats.RefineTime = time.Since(t1)
	sortResults(out)
	return out, stats, nil
}

func (j *JUST) valueKey(shard byte, value int64) []byte {
	key := make([]byte, 9)
	key[0] = shard
	binary.BigEndian.PutUint64(key[1:], uint64(value))
	return key
}

// TopK implements System via threshold expansion, the strategy a range-scan
// store without distance-ordered traversal is left with.
func (j *JUST) TopK(q *traj.Trajectory, k int) ([]Result, *Stats, error) {
	if k <= 0 {
		return nil, &Stats{}, nil
	}
	return expandingTopK(k, 0.002, func(eps float64) ([]Result, *Stats, error) {
		return j.Threshold(q, eps)
	})
}

func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Distance < rs[j].Distance })
}
