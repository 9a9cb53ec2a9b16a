package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// Fig17 reproduces Figure 17: indexing time and both query times as the
// Lorry workload is replicated ×t (the paper's synthetic datasets are ×t
// copies of Lorry). TraSS is compared against JUST, the other key-value
// system.
func Fig17(cfg Config) ([]*Table, error) {
	tab := &Table{
		Title:   "Fig 17 — scalability over ×t copies of the Lorry workload",
		Columns: []string{"t", "system", "index+load", "threshold (ε=0.01°)", "top-k (k=100)"},
	}
	base := cfg.dataset(dsLorry)
	for _, t := range []int{1, 2, 3, 4, 5} {
		trajs := gen.Scale(base, t)
		queries := gen.Queries(base, cfg.Seed+16, cfg.Queries)
		for _, name := range []string{"TraSS", "JUST"} {
			sysMap, buildTimes, err := cfg.buildSystemsAt(fmt.Sprintf("fig17-x%d", t), dsLorry, dist.Frechet, []string{name}, trajs)
			if err != nil {
				return nil, err
			}
			sys := sysMap[name]
			thr, err := runThreshold(sys, queries, gen.DegreesToNorm(0.01))
			if err != nil {
				closeAll(sysMap)
				return nil, err
			}
			top, err := runTopK(sys, queries, 100)
			if err != nil {
				closeAll(sysMap)
				return nil, err
			}
			tab.AddRow(fmt.Sprintf("%d", t), name,
				buildTimes[name].Round(time.Millisecond).String(),
				thr.medianTime.Round(time.Microsecond).String(),
				top.medianTime.Round(time.Microsecond).String())
			cfg.logf("fig17 x%d %s done", t, name)
			closeAll(sysMap)
		}
	}
	return []*Table{tab}, nil
}

// buildSystemsAt is buildSystems with an explicit scratch-subdirectory
// prefix, for experiments that build the same system repeatedly.
func (c Config) buildSystemsAt(prefix string, kind datasetKind, measure dist.Measure, names []string, trajs []*traj.Trajectory) (map[string]baselines.System, map[string]time.Duration, error) {
	sub := c
	sub.Dir = filepath.Join(c.Dir, prefix)
	return sub.buildSystems(kind, measure, names, trajs)
}

// Fig19 reproduces Figure 19: the effect of the shard count under a
// simulated deployment — 200µs per region RPC and a bounded handler pool per
// region (an HBase region server's RPC handlers), with several concurrent
// query clients. Too few shards serialize on the handler pool (the paper's
// data-skew effect); too many add region RPCs, which a query's scan makes
// one after another. The paper's sweet spot on its five-node cluster is 8
// shards.
func Fig19(cfg Config) ([]*Table, error) {
	tab := &Table{
		Title:   "Fig 19 — effect of shards (200µs RPC, 2 handlers/region, 8 concurrent clients, ε=0.01°)",
		Columns: []string{"shards", "mean query latency", "RPCs/query"},
	}
	trajs := cfg.dataset(dsTDrive)
	queries := gen.Queries(trajs, cfg.Seed+17, cfg.Queries*4)
	const clients = 8
	for _, shards := range []int{1, 2, 4, 8, 16, 32} {
		st, err := store.Open(store.Config{
			Dir:               filepath.Join(cfg.Dir, fmt.Sprintf("fig19-s%d", shards)),
			Shards:            shards,
			DPTolerance:       gen.DegreesToNorm(0.01),
			RPCLatency:        200 * time.Microsecond,
			HandlersPerRegion: 2,
		})
		if err != nil {
			return nil, err
		}
		if err := st.PutBatch(trajs); err != nil {
			_ = st.Close()
			return nil, err
		}
		if err := st.Flush(); err != nil {
			_ = st.Close()
			return nil, err
		}
		eng := query.New(st, dist.Frechet)

		// Each client accumulates into its own slot; slots are merged only
		// after wg.Wait(), so the fan-out is race-free by construction
		// rather than by locking on the hot path.
		type clientResult struct {
			total time.Duration
			rpcs  float64
			err   error
		}
		results := make([]clientResult, clients)
		next := make(chan int, len(queries))
		for i := range queries {
			next <- i
		}
		close(next)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(slot *clientResult) {
				defer wg.Done()
				for i := range next {
					t0 := time.Now()
					_, qs, err := eng.ThresholdContext(context.Background(), queries[i], gen.DegreesToNorm(0.01))
					if err != nil {
						if slot.err == nil {
							slot.err = err
						}
						continue
					}
					slot.total += time.Since(t0)
					slot.rpcs += float64(qs.RPCs)
				}
			}(&results[c])
		}
		wg.Wait()
		var total time.Duration
		var rpcs float64
		for _, r := range results {
			if r.err != nil {
				_ = st.Close()
				return nil, r.err
			}
			total += r.total
			rpcs += r.rpcs
		}
		n := float64(len(queries))
		tab.AddRow(fmt.Sprintf("%d", shards),
			(total / time.Duration(len(queries))).Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f", rpcs/n))
		cfg.logf("fig19 shards=%d done", shards)
		_ = st.Close()
	}
	return []*Table{tab}, nil
}

// FigIO reproduces the paper's headline I/O claim (Sections IV-B and VI-D):
// the reduction in rows scanned when XZ* global pruning replaces the plain
// XZ-Ordering cover. Both sides run on the same substrate with the same
// local filtering disabled, isolating the index's contribution. The paper
// reports up to 66.4% measured (83.6% theoretical average).
func FigIO(cfg Config) ([]*Table, error) {
	tab := &Table{
		Title:   "§VI-D — rows scanned: XZ* global pruning vs XZ-Ordering cover",
		Columns: []string{"dataset", "ε (deg)", "XZ-Ordering rows", "XZ* rows", "reduction"},
	}
	for _, kind := range []datasetKind{dsTDrive, dsLorry} {
		trajs := cfg.dataset(kind)
		queries := gen.Queries(trajs, cfg.Seed+18, cfg.Queries)

		sysMap, _, err := cfg.buildSystemsAt("io-"+string(kind), kind, dist.Frechet, []string{"TraSS", "JUST"}, trajs)
		if err != nil {
			return nil, err
		}
		for _, epsDeg := range Epsilons {
			eps := gen.DegreesToNorm(epsDeg)
			just, err := runThreshold(sysMap["JUST"], queries, eps)
			if err != nil {
				closeAll(sysMap)
				return nil, err
			}
			trass, err := runThreshold(sysMap["TraSS"], queries, eps)
			if err != nil {
				closeAll(sysMap)
				return nil, err
			}
			reduction := 0.0
			if just.scanned > 0 {
				reduction = 100 * (1 - trass.scanned/just.scanned)
			}
			tab.AddRow(string(kind), fmt.Sprintf("%g", epsDeg),
				fmt.Sprintf("%.1f", just.scanned),
				fmt.Sprintf("%.1f", trass.scanned),
				fmt.Sprintf("%.1f%%", reduction))
		}
		closeAll(sysMap)
		cfg.logf("io %s done", kind)
	}

	// The theoretical side: the position-code arithmetic of Section IV-B.
	theory := &Table{
		Title:   "§IV-B — theoretical I/O reduction from position codes",
		Columns: []string{"far quads", "index spaces pruned", "reduction"},
	}
	masks := []struct {
		name string
		mask xzstar.QuadMask
	}{
		{"a", xzstar.QuadA}, {"b", xzstar.QuadB}, {"c", xzstar.QuadC}, {"d", xzstar.QuadD},
		{"ab", xzstar.QuadA | xzstar.QuadB}, {"ac", xzstar.QuadA | xzstar.QuadC},
		{"ad", xzstar.QuadA | xzstar.QuadD}, {"bc", xzstar.QuadB | xzstar.QuadC},
		{"bd", xzstar.QuadB | xzstar.QuadD}, {"cd", xzstar.QuadC | xzstar.QuadD},
		{"abc", xzstar.QuadA | xzstar.QuadB | xzstar.QuadC},
		{"abd", xzstar.QuadA | xzstar.QuadB | xzstar.QuadD},
		{"acd", xzstar.QuadA | xzstar.QuadC | xzstar.QuadD},
		{"bcd", xzstar.QuadB | xzstar.QuadC | xzstar.QuadD},
	}
	total := 0.0
	for _, m := range masks {
		pruned := 0
		for p := xzstar.PosCode(1); p <= 10; p++ {
			if p.Mask()&m.mask != 0 {
				pruned++
			}
		}
		total += float64(pruned) / 10
		theory.AddRow(m.name, fmt.Sprintf("%d/10", pruned), fmt.Sprintf("%d%%", pruned*10))
	}
	theory.AddRow("average", "", fmt.Sprintf("%.1f%%", 100*total/float64(len(masks))))
	return []*Table{tab, theory}, nil
}
