package bench

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/dist"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/traj"
	"repro/internal/xzstar"
)

// Fig12 reproduces Figure 12: how trajectories distribute over XZ*
// resolutions and position codes on both workloads.
func Fig12(cfg Config) ([]*Table, error) {
	resTab := &Table{
		Title:   "Fig 12(a) — trajectories per resolution",
		Columns: []string{"resolution", "tdrive", "lorry"},
	}
	codeTab := &Table{
		Title:   "Fig 12(b) — trajectories per position code",
		Columns: []string{"position code", "tdrive", "lorry"},
	}

	hist := map[datasetKind]struct{ res, codes []int64 }{}
	for _, kind := range []datasetKind{dsTDrive, dsLorry} {
		st, err := store.Open(store.Config{
			Dir:         filepath.Join(cfg.Dir, "fig12-"+string(kind)),
			DPTolerance: gen.DegreesToNorm(0.01),
		})
		if err != nil {
			return nil, err
		}
		if err := st.PutBatch(cfg.dataset(kind)); err != nil {
			_ = st.Close()
			return nil, err
		}
		r, c := st.Distribution()
		hist[kind] = struct{ res, codes []int64 }{r, c}
		_ = st.Close()
	}

	for r := 1; r <= 16; r++ {
		resTab.AddRow(fmt.Sprintf("%d", r),
			fmt.Sprintf("%d", hist[dsTDrive].res[r]),
			fmt.Sprintf("%d", hist[dsLorry].res[r]))
	}
	for p := 1; p <= 10; p++ {
		codeTab.AddRow(fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", hist[dsTDrive].codes[p]),
			fmt.Sprintf("%d", hist[dsLorry].codes[p]))
	}
	return []*Table{resTab, codeTab}, nil
}

// Fig13 reproduces Figure 13: indexing time per system per dataset, and the
// average row-key bytes of TraSS's integer encoding versus the TraSS-S
// string encoding (the paper reports −32% on T-Drive, −27% on Lorry).
func Fig13(cfg Config) ([]*Table, error) {
	buildTab := &Table{
		Title:   "Fig 13(a)(b) — indexing time",
		Columns: []string{"dataset", "system", "index+load time"},
	}
	keyTab := &Table{
		Title:   "Fig 13(c) — average row-key bytes",
		Columns: []string{"dataset", "TraSS (integer)", "TraSS-S (string)", "reduction"},
	}

	names := []string{"TraSS", "DFT", "DITA", "REPOSE", "JUST"}
	for _, kind := range []datasetKind{dsTDrive, dsLorry} {
		trajs := cfg.dataset(kind)
		systems, buildTimes, err := cfg.buildSystems(kind, dist.Frechet, names, trajs)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			buildTab.AddRow(string(kind), name, buildTimes[name].Round(time.Millisecond).String())
		}
		closeAll(systems)

		intBytes, strBytes := rowKeySizes(trajs)
		keyTab.AddRow(string(kind),
			fmt.Sprintf("%.1f B", intBytes),
			fmt.Sprintf("%.1f B", strBytes),
			fmt.Sprintf("%.0f%%", 100*(1-intBytes/strBytes)))
	}
	return []*Table{buildTab, keyTab}, nil
}

// rowKeySizes computes the mean row-key bytes of the two encodings from each
// trajectory's index entry: shard + 8-byte value + separator + id for the
// store's integer key; shard + quadrant digits + position code + separator +
// id for TraSS-S. Nothing is loaded.
func rowKeySizes(trajs []*traj.Trajectory) (intB, strB float64) {
	ix := xzstar.MustNew(xzstar.DefaultResolution)
	var intSum, strSum int
	for _, t := range trajs {
		intSum += 1 + 8 + 1 + len(t.ID)
		strSum += 1 + ix.Assign(t.Points).Seq.Len() + 1 + 1 + len(t.ID)
	}
	n := float64(len(trajs))
	return float64(intSum) / n, float64(strSum) / n
}

// Fig14 reproduces Figures 14-15: the effect of the maximum resolution on
// selectivity (distinct index values / rows) and on both query types.
func Fig14(cfg Config) ([]*Table, error) {
	tab := &Table{
		Title:   "Fig 14/15 — effect of max resolution (T-Drive workload)",
		Columns: []string{"max resolution", "selectivity", "threshold time (ε=0.01°)", "top-k time (k=100)"},
	}
	trajs := cfg.dataset(dsTDrive)
	queries := gen.Queries(trajs, cfg.Seed+15, cfg.Queries)
	for _, res := range []int{12, 14, 16, 18, 20} {
		st, err := store.Open(store.Config{
			Dir:           filepath.Join(cfg.Dir, fmt.Sprintf("fig14-r%d", res)),
			MaxResolution: res,
			DPTolerance:   gen.DegreesToNorm(0.01),
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

		var thrTimes, topTimes []time.Duration
		for _, q := range queries {
			t0 := time.Now()
			if _, _, err := eng.ThresholdContext(context.Background(), q, gen.DegreesToNorm(0.01)); err != nil {
				_ = st.Close()
				return nil, err
			}
			thrTimes = append(thrTimes, time.Since(t0))
			t1 := time.Now()
			if _, _, err := eng.TopKContext(context.Background(), q, 100); err != nil {
				_ = st.Close()
				return nil, err
			}
			topTimes = append(topTimes, time.Since(t1))
		}
		tab.AddRow(fmt.Sprintf("%d", res),
			fmt.Sprintf("%.4f", st.Selectivity()),
			median(thrTimes).Round(time.Microsecond).String(),
			median(topTimes).Round(time.Microsecond).String())
		cfg.logf("fig14 r=%d done", res)
		_ = st.Close()
	}
	return []*Table{tab}, nil
}
