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
)

// Ablation isolates what each design choice of the paper contributes, the
// study DESIGN.md calls out: position codes (the XZ* novelty over
// XZ-Ordering), the DP-feature local filter (Lemmas 13-14), and the
// coprocessor push-down as a whole.
func Ablation(cfg Config) ([]*Table, error) {
	tab := &Table{
		Title:   "Ablation — TraSS design choices at ε=0.01° (T-Drive workload)",
		Columns: []string{"variant", "rows scanned", "retrieved", "precision", "median time"},
	}
	trajs := cfg.dataset(dsTDrive)
	queries := gen.Queries(trajs, cfg.Seed+19, cfg.Queries)
	eps := gen.DegreesToNorm(0.01)

	st, err := store.Open(store.Config{
		Dir:         filepath.Join(cfg.Dir, "ablation"),
		DPTolerance: gen.DegreesToNorm(0.01),
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.PutBatch(trajs); err != nil {
		return nil, err
	}
	if err := st.Flush(); err != nil {
		return nil, err
	}

	variants := []struct {
		name   string
		tuning query.Tuning
	}{
		{"full TraSS", query.Tuning{}},
		{"no position codes (element pruning only)", query.Tuning{DisablePosCodes: true}},
		{"endpoint-only local filter (Lemma 12)", query.Tuning{EndpointOnlyFilter: true}},
		{"no local filter", query.Tuning{DisableLocalFilter: true}},
		{"neither stage", query.Tuning{DisablePosCodes: true, DisableLocalFilter: true}},
	}
	eng := query.New(st, dist.Frechet)
	var fullResults int
	for vi, v := range variants {
		eng.SetTuning(v.tuning)
		var times []time.Duration
		var scanned, retrieved, results float64
		for _, q := range queries {
			t0 := time.Now()
			rs, qs, err := eng.ThresholdContext(context.Background(), q, eps)
			if err != nil {
				return nil, err
			}
			times = append(times, time.Since(t0))
			scanned += float64(qs.RowsScanned)
			retrieved += float64(qs.Retrieved)
			results += float64(len(rs))
		}
		// Every variant must return identical answers: the stages only
		// prune provably-dissimilar rows.
		if vi == 0 {
			fullResults = int(results)
		} else if int(results) != fullResults {
			return nil, fmt.Errorf("ablation: variant %q returned %d results, full returned %d",
				v.name, int(results), fullResults)
		}
		n := float64(len(queries))
		precision := 1.0
		if retrieved > 0 {
			precision = results / retrieved
		}
		tab.AddRow(v.name,
			fmt.Sprintf("%.1f", scanned/n),
			fmt.Sprintf("%.1f", retrieved/n),
			fmt.Sprintf("%.3f", precision),
			median(times).Round(time.Microsecond).String())
		cfg.logf("ablation %q done", v.name)
	}
	return []*Table{tab}, nil
}
