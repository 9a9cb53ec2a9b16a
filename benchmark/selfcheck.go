package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// metricSpec is one end-to-end metric's contract: its unit, which direction
// is better, and the share of the baseline's median by which it may worsen
// before a change counts as a regression. BENCHMARK.json carries the same
// table for the driver; a test keeps the two in step.
type metricSpec struct {
	name, unit string
	higher     bool
	bound      float64
}

var endToEndSpecs = []metricSpec{
	{"setup_s", "s", false, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"op_p90_ms", "ms", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"cpu_ms_per_op", "ms", false, 0.25},
	{"alloc_kb_per_op", "kB", false, 0.05},
	{"heap_inuse_mb", "MB", false, 0.10},
	{"stored_bytes_per_user_byte", "ratio", false, 0.01},
}

// selfRow is one metric's comparison between the two sets.
type selfRow struct {
	Metric  string  `json:"metric"`
	Unit    string  `json:"unit"`
	Median1 float64 `json:"median_1"`
	IQR1    float64 `json:"iqr_1"`
	Median2 float64 `json:"median_2"`
	IQR2    float64 `json:"iqr_2"`
	// Spread is the wider of the two sets' inter-quartile ranges as a share
	// of that set's median.
	Spread float64 `json:"spread"`
	// Gap is how much worse the second median is than the first, as a share
	// of the first; negative when it is better.
	Gap   float64 `json:"gap"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
}

// selfReport is what -selfcheck prints and what benchmark/baseline keeps.
type selfReport struct {
	Workload string                  `json:"workload"`
	Seeds    []int64                 `json:"seeds"`
	Seconds  float64                 `json:"seconds"`
	Passes   int                     `json:"passes_per_set"`
	Rows     []selfRow               `json:"rows"`
	Sets     [2][]map[string]float64 `json:"sets"`
}

// compareSets builds the per-metric rows from two sets of runs.
func compareSets(sets [2][]map[string]float64) []selfRow {
	rows := make([]selfRow, 0, len(endToEndSpecs))
	for _, spec := range endToEndSpecs {
		var v [2][]float64
		for s := range sets {
			for _, run := range sets[s] {
				v[s] = append(v[s], run[spec.name])
			}
		}
		row := selfRow{Metric: spec.name, Unit: spec.unit, Bound: spec.bound,
			Median1: median(v[0]), Median2: median(v[1])}
		q1, q3 := quartiles(v[0])
		row.IQR1 = q3 - q1
		q1, q3 = quartiles(v[1])
		row.IQR2 = q3 - q1
		row.Spread = max(spread(v[0]), spread(v[1]))
		row.Gap = (row.Median2 - row.Median1) / row.Median1
		if spec.higher {
			row.Gap = -row.Gap
		}
		// setup_s is held to its bound on the medians only; every other
		// metric must also keep its spread inside the bound.
		row.OK = row.Gap <= spec.bound && (spec.name == "setup_s" || row.Spread <= spec.bound)
		rows = append(rows, row)
	}
	return rows
}

// selfcheck measures the benchmark's own repeatability the way a comparison
// between two commits would: two sets of n runs of identical code, each run
// a fresh process on its own seed, each set preceded by one discarded cold
// run. It fails when a metric's two medians differ by more than the metric's
// bound, or its spread exceeds it.
func selfcheck(ctx context.Context, ws []workload, seed int64, seconds float64, n int, out string) error {
	if n < 5 {
		return fmt.Errorf("-selfcheck needs at least 5 passes per set, got %d", n)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var reports []selfReport
	bad := 0
	for _, w := range ws {
		rep := selfReport{Workload: w.name, Seconds: seconds, Passes: n}
		for p := 1; p <= n; p++ {
			rep.Seeds = append(rep.Seeds, seed+int64(p))
		}
		for s := range rep.Sets {
			for p := 0; p <= n && ctx.Err() == nil; p++ {
				res, err := childRun(ctx, exe, w.name, seed+int64(p), seconds)
				if err != nil {
					return fmt.Errorf("%s set %d pass %d: %w", w.name, s+1, p, err)
				}
				if p == 0 {
					continue // cold: page cache, CPU frequency, build cache
				}
				vals := make(map[string]float64, len(res.Metrics))
				for name, m := range res.Metrics {
					vals[name] = m.Value
				}
				rep.Sets[s] = append(rep.Sets[s], vals)
				fmt.Printf("%s set %d pass %d/%d seed %d done\n", w.name, s+1, p, n, seed+int64(p))
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		rep.Rows = compareSets(rep.Sets)
		fmt.Printf("\n%s: two sets of %d runs, %gs windows\n", w.name, n, seconds)
		fmt.Printf("  %-28s %12s %10s %12s %10s %8s %8s %6s\n", "metric", "median 1", "iqr 1", "median 2", "iqr 2", "spread", "gap", "bound")
		for _, r := range rep.Rows {
			verdict := ""
			if !r.OK {
				verdict = "  <-- outside bound"
				bad++
			}
			fmt.Printf("  %-28s %12.6g %10.4g %12.6g %10.4g %7.2f%% %+7.2f%% %5.0f%%%s\n",
				r.Metric, r.Median1, r.IQR1, r.Median2, r.IQR2, 100*r.Spread, 100*r.Gap, 100*r.Bound, verdict)
		}
		reports = append(reports, rep)
	}
	if out != "" {
		var buf []byte
		if len(reports) == 1 {
			buf, err = json.MarshalIndent(reports[0], "", " ")
		} else {
			buf, err = json.MarshalIndent(reports, "", " ")
		}
		if err != nil {
			return err
		}
		if err := writeFile(out, append(buf, '\n')); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", bad)
	}
	return nil
}

// childRun is one measured run in a fresh process, so no run inherits
// another's heap.
func childRun(ctx context.Context, exe, name string, seed int64, seconds float64) (*result, error) {
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line of child output: %w", err)
	}
	return &res, nil
}
