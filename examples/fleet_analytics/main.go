// Fleet analytics: country-scale logistics (the paper's Lorry workload).
// Shows the measure extensions of Section VII — the same store queried under
// Fréchet, Hausdorff and DTW — and the per-query statistics a fleet operator
// would watch (rows scanned vs candidates vs answers).
//
//	go run ./examples/fleet_analytics
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	trass "repro"
	"repro/internal/gen"
)

func main() {
	base, err := os.MkdirTemp("", "trass-fleet-*")
	if err != nil {
		log.Fatal(err)
	}
	//lint:ignore vfsseam example scaffolding: demos remove their own temp dir; not a persistence path under fault injection
	defer os.RemoveAll(base)

	// One dataset of 20,000 lorry routes, loaded once per measure (a store
	// is bound to one measure at open time).
	routes := gen.Lorry(gen.LorryOptions{Seed: 21, N: 20000})
	query := routes[777]
	eps := gen.DegreesToNorm(0.05)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	_, _ = fmt.Fprintln(w, "measure\tthreshold\tmatches\trows scanned\tcandidates\tprecision\tquery time")
	for _, m := range []trass.Measure{trass.Frechet, trass.Hausdorff, trass.DTW} {
		dir := fmt.Sprintf("%s/%s", base, m)
		db, err := trass.Open(dir, trass.WithMeasure(m))
		if err != nil {
			log.Fatal(err)
		}
		if err := db.PutBatch(routes); err != nil {
			log.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			log.Fatal(err)
		}

		e := eps
		if m == trass.DTW {
			e *= 50 // DTW sums distances over points; rescale the threshold
		}
		matches, stats, err := db.ThresholdSearchContext(context.Background(), query, e)
		if err != nil {
			log.Fatal(err)
		}
		_, _ = fmt.Fprintf(w, "%s\t%.6f\t%d\t%d\t%d\t%.3f\t%v\n",
			m, e, len(matches), stats.RowsScanned, stats.Retrieved,
			stats.Precision(), (stats.PruneTime + stats.ScanTime + stats.RefineTime).Round(1000))

		// Fleet duty: the 5 routes most similar to a reference route, for
		// consolidation candidates.
		if m == trass.Frechet {
			top, err := db.TopKSearch(query, 6)
			if err != nil {
				log.Fatal(err)
			}
			_, _ = fmt.Fprintf(w, "\t→ consolidation candidates:\t")
			for _, t := range top {
				if t.ID != query.ID {
					_, _ = fmt.Fprintf(w, "%s ", t.ID)
				}
			}
			_, _ = fmt.Fprintln(w)
		}
		if err := db.Close(); err != nil {
			log.Fatal(err)
		}
	}
	// tabwriter defers all output (and any write error) to Flush.
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
