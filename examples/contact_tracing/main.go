// Contact tracing: the paper's introductory use case. Given the trajectory
// of an infectious patient, find everyone whose trajectory stayed uniformly
// close to it — a threshold similarity search under the Fréchet distance,
// which (unlike a plain range query) requires the *whole* movement to match,
// not just a brush past one shared location. The search is then narrowed to
// the infectious period with a time window.
//
//	go run ./examples/contact_tracing
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	trass "repro"
	"repro/internal/gen"
)

func main() {
	dir, err := os.MkdirTemp("", "trass-contacts-*")
	if err != nil {
		log.Fatal(err)
	}
	//lint:ignore vfsseam example scaffolding: demos remove their own temp dir; not a persistence path under fault injection
	defer os.RemoveAll(dir)

	db, err := trass.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// A city of 5,000 people moving around.
	population := gen.TDrive(gen.TDriveOptions{Seed: 7, N: 5000})
	if err := db.PutBatch(population); err != nil {
		log.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}

	// The patient: one of the stored trajectories. Plant three true close
	// contacts — people who moved along with the patient within ~100 m.
	patient := population[1234]
	rng := rand.New(rand.NewSource(99))
	closeness := 0.001 / 360 // ~0.001 degrees ≈ 100 m
	const daySecs = int64(86400)
	for i := 0; i < 3; i++ {
		pts := make([]trass.Point, len(patient.Points))
		times := make([]int64, len(patient.Points))
		for j, p := range patient.Points {
			pts[j] = trass.Point{
				X: p.X + (rng.Float64()-0.5)*closeness,
				Y: p.Y + (rng.Float64()-0.5)*closeness,
			}
			// contact-0 moved with the patient during the infectious period
			// (day 4); the others were earlier.
			times[j] = int64(i*2)*daySecs + 10*int64(j)
			if i == 0 {
				times[j] += 4 * daySecs
			}
		}
		contact := trass.NewTimedTrajectory(fmt.Sprintf("contact-%d", i), pts, times)
		if err := db.Put(contact); err != nil {
			log.Fatal(err)
		}
	}

	// Anyone within 0.002 degrees (~200 m) of the patient's whole path.
	eps := 0.002 / 360
	search := trass.Query{Kind: trass.KindThreshold, Traj: patient, Eps: eps}
	matches, stats, err := db.Search(context.Background(), search, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Narrowed to the infectious period: same search, but only trajectories
	// observed during those days qualify (the untimed background population
	// conservatively matches any window).
	search.Window = trass.TimeWindow{Start: 3 * daySecs, End: 5 * daySecs}
	inPeriod, _, err := db.Search(context.Background(), search, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("patient %s: %d potential close contacts\n", patient.ID, len(matches)-1)
	for _, m := range matches {
		if m.ID == patient.ID {
			continue
		}
		fmt.Printf("  %-12s  max separation %.1f m (approx)\n", m.ID, m.Distance*360*111_000)
	}
	fmt.Printf("\nsearch touched %d of %d stored trajectories (%.2f%%), shipped %d candidates\n",
		stats.RowsScanned, db.Count(),
		100*float64(stats.RowsScanned)/float64(db.Count()), stats.Retrieved)

	fmt.Printf("\nduring the infectious period (days 3-5) only:\n")
	for _, m := range inPeriod {
		if m.ID != patient.ID {
			fmt.Printf("  %s\n", m.ID)
		}
	}
}
