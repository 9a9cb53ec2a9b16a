package trass_test

// Usage examples, one per query kind: threshold search (Algorithm 3 of the
// TraSS paper), best-first top-k (Algorithm 4), the Hausdorff and DTW
// measures of Section VII and the spatial range query. go test runs each one
// and compares what it prints with its Output comment;
// `go test -run '^Example' -v .` runs them alone.

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	trass "repro"
	"repro/internal/gen"
)

// Open a store, load a few trajectories, and run both similarity searches
// against it.
func Example() {
	dir, err := os.MkdirTemp("", "trass-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := trass.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Three small trajectories in longitude/latitude, normalized onto the
	// index plane. Two commute along the same road; one is elsewhere.
	commute1 := trass.NewTrajectory("commute-1", lonLatPath(
		116.30, 39.90, 116.31, 39.905, 116.32, 39.91, 116.33, 39.915))
	commute2 := trass.NewTrajectory("commute-2", lonLatPath(
		116.301, 39.9005, 116.311, 39.9052, 116.321, 39.9101, 116.331, 39.9154))
	elsewhere := trass.NewTrajectory("elsewhere", lonLatPath(
		116.50, 39.80, 116.51, 39.80, 116.52, 39.81, 116.53, 39.81))

	if err := db.PutBatch([]*trass.Trajectory{commute1, commute2, elsewhere}); err != nil {
		log.Fatal(err)
	}

	// Threshold search: everything within ~0.005 degrees of commute-1.
	eps := 0.005 / 360 // degrees → normalized plane units
	matches, err := db.ThresholdSearch(commute1, eps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("threshold search around commute-1:")
	for _, m := range matches {
		fmt.Printf("  %-10s  distance %.6f\n", m.ID, m.Distance)
	}

	// Top-k search: the two nearest trajectories to commute-2.
	top, err := db.TopKSearch(commute2, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top-2 nearest to commute-2:")
	for i, m := range top {
		fmt.Printf("  #%d %-10s  distance %.6f\n", i+1, m.ID, m.Distance)
	}
	// Output:
	// threshold search around commute-1:
	//   commute-2   distance 0.000004
	//   commute-1   distance 0.000000
	// top-2 nearest to commute-2:
	//   #1 commute-2   distance 0.000000
	//   #2 commute-1   distance 0.000004
}

// lonLatPath builds normalized points from alternating lon/lat values.
func lonLatPath(coords ...float64) []trass.Point {
	pts := make([]trass.Point, len(coords)/2)
	for i := range pts {
		pts[i] = trass.NormalizeLonLat(coords[2*i], coords[2*i+1])
	}
	return pts
}

// Carpool matching, the paper's second motivating use case. For each
// commuter, a top-k similarity search finds the neighbours with the most
// similar daily routes; mutually-near routes form carpool groups. This is the
// best-first top-k path (Algorithm 4), not the threshold path.
func ExampleDB_TopKSearch() {
	dir, err := os.MkdirTemp("", "trass-carpool-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := trass.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Build commuter routes: 8 corridors through the city, each shared by a
	// handful of commuters with small personal detours, plus scattered
	// drivers who match nobody.
	rng := rand.New(rand.NewSource(11))
	var all []*trass.Trajectory
	for corridor := 0; corridor < 8; corridor++ {
		base := randomRoute(rng)
		for p := 0; p < 4+rng.Intn(4); p++ {
			id := fmt.Sprintf("corridor%d-driver%d", corridor, p)
			all = append(all, jitterRoute(rng, id, base, 0.00002))
		}
	}
	for s := 0; s < 40; s++ {
		all = append(all, jitterRoute(rng, fmt.Sprintf("solo-%d", s), randomRoute(rng), 0.0005))
	}
	if err := db.PutBatch(all); err != nil {
		log.Fatal(err)
	}

	// For a few drivers, find their 3 best carpool partners.
	for _, id := range []string{"corridor0-driver0", "corridor3-driver1", "solo-5"} {
		q := findRoute(all, id)
		top, err := db.TopKSearch(q, 4) // self + 3 partners
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s — best partners:\n", id)
		for _, m := range top {
			if m.ID == id {
				continue
			}
			fmt.Printf("  %-22s  route distance %.6f\n", m.ID, m.Distance)
		}
	}
	// Output:
	// corridor0-driver0 — best partners:
	//   corridor0-driver3       route distance 0.000017
	//   corridor0-driver1       route distance 0.000018
	//   corridor0-driver2       route distance 0.000021
	// corridor3-driver1 — best partners:
	//   corridor3-driver3       route distance 0.000017
	//   corridor3-driver0       route distance 0.000017
	//   corridor3-driver4       route distance 0.000018
	// solo-5 — best partners:
	//   solo-19                 route distance 0.000444
	//   solo-30                 route distance 0.000490
	//   corridor3-driver0       route distance 0.000615
}

// randomRoute is a straight route across a ~0.003-wide city box on the
// normalized plane.
func randomRoute(rng *rand.Rand) []trass.Point {
	cx, cy := 0.82+rng.Float64()*0.003, 0.72+rng.Float64()*0.003
	dx, dy := (rng.Float64()-0.5)*0.002, (rng.Float64()-0.5)*0.002
	n := 30 + rng.Intn(30)
	pts := make([]trass.Point, n)
	for i := range pts {
		f := float64(i) / float64(n-1)
		pts[i] = trass.Point{X: cx + f*dx, Y: cy + f*dy}
	}
	return pts
}

// jitterRoute is base with every point moved by up to j/2 on each axis.
func jitterRoute(rng *rand.Rand, id string, base []trass.Point, j float64) *trass.Trajectory {
	pts := make([]trass.Point, len(base))
	for i, p := range base {
		pts[i] = trass.Point{X: p.X + (rng.Float64()-0.5)*j, Y: p.Y + (rng.Float64()-0.5)*j}
	}
	return trass.NewTrajectory(id, pts)
}

func findRoute(all []*trass.Trajectory, id string) *trass.Trajectory {
	for _, t := range all {
		if t.ID == id {
			return t
		}
	}
	log.Fatalf("route %s not found", id)
	return nil
}

// Contact tracing, the paper's introductory use case. Given the trajectory
// of an infectious patient, find everyone whose trajectory stayed uniformly
// close to it: a threshold similarity search under the Fréchet distance,
// which (unlike a plain range query) requires the whole movement to match,
// not just a brush past one shared location. The same search is then
// narrowed to the infectious period with a time window.
func ExampleDB_Search() {
	dir, err := os.MkdirTemp("", "trass-contacts-*")
	if err != nil {
		log.Fatal(err)
	}
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
			// (day 4); contact-1 and contact-2 on days 1 and 2.
			times[j] = int64(i)*daySecs + 10*int64(j)
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
	// Output:
	// patient td001234: 3 potential close contacts
	//   contact-2     max separation 70.3 m (approx)
	//   contact-1     max separation 75.6 m (approx)
	//   contact-0     max separation 69.2 m (approx)
	//
	// search touched 23 of 5003 stored trajectories (0.46%), shipped 4 candidates
	//
	// during the infectious period (days 3-5) only:
	//   contact-0
}

// Fleet analytics at country scale (the paper's Lorry workload): the same
// routes queried under Fréchet, Hausdorff and DTW (Section VII), with the
// per-query counts a fleet operator would watch: rows scanned, candidates
// shipped, answers.
func ExampleDB_ThresholdSearchContext() {
	base, err := os.MkdirTemp("", "trass-fleet-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(base)

	// One dataset of 20,000 lorry routes, loaded once per measure (a store
	// is bound to one measure at open time).
	routes := gen.Lorry(gen.LorryOptions{Seed: 21, N: 20000})
	query := routes[777]
	eps := gen.DegreesToNorm(0.05)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	_, _ = fmt.Fprintln(w, "measure\tthreshold\tmatches\trows scanned\tcandidates\tprecision")
	var candidates []string
	for _, m := range []trass.Measure{trass.Frechet, trass.Hausdorff, trass.DTW} {
		db, err := trass.Open(filepath.Join(base, m.String()), trass.WithMeasure(m))
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
		_, _ = fmt.Fprintf(w, "%s\t%.6f\t%d\t%d\t%d\t%.3f\n",
			m, e, len(matches), stats.RowsScanned, stats.Retrieved, stats.Precision())

		// Fleet duty: the 5 routes most similar to a reference route, for
		// consolidation candidates.
		if m == trass.Frechet {
			top, err := db.TopKSearch(query, 6)
			if err != nil {
				log.Fatal(err)
			}
			for _, t := range top {
				if t.ID != query.ID {
					candidates = append(candidates, t.ID)
				}
			}
		}
		if err := db.Close(); err != nil {
			log.Fatal(err)
		}
	}
	// tabwriter defers all output (and any write error) to Flush.
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("→ consolidation candidates:", strings.Join(candidates, " "))
	// Output:
	// measure    threshold  matches  rows scanned  candidates  precision
	// frechet    0.000139   1        733           1           1.000
	// hausdorff  0.000139   1        733           1           1.000
	// dtw        0.006944   1        733           52          0.019
	// → consolidation candidates: lr013706 lr006836 lr008098 lr001968 lr002099
}

// Geofence audit with the spatial range query XZ* also supports (named in
// the paper's conclusion). A logistics operator checks which vehicle routes
// entered a restricted zone, a rectangle on the map, without scanning the
// whole fleet's history.
func ExampleDB_RangeSearch() {
	dir, err := os.MkdirTemp("", "trass-geofence-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := trass.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	routes := gen.Lorry(gen.LorryOptions{Seed: 33, N: 10000})
	if err := db.PutBatch(routes); err != nil {
		log.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}

	// Restricted zone: a box around one of the logistics hubs, derived from
	// a stored route so that there are always hits.
	anchor := routes[4321].Points[0]
	zone := trass.Rect{
		Min: trass.Point{X: anchor.X - 0.002, Y: anchor.Y - 0.002},
		Max: trass.Point{X: anchor.X + 0.002, Y: anchor.Y + 0.002},
	}

	matches, err := db.RangeSearch(zone)
	if err != nil {
		log.Fatal(err)
	}
	lonMin, latMin := trass.DenormalizeLonLat(zone.Min)
	lonMax, latMax := trass.DenormalizeLonLat(zone.Max)
	fmt.Printf("restricted zone lon [%.3f, %.3f] lat [%.3f, %.3f]\n",
		lonMin, lonMax, latMin, latMax)
	fmt.Printf("%d of %d routes entered the zone\n", len(matches), db.Count())
	for i, m := range matches {
		if i == 10 {
			fmt.Printf("  ... and %d more\n", len(matches)-10)
			break
		}
		fmt.Printf("  %s (%d points)\n", m.ID, len(m.Points))
	}
	// Output:
	// restricted zone lon [99.164, 100.604] lat [27.871, 28.591]
	// 1186 of 10000 routes entered the zone
	//   lr001709 (127 points)
	//   lr002308 (271 points)
	//   lr004250 (256 points)
	//   lr004294 (250 points)
	//   lr005860 (63 points)
	//   lr006227 (200 points)
	//   lr009583 (296 points)
	//   lr000081 (74 points)
	//   lr000298 (262 points)
	//   lr001169 (285 points)
	//   ... and 1176 more
}
