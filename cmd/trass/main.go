// Command trass is the command-line front end of the TraSS reproduction:
// generate synthetic datasets, load them into a store, and run similarity
// queries against it.
//
//	trass gen -kind tdrive -n 10000 -out taxis.txt
//	trass load -db /data/taxis -in taxis.txt
//	trass query -db /data/taxis -id td000042 -eps 0.01deg
//	trass query -db /data/taxis -id td000042 -k 50
//	trass query -server http://127.0.0.1:7474 -id td000042 -eps 0.01deg
//	trass query -server http://127.0.0.1:7474 -id td000042 -k 50
//	trass stats -db /data/taxis
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	trass "repro"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/traj"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "trass: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trass:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: trass <command> [flags]

commands:
  gen    generate a synthetic dataset (T-Drive-like or Lorry-like)
  load   load a dataset file into a store
  query  run a threshold or top-k similarity search (embedded, or against a
         running trassd with -server)
  stats  print store statistics
  export convert a dataset file to GeoJSON for map inspection

run "trass <command> -h" for command flags
`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "tdrive", "dataset kind: tdrive | lorry")
	n := fs.Int("n", 10000, "number of trajectories")
	seed := fs.Int64("seed", 1, "random seed")
	scale := fs.Int("scale", 1, "replicate the dataset this many times")
	out := fs.String("out", "", "output file (default stdout)")
	_ = fs.Parse(args)

	var trajs []*traj.Trajectory
	switch *kind {
	case "tdrive":
		trajs = gen.TDrive(gen.TDriveOptions{Seed: *seed, N: *n})
	case "lorry":
		trajs = gen.Lorry(gen.LorryOptions{Seed: *seed, N: *n})
	default:
		return fmt.Errorf("unknown dataset kind %q", *kind)
	}
	trajs = gen.Scale(trajs, *scale)
	if *out == "" {
		return gen.Write(os.Stdout, trajs)
	}
	if err := gen.WriteFile(*out, trajs); err != nil {
		return err
	}
	fmt.Printf("wrote %d trajectories to %s\n", len(trajs), *out)
	return nil
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	dbDir := fs.String("db", "", "store directory (required)")
	in := fs.String("in", "", "input dataset file (text format)")
	tdriveDir := fs.String("tdrive-dir", "", "directory with a real T-Drive release (one txt per taxi)")
	shards := fs.Int("shards", 0, "row-key shards (0: an existing store's own, 8 for a new one)")
	res := fs.Int("resolution", 0, "XZ* maximum resolution (0: an existing store's own, 16 for a new one)")
	_ = fs.Parse(args)
	if *dbDir == "" || (*in == "") == (*tdriveDir == "") {
		return fmt.Errorf("load: -db plus exactly one of -in or -tdrive-dir is required")
	}
	var trajs []*traj.Trajectory
	var err error
	if *tdriveDir != "" {
		trajs, err = gen.LoadTDriveDir(*tdriveDir)
	} else {
		trajs, err = gen.ReadFile(*in)
	}
	if err != nil {
		return err
	}
	db, err := trass.Open(*dbDir, trass.WithShards(*shards), trass.WithMaxResolution(*res))
	if err != nil {
		return err
	}
	defer db.Close()
	start := time.Now()
	if err := db.PutBatch(trajs); err != nil {
		return err
	}
	if err := db.Flush(); err != nil {
		return err
	}
	fmt.Printf("loaded %d trajectories in %v (%.0f/s)\n",
		len(trajs), time.Since(start).Round(time.Millisecond),
		float64(len(trajs))/time.Since(start).Seconds())
	return nil
}

// parseEps understands plain normalized values ("0.0001") and degree values
// with a "deg" suffix ("0.01deg"), matching the paper's units.
func parseEps(s string) (float64, error) {
	if deg, ok := strings.CutSuffix(s, "deg"); ok {
		v, err := strconv.ParseFloat(deg, 64)
		if err != nil {
			return 0, err
		}
		return gen.DegreesToNorm(v), nil
	}
	return strconv.ParseFloat(s, 64)
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dbDir := fs.String("db", "", "store directory (required unless -server)")
	srvURL := fs.String("server", "", "query a running trassd at this URL instead of opening a store")
	in := fs.String("in", "", "dataset file holding the query trajectory (default: look -id up in the store)")
	id := fs.String("id", "", "query trajectory id (required)")
	epsStr := fs.String("eps", "", "threshold (normalized, or degrees with deg suffix)")
	k := fs.Int("k", 0, "top-k (mutually exclusive with -eps)")
	measure := fs.String("measure", "frechet", "similarity measure: frechet | hausdorff | dtw")
	showStats := fs.Bool("stats", false, "print per-query statistics")
	_ = fs.Parse(args)
	if *srvURL != "" {
		measureSet := false
		fs.Visit(func(f *flag.Flag) { measureSet = measureSet || f.Name == "measure" })
		if measureSet {
			return fmt.Errorf("query: -measure does not apply with -server: the server answers under its own measure (trassd -measure)")
		}
		return serverQuery(*srvURL, *in, *id, *epsStr, *k, *showStats)
	}
	if *dbDir == "" {
		return fmt.Errorf("query: -db is required")
	}
	if (*epsStr == "") == (*k == 0) {
		return fmt.Errorf("query: exactly one of -eps or -k is required")
	}

	var m trass.Measure
	switch *measure {
	case "frechet":
		m = trass.Frechet
	case "hausdorff":
		m = trass.Hausdorff
	case "dtw":
		m = trass.DTW
	default:
		return fmt.Errorf("unknown measure %q", *measure)
	}

	if *id == "" {
		return fmt.Errorf("query: -id is required")
	}
	db, err := trass.Open(*dbDir, trass.WithMeasure(m))
	if err != nil {
		return err
	}
	defer db.Close()

	var q *traj.Trajectory
	if *in != "" {
		trajs, err := gen.ReadFile(*in)
		if err != nil {
			return err
		}
		for _, t := range trajs {
			if t.ID == *id {
				q = t
				break
			}
		}
		if q == nil {
			return fmt.Errorf("trajectory %q not found in %s", *id, *in)
		}
	} else {
		// No dataset file: resolve the query trajectory from the store.
		q, err = db.Get(*id)
		if err != nil {
			return fmt.Errorf("trajectory %q not in store (pass -in to query with an external trajectory): %w", *id, err)
		}
	}

	query := trass.Query{Kind: trass.KindTopK, Traj: q, K: *k}
	if *epsStr != "" {
		eps, err := parseEps(*epsStr)
		if err != nil {
			return fmt.Errorf("bad -eps: %v", err)
		}
		query = trass.Query{Kind: trass.KindThreshold, Traj: q, Eps: eps}
	}
	start := time.Now()
	matches, stats, err := db.Search(context.Background(), query, nil)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	for _, match := range matches {
		fmt.Printf("%s\t%.9f\n", match.ID, match.Distance)
	}
	fmt.Fprintf(os.Stderr, "%d results in %v\n", len(matches), elapsed.Round(time.Microsecond))
	if *showStats {
		fmt.Fprintf(os.Stderr,
			"prune %v | scan %v | refine %v | ranges %d | rows scanned %d | retrieved %d | precision %.3f\n",
			stats.PruneTime.Round(time.Microsecond), stats.ScanTime.Round(time.Microsecond),
			stats.RefineTime.Round(time.Microsecond), stats.Ranges,
			stats.RowsScanned, stats.Retrieved, stats.Precision())
	}
	return nil
}

// serverQuery runs the query against a trassd server instead of an embedded
// store, printing each match as its line arrives, in the format the embedded
// path uses. A top-k query over the same store is byte-identical to `trass
// query -db`: its matches arrive in (distance, id) order once the search
// ends. Threshold matches arrive in refinement-completion order, so they are
// the embedded answer's lines in another order. The serve step of
// scripts/check.sh compares both with cmp, threshold after sort.
func serverQuery(srvURL string, in, id, epsStr string, k int, showStats bool) error {
	if id == "" {
		return fmt.Errorf("query: -id is required")
	}
	if (epsStr == "") == (k == 0) {
		return fmt.Errorf("query: exactly one of -eps or -k is required")
	}
	req := server.QueryRequest{QueryID: id}
	if in != "" {
		// Ship the trajectory inline: the server need not have it stored.
		trajs, err := gen.ReadFile(in)
		if err != nil {
			return err
		}
		var q *traj.Trajectory
		for _, t := range trajs {
			if t.ID == id {
				q = t
				break
			}
		}
		if q == nil {
			return fmt.Errorf("trajectory %q not found in %s", id, in)
		}
		req.QueryID = ""
		req.Points = make([][2]float64, len(q.Points))
		for i, p := range q.Points {
			req.Points[i] = [2]float64{p.X, p.Y}
		}
	}
	if epsStr != "" {
		eps, err := parseEps(epsStr)
		if err != nil {
			return fmt.Errorf("bad -eps: %v", err)
		}
		req.Kind = server.KindThreshold
		req.Eps = eps
	} else {
		req.Kind = server.KindTopK
		req.K = k
	}

	n := 0
	start := time.Now()
	stats, err := server.NewClient(srvURL).QueryStream(context.Background(), req, func(m server.WireMatch) error {
		n++
		_, err := fmt.Printf("%s\t%.9f\n", m.ID, m.Distance)
		return err
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(os.Stderr, "%d results in %v\n", n, elapsed.Round(time.Microsecond))
	if showStats && stats != nil {
		fmt.Fprintf(os.Stderr,
			"prune %v | scan %v | refine %v | ranges %d | rows scanned %d | retrieved %d\n",
			time.Duration(stats.PruneNS).Round(time.Microsecond),
			time.Duration(stats.ScanNS).Round(time.Microsecond),
			time.Duration(stats.RefineNS).Round(time.Microsecond),
			stats.Ranges, stats.RowsScanned, stats.Retrieved)
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	in := fs.String("in", "", "input dataset file (required)")
	out := fs.String("out", "", "output GeoJSON file (default stdout)")
	limit := fs.Int("limit", 0, "export at most this many trajectories (0 = all)")
	_ = fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("export: -in is required")
	}
	trajs, err := gen.ReadFile(*in)
	if err != nil {
		return err
	}
	if *limit > 0 && len(trajs) > *limit {
		trajs = trajs[:*limit]
	}
	if *out == "" {
		return gen.WriteGeoJSON(os.Stdout, trajs)
	}
	if err := gen.WriteGeoJSONFile(*out, trajs); err != nil {
		return err
	}
	fmt.Printf("wrote %d trajectories to %s\n", len(trajs), *out)
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	dbDir := fs.String("db", "", "store directory (required)")
	verify := fs.Bool("verify", false, "also check on-disk block checksums")
	_ = fs.Parse(args)
	if *dbDir == "" {
		return fmt.Errorf("stats: -db is required")
	}
	db, err := trass.Open(*dbDir)
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Printf("trajectories: %d\n", db.Count())
	if *verify {
		if err := db.Verify(); err != nil {
			return fmt.Errorf("integrity check failed: %w", err)
		}
		fmt.Println("integrity: ok")
	}
	return nil
}
