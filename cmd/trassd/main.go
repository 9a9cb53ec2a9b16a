// Command trassd serves a TraSS store over the network: the full query
// surface (threshold / top-k / range / point-kNN plus time-window variants)
// over HTTP/JSON, with chunked NDJSON streaming of results, per-request
// deadlines, bounded in-flight admission with 429 shedding, /healthz +
// /statsz, and graceful drain on SIGINT/SIGTERM.
//
//	trassd -db /data/taxis -addr :7474
//	trassd -db /data/taxis -addr 127.0.0.1:0 -addr-file /tmp/trassd.addr
//
// With -addr-file the bound address (useful with port 0) is written to the
// named file once the listener is up — the handshake scripts/check.sh's
// serve e2e uses to find the ephemeral port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	trass "repro"
	"repro/internal/server"
	"repro/internal/vfs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "trassd:", err)
		os.Exit(1)
	}
}

func run() error {
	dbDir := flag.String("db", "", "store directory (required)")
	addr := flag.String("addr", ":7474", "listen address (host:port; port 0 picks one)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	measure := flag.String("measure", "frechet", "similarity measure: frechet | hausdorff | dtw")
	maxInFlight := flag.Int("max-inflight", 64, "concurrent query bound; excess requests get 429")
	defaultDeadline := flag.Duration("deadline", 30*time.Second, "per-request deadline when the client sets none")
	maxDeadline := flag.Duration("max-deadline", 2*time.Minute, "clamp on client-requested deadlines")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long SIGTERM drain waits for in-flight streams before cancelling them")
	flag.Parse()
	if *dbDir == "" {
		return fmt.Errorf("-db is required")
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

	db, err := trass.Open(*dbDir, trass.WithMeasure(m))
	if err != nil {
		return err
	}
	// The server owns db from here: Shutdown closes it exactly once, on
	// every path below.

	srv := server.New(db, server.Config{
		MaxInFlight:     *maxInFlight,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		Logf:            log.Printf,
	})
	// Shutdown is idempotent and closes the store exactly once, so deferring
	// it releases the server on every path — including the clean drain, where
	// the signal handler has already run it.
	defer func() { _ = srv.Shutdown(context.Background()) }()

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	if *addrFile != "" {
		if werr := writeAddrFile(*addrFile, lis.Addr().String()); werr != nil {
			_ = lis.Close()
			return werr
		}
	}

	// SIGINT/SIGTERM begins the drain: sigCtx cancels, AfterFunc launches
	// Shutdown with the drain grace, Serve returns ErrServerClosed once the
	// last in-flight stream has finished (or been cancelled at the grace
	// deadline) and the store is closed.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drainErr := make(chan error, 1)
	cancelDrain := context.AfterFunc(sigCtx, func() {
		graceCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		drainErr <- srv.Shutdown(graceCtx)
	})
	defer cancelDrain()

	err = srv.Serve(lis)
	if errors.Is(err, http.ErrServerClosed) {
		// Clean drain path: surface the shutdown's verdict instead.
		return <-drainErr
	}
	// Serve failed on its own (listener error); the deferred Shutdown still
	// closes the store.
	return err
}

// writeAddrFile publishes the bound address through the vfs seam (atomic
// enough for a single line: create, write, close).
func writeAddrFile(path, addr string) error {
	f, err := vfs.Default.Create(path)
	if err != nil {
		return fmt.Errorf("addr-file: %w", err)
	}
	if _, err := f.Write([]byte(addr + "\n")); err != nil {
		_ = f.Close()
		return fmt.Errorf("addr-file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("addr-file: %w", err)
	}
	return nil
}
