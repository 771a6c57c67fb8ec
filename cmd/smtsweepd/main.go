// Command smtsweepd serves sweeps: an HTTP API over a content-addressed
// on-disk cell store with a pool of simulator workers behind it. Cells
// already in the store are cache hits; novel cells simulate exactly
// once each. One smtsweepd process owns a -store directory at a time:
// the store is indexed in memory at startup, and a second process over
// the same directory would duplicate work rather than share it.
//
// Usage:
//
//	smtsweepd -addr :8344 -store ./cellstore
//	smtsweep  -server http://localhost:8344 -fig fig3
//
// SIGINT/SIGTERM shut down gracefully: workers stop at the next cell
// boundary and the pending queue is checkpointed into the store
// directory, so a restart resumes where it left off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"smtsim/internal/cellstore"
	"smtsim/internal/sweepd"
)

func main() {
	var (
		addr     = flag.String("addr", ":8344", "listen address")
		storeDir = flag.String("store", "cellstore", "cell store directory (created if absent)")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		quiet    = flag.Bool("q", false, "suppress per-event logging")
	)
	flag.Parse()
	switch {
	case *workers < 0:
		usage("-workers must be non-negative, got %d", *workers)
	case flag.NArg() > 0:
		usage("unexpected arguments: %v", flag.Args())
	}

	store, err := cellstore.Open(*storeDir)
	if err != nil {
		log.Fatalf("smtsweepd: %v", err)
	}
	cfg := sweepd.Config{Store: store, Workers: *workers}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv, err := sweepd.New(cfg)
	if err != nil {
		log.Fatalf("smtsweepd: %v", err)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	//smt:fire-and-forget(process-lifetime listener; hs.Shutdown below unblocks it and main exits)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("smtsweepd: serving on %s, store %s (%d cells)", *addr, *storeDir, store.Len())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("smtsweepd: %v: draining workers and checkpointing queue", sig)
	case err := <-errc:
		log.Fatalf("smtsweepd: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("smtsweepd: http shutdown: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		log.Fatalf("smtsweepd: %v", err)
	}
}

func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smtsweepd: %s\n", fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}
