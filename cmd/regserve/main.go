// Command regserve runs the registration job server: an HTTP/JSON daemon
// that accepts registration jobs, executes them through the distributed
// solver on a bounded worker pool, and streams per-iteration progress.
//
//	regserve -addr :8080 -workers 4 -queue 16 -timeout 10m
//
// Each job runs as one distributed solve on one worker. -pprof ADDR
// serves net/http/pprof on a separate listener.
//
// Durability (see README, "Durability"): -journal DIR enables the
// write-ahead job journal — kill the process, restart it with the same
// -journal, and every accepted-but-unfinished job re-runs. -spool DIR
// checkpoints every job whose solve flavor supports it after each outer
// iteration, so a re-run resumes where the killed process stopped. A
// failed job stays failed: nothing is retried. -retain caps the terminal
// jobs kept queryable.
//
// Submit a job and watch it:
//
//	curl -s localhost:8080/jobs -d '{"generator":"synthetic","n":[32,32,32],"tasks":4}'
//	curl -s localhost:8080/jobs/job-000001/events
//	curl -s localhost:8080/jobs/job-000001
//
// See README.md ("Registration as a service") for the API reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux; exposed only via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"diffreg/internal/par"
	"diffreg/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent solver slots")
	queue := flag.Int("queue", 16, "queued-job admission cap (beyond it: HTTP 429)")
	timeout := flag.Duration("timeout", 0, "default per-job cooperative timeout (0 = none)")
	pool := flag.Int("pool", 0, "shared-memory worker pool size (0 = GOMAXPROCS)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	journal := flag.String("journal", "", "write-ahead job journal directory (empty disables; restart with the same directory to recover)")
	spool := flag.String("spool", "", "checkpoint spool directory: a job re-run after a restart resumes from its last checkpoint (empty disables)")
	retain := flag.Int("retain", 0, "terminal jobs kept queryable (0 = default 1024, negative = unlimited)")
	quiet := flag.Bool("q", false, "suppress per-job log lines")
	flag.Parse()

	if *pool > 0 {
		par.SetWorkers(*pool)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv, err := serve.Open(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		JournalDir:     *journal,
		SpoolDir:       *spool,
		Retain:         *retain,
		Logf:           logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "regserve: %v\n", err)
		os.Exit(1)
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	if *pprofAddr != "" {
		// Opt-in profiling on its own listener so the job API never
		// exposes pprof. The blank net/http/pprof import registers its
		// handlers on http.DefaultServeMux.
		go func() {
			log.Printf("regserve: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("regserve: pprof listener: %v", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("regserve: %v: draining (in-flight jobs stop at the next iteration boundary)", s)
		// Close the job server FIRST: it finishes every job and wakes idle
		// event-stream watchers, so the HTTP drain below completes as soon
		// as in-flight solves reach an iteration boundary instead of
		// idling out the full deadline on open streams.
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()

	log.Printf("regserve: listening on %s (%d workers, queue %d, pool %d)", *addr, *workers, *queue, par.Workers())
	err = hs.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "regserve: %v\n", err)
		os.Exit(1)
	}
	srv.Close()
}
