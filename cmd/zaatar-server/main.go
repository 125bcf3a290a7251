// Command zaatar-server runs a long-lived multi-tenant prover service that
// accepts verifier sessions over TCP: each session receives a computation
// and batches of inputs, executes them, and produces the
// verified-computation argument. Compiled programs are cached across
// sessions (-cache) and, with -store, persisted to disk as content-addressed
// bundles that survive restarts; concurrent sessions share the kernel pool
// under a bounded admission semaphore (-maxsessions), and the one wire
// dialect (v3) lets one connection carry many batches and a returning client
// name its program by hash instead of re-uploading the source.
//
// The server installs a per-message I/O deadline on every connection
// (-timeout), drains in-flight sessions on SIGINT/SIGTERM before exiting,
// and can expose its metrics registry over HTTP (-metrics): /metrics is the
// Prometheus text exposition format (including the per-tenant labeled
// series), /healthz liveness, and -pprof additionally mounts net/http/pprof
// under /debug/pprof/ on the same address. The server logs to stderr in
// -log-format (text by default, or json): one structured record per
// session negotiation/batch/close or failure, carrying the session id,
// backend, program hash, and trace correlation ids, plus refused
// connections and artifact-store errors.
//
// Usage:
//
//	zaatar-server -listen :7001 -workers 8 -maxsessions 16 -timeout 2m -metrics :7002 -pprof
//	zaatar-server -listen :7001 -log-format json -metrics :7002
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"zaatar"
	"zaatar/internal/obs"
)

func main() {
	var (
		listen      = flag.String("listen", ":7001", "address to listen on")
		workers     = flag.Int("workers", runtime.NumCPU(), "service-wide prover worker pool, shared by admitted sessions")
		maxSessions = flag.Int("maxsessions", 16, "how many sessions may compute concurrently")
		maxBatch    = flag.Int("maxbatch", 4096, "maximum batch size per session")
		maxConns    = flag.Int("maxconns", 0, "open connections kept at once, idle included (0 = 16*maxsessions, <0 unlimited)")
		cacheSize   = flag.Int("cache", 32, "compiled programs kept in the cross-session LRU")
		storeDir    = flag.String("store", "", "directory for the persistent artifact store: compiled programs survive restarts as content-addressed bundles (empty disables)")
		maxSource   = flag.Int("maxsource", 0, "largest program source accepted, in bytes (0 = 1 MiB)")
		backends    = flag.String("backends", "", "comma-separated proof backends to serve (empty = all compiled in)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-message read/write deadline (0 disables)")
		idleTimeout = flag.Duration("idletimeout", 0, "reap keep-alive connections idle this long between batches (0 = 2m, <0 disables)")
		metrics     = flag.String("metrics", "", "address for the HTTP metrics endpoint (empty disables)")
		pprofOn     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ on the -metrics address")
		logFormat   = flag.String("log-format", "text", "structured logs to stderr (sessions, refused connections, store errors): text or json (empty disables)")
		drain       = flag.Duration("drain", 30*time.Second, "how long to wait for in-flight sessions on shutdown")
		workerMode  = flag.Bool("worker", false, "run as a prover-farm worker: identical service, plus the farm.worker.up gauge for farm monitoring (see zaatar-client -connect)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file (covers the whole server lifetime)")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on shutdown")
	)
	flag.Parse()

	if *cpuProf != "" {
		pf, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatalf("zaatar-server: %v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatalf("zaatar-server: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			pf, err := os.Create(*memProf)
			if err != nil {
				log.Printf("zaatar-server: heap profile: %v", err)
				return
			}
			defer pf.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(pf); err != nil {
				log.Printf("zaatar-server: heap profile: %v", err)
			}
		}()
	}

	reg := obs.Default()
	if *pprofOn && *metrics == "" {
		log.Fatalf("zaatar-server: -pprof needs -metrics to name the HTTP address")
	}
	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/healthz", obs.HealthHandler())
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", httppprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		}
		msrv := &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("zaatar-server: metrics endpoint: %v", err)
			}
		}()
		log.Printf("zaatar-server: Prometheus metrics on http://%s/metrics", *metrics)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("zaatar-server: %v", err)
	}
	fmt.Printf("zaatar-server: proving on %s (%d workers, %d sessions, cache %d)\n",
		ln.Addr(), *workers, *maxSessions, *cacheSize)

	// SIGINT/SIGTERM: stop accepting, cancel the session context after the
	// drain window; Serve returns once every in-flight session has drained.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("zaatar-server: %v: draining sessions (up to %v)", sig, *drain)
		ln.Close()
		time.AfterFunc(*drain, cancel)
	}()

	srvOpts := []zaatar.ServerOption{
		zaatar.WithServerWorkers(*workers),
		zaatar.WithMaxSessions(*maxSessions),
		zaatar.WithMaxBatch(*maxBatch),
		zaatar.WithMaxConns(*maxConns),
		zaatar.WithProgramCacheSize(*cacheSize),
		zaatar.WithServerIOTimeout(*timeout),
		zaatar.WithIdleTimeout(*idleTimeout),
		zaatar.WithServerMetrics(reg),
	}
	if *logFormat != "" {
		srvOpts = append(srvOpts, zaatar.WithServerLogger(obs.NewLogger(os.Stderr, *logFormat)))
	}
	if *storeDir != "" {
		srvOpts = append(srvOpts, zaatar.WithStore(*storeDir))
		log.Printf("zaatar-server: artifact store at %s", *storeDir)
	}
	if *maxSource != 0 {
		srvOpts = append(srvOpts, zaatar.WithMaxSourceBytes(*maxSource))
	}
	if *backends != "" {
		var names []string
		for _, n := range strings.Split(*backends, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		srvOpts = append(srvOpts, zaatar.WithServerBackends(names...))
	}
	serve := zaatar.Serve
	if *workerMode {
		serve = zaatar.ServeWorker
		log.Printf("zaatar-server: farm worker mode")
	}
	if err := serve(ctx, ln, srvOpts...); err != nil {
		log.Fatalf("zaatar-server: %v", err)
	}
	log.Printf("zaatar-server: drained, exiting")
}
