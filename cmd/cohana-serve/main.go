// Command cohana-serve runs the COHANA HTTP query-and-ingest server over a
// directory of compressed .cohana tables (produced by `cohana ingest`).
//
// Usage:
//
//	cohana-serve -addr :8080 -data ./tables [-workers 8] [-cache 256] [-compact-rows 262144]
//	             [-log-format text|json] [-log-level info] [-pprof-addr 127.0.0.1:6060]
//
// Endpoints:
//
//	POST /v1/query                 {"table": "game", "query": "SELECT ..."}
//	GET  /v1/tables                list tables in the data directory
//	GET  /v1/tables/{name}         one table's stats (loads it on first use)
//	POST /v1/tables/{name}/append  {"rows": [{col: val, ...}, ...]}
//	POST /v1/tables/{name}/compact seal the live delta into compressed chunks
//	POST /v1/tables/{name}/reload  re-read the file, invalidate cached results
//	GET  /v1/stats                 cache, serving and ingestion counters
//	GET  /v1/metrics               Prometheus text exposition of engine metrics
//	GET  /v1/healthz               liveness
//
// Tables load lazily on first use; the sealed compressed tier is shared,
// immutable, across all requests, while appended rows live in a per-table
// delta store journaled to <name>.journal next to the table file — one
// journal per table, one fsync per batch at any shard count, replayed on
// load so a restart loses nothing, and a crash mid-batch can never admit a
// batch on some of its shards. Queries union both tiers
// and are always fresh. The delta is sealed by a background compactor once
// it holds -compact-rows rows, or on demand via the compact endpoint —
// chunk-granularly: only the chunks owning delta users are re-encoded, and
// the manifest commit writes only those chunks' new segment files, so the
// bytes persisted per compaction track the touched chunks, not the table
// (the /v1/stats chunksRebuilt/chunksReused/persistBytes counters make this
// observable). Each query fans out over sealed chunks on a worker pool
// bounded by -workers, and identical (table, query) pairs are answered from
// an LRU result cache (the X-Cohana-Cache response header says hit, miss or bypass)
// keyed on the table's generation — any append or compaction moves the key
// on — and invalidated wholesale on reload.
//
// Observability: every request gets an X-Request-ID (honored when the client
// sends one) and a structured access log line (-log-format selects text or
// JSON, -log-level the floor). GET /v1/metrics serves the engine's Prometheus
// metrics. -pprof-addr starts net/http/pprof on a *separate* listener —
// off by default, so profiling endpoints are never exposed on the serving
// address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", ".", "directory of .cohana table files")
	workers := flag.Int("workers", 0, "chunk-scan worker pool size (0 = GOMAXPROCS)")
	cache := flag.Int("cache", 256, "result cache capacity in entries (0 disables)")
	compactRows := flag.Int("compact-rows", 0, "per-shard delta rows triggering background compaction (0 = default 256K, negative disables)")
	shards := flag.Int("shards", 0, "user-hash shards per table; tables stored with a different count are resharded at load (0 = keep stored count)")
	planCache := flag.Int("plan-cache", 0, "per-table compiled-plan cache capacity in plans (0 = default 256, negative disables)")
	chunkCacheBytes := flag.Int64("chunk-cache-bytes", 0, "memory budget for decoded chunk payloads across lazily loaded tables (0 = unbounded)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (empty disables; use 127.0.0.1:6060 to keep it local)")
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cohana-serve:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	cfg := server.Config{
		DataDir: *data, Workers: *workers, CacheSize: *cache, CompactRows: *compactRows,
		Shards: *shards, PlanCacheSize: *planCache, ChunkCacheBytes: *chunkCacheBytes,
		Logger: logger,
	}
	if err := run(*addr, *pprofAddr, cfg, logger); err != nil {
		logger.Error("exiting", "error", err.Error())
		os.Exit(1)
	}
}

// newLogger builds the process logger from the -log-format and -log-level
// flags.
func newLogger(w *os.File, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want text or json)", format)
	}
}

// newHTTPServer assembles the serving stack the binary runs: the query
// server wrapped in an http.Server. Tests drive the same stack against a
// local listener.
func newHTTPServer(addr string, cfg server.Config) (*http.Server, *server.Server, error) {
	fi, err := os.Stat(cfg.DataDir)
	if err != nil {
		return nil, nil, fmt.Errorf("data directory: %w", err)
	}
	if !fi.IsDir() {
		return nil, nil, fmt.Errorf("data path %q is not a directory", cfg.DataDir)
	}
	srv := server.New(cfg)
	return &http.Server{
		Addr:              addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}, srv, nil
}

// newPprofServer builds the profiling listener: net/http/pprof on its own
// mux and its own address, so the profiling surface is never mounted on the
// serving address and stays off unless -pprof-addr is set.
func newPprofServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
}

func run(addr, pprofAddr string, cfg server.Config, logger *slog.Logger) error {
	httpSrv, srv, err := newHTTPServer(addr, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("cohana-serve listening",
		"addr", addr, "data", cfg.DataDir, "workers", cfg.Workers,
		"cache", cfg.CacheSize, "plan_cache", cfg.PlanCacheSize,
		"compact_rows", cfg.CompactRows, "shards", cfg.Shards,
		"chunk_cache_bytes", cfg.ChunkCacheBytes)

	var pprofSrv *http.Server
	if pprofAddr != "" {
		pprofSrv = newPprofServer(pprofAddr)
		go func() {
			logger.Info("pprof listening", "addr", pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err.Error())
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		logger.Info("shutting down", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if pprofSrv != nil {
			_ = pprofSrv.Shutdown(ctx)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}
