package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/storage"
)

// TestServeEndToEnd drives the exact stack the binary runs — newHTTPServer
// on a real TCP listener — with concurrent queries and a graceful shutdown.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	tbl := gen.Generate(gen.Config{Users: 80, Days: 12, MeanActions: 12, Seed: 3})
	st, err := storage.Build(tbl, storage.Options{ChunkSize: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFile(filepath.Join(dir, "game.cohana")); err != nil {
		t.Fatal(err)
	}

	// -shards 4 against a legacy single-file table exercises the load-time
	// migration: the file is resharded to 4 and persisted as a manifest.
	httpSrv, srv, err := newHTTPServer("127.0.0.1:0", server.Config{DataDir: dir, Workers: 4, CacheSize: 32, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", httpSrv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// Liveness.
	hr, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", hr.StatusCode)
	}

	// The acceptance scenario: >= 8 concurrent POST /query requests.
	query := `SELECT country, COHORTSIZE, AGE, UserCount() FROM GameActions
		BIRTH FROM action = "launch" COHORT BY country`
	reqBody, err := json.Marshal(map[string]string{"table": "game", "query": query})
	if err != nil {
		t.Fatal(err)
	}
	const concurrent = 10
	bodies := make([]string, concurrent)
	cacheStatus := make([]string, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(reqBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				data, _ := io.ReadAll(resp.Body)
				t.Errorf("request %d: status %d body %s", i, resp.StatusCode, data)
				return
			}
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i] = string(data)
			cacheStatus[i] = resp.Header.Get("X-Cohana-Cache")
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i := 1; i < concurrent; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d disagrees with request 0", i)
		}
	}

	// A repeat of the identical query is served from the result cache.
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Cohana-Cache"); got != "hit" {
		t.Fatalf("repeat query cache status %q, want hit", got)
	}

	// The stats endpoint accounts for the traffic.
	sr, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Queries uint64 `json:"queries"`
		Cache   struct {
			Hits uint64 `json:"hits"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.Queries < concurrent+1 || stats.Cache.Hits < 1 {
		t.Fatalf("stats = %+v, want >= %d queries and >= 1 cache hit", stats, concurrent+1)
	}

	// Graceful shutdown, then release the pool.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	srv.Close()
}

func TestRunRejectsBadDataDir(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := run("127.0.0.1:0", "", server.Config{DataDir: filepath.Join(t.TempDir(), "missing"), Workers: 1, CacheSize: 1}, logger); err == nil {
		t.Fatal("run accepted a missing data directory")
	}
	// A file is not a directory.
	f := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("127.0.0.1:0", "", server.Config{DataDir: f, Workers: 1, CacheSize: 1}, logger); err == nil {
		t.Fatal("run accepted a file as data directory")
	}
}

func TestNewLogger(t *testing.T) {
	for _, tc := range []struct {
		format, level string
		ok            bool
	}{
		{"text", "info", true},
		{"json", "debug", true},
		{"text", "WARN", true}, // slog level names are case-insensitive
		{"xml", "info", false},
		{"text", "loud", false},
	} {
		_, err := newLogger(os.Stderr, tc.format, tc.level)
		if (err == nil) != tc.ok {
			t.Errorf("newLogger(%q, %q) error = %v, want ok=%v", tc.format, tc.level, err, tc.ok)
		}
	}
}
