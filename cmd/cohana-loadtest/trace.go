package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the layer's public entry point. Spans of one operation share Op;
// Parent is the ID of the span that caused this one (0 for an operation's
// root). Times are nanoseconds since the trace began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; they are written out once, when the
// workload ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name, layer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// in times fn as a span and returns the span's duration in milliseconds.
func (t *tracer) in(op, parent int, name, layer string, fn func()) float64 {
	id := t.begin(op, parent, name, layer)
	fn()
	t.end(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].ms()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	body, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// Request headers that tell tracedHandler which operation and parent span a
// request belongs to. A request without them passes through unrecorded,
// which is how the replay interleaves untraced operations to price the
// tracing itself.
const (
	opHeader     = "X-Loadtest-Op"
	parentHeader = "X-Loadtest-Parent"
)

// tracedHandler wraps the server under test: one span around ServeHTTP.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	op, err := strconv.Atoi(r.Header.Get(opHeader))
	if err != nil {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(parentHeader))
	id := h.tr.begin(op, parent, "server.handler", "server")
	h.inner.ServeHTTP(w, r)
	h.tr.end(id)
}

// Span names with a fixed role in the share table.
const (
	spanOp        = "op"               // root: one replayed request
	spanUpkeep    = "upkeep"           // root: an operation off the request path
	spanRoundtrip = "client.roundtrip" // the HTTP request, client side
	spanHandler   = "server.handler"   // Server.ServeHTTP, server side
	spanStepped   = "stepped"          // the same operation as direct layer calls
)

// shareRow is one line of the per-layer share table.
type shareRow struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share"`
}

// shares attributes the traced wall time — the sum of the client round trips
// of request operations — to layers. The round trip's self time (round trip
// minus handler) is the client/HTTP row. The handler is the real server and
// opaque to the benchmark, so its time is split by the stepped replay of the
// same operation: each direct layer call contributes its self time to its
// layer, and what the direct calls do not explain is the unaccounted row
// (request decode, catalog lookup, response encode, access log, and any
// difference between the served and the stepped execution). The rows sum to
// the wall time by construction. Upkeep operations (the shadow's open, the
// final compaction) are not on a request's path and are left out.
func shares(spans []span) (rows []shareRow, wallMs float64) {
	children := map[int]float64{}
	byID := map[int]span{}
	skip := offPath(spans)
	for _, s := range spans {
		byID[s.ID] = s
		children[s.Parent] += s.ms()
	}
	byLayer := map[string]float64{}
	var handler, stepped float64
	for _, s := range spans {
		if skip[s.Op] {
			continue
		}
		self := s.ms() - children[s.ID]
		switch {
		case s.Name == spanRoundtrip:
			wallMs += s.ms()
			byLayer["client"] += self
		case s.Name == spanHandler:
			handler += s.ms()
		case s.Parent != 0 && byID[s.Parent].Name == spanStepped:
			stepped += s.ms()
			byLayer[s.Layer] += self
		case s.Name != spanOp && s.Name != spanStepped:
			byLayer[s.Layer] += self
		}
	}
	byLayer["unaccounted"] = handler - stepped
	for layer, ms := range byLayer {
		rows = append(rows, shareRow{Layer: layer, Ms: ms, Share: ratio(ms, wallMs)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Layer < rows[j].Layer })
	return rows, wallMs
}

// offPath is the set of operations whose spans are not part of a request:
// operation 0 (the shadow's open) and any rooted at an upkeep span.
func offPath(spans []span) map[int]bool {
	skip := map[int]bool{0: true}
	for _, s := range spans {
		if s.Name == spanUpkeep {
			skip[s.Op] = true
		}
	}
	return skip
}
