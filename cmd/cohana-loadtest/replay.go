package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cohana "repro"
	"repro/internal/cohort"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/storage"
)

// shadow is the benchmark's own copy of the serving stack, assembled from
// the layers' public functions the way internal/server's catalog and query
// handler assemble it, over a copy of the table directory. The traced replay
// steps each operation through it call by call, which is what lets a span be
// drawn around every layer without adding one to the engine.
type shadow struct {
	path    string
	live    *ingest.Table
	plans   *plan.Cache
	results *server.ResultCache
	pool    *cohort.Pool
	cache   *storage.ChunkCache
	eng     *cohana.Engine
	stepSamples
}

// stepSamples are the per-call timings the stepped replay collects beside
// its spans, the raw material of the per-layer time metrics.
type stepSamples struct {
	parseUs, prepareHitUs, prepareMissUs, fingerprintUs []float64
	executeMs, executeDeltaMs, deltaRows, pinHitUs      []float64
	mergeMs, commitMs                                   []float64
	rowsScanned                                         int64
	executeS                                            float64
}

func openShadow(tr *tracer, dir string, budget int64, compactRows int) (*shadow, float64, error) {
	s := &shadow{
		path:    filepath.Join(dir, tableName+".cohana"),
		plans:   plan.NewCache(0),
		results: server.NewResultCache(256),
		cache:   storage.NewChunkCache(budget),
	}
	var sharded *storage.Sharded
	var err error
	openMs := tr.in(0, 0, "storage.open", "storage", func() {
		sharded, err = storage.ReadShardedWith(s.path, storage.ReadOptions{Lazy: true, Cache: s.cache})
	})
	if err != nil {
		return nil, 0, fmt.Errorf("shadow: opening the table: %w", err)
	}
	tr.in(0, 0, "ingest.open", "ingest", func() {
		s.live, err = ingest.OpenSharded(sharded, ingest.Config{
			JournalPath:     filepath.Join(dir, tableName+".journal"),
			AutoCompactRows: compactRows,
			Persist: func(d storage.LayoutDelta) error {
				_, err := storage.CommitSharded(s.path, d.Layout)
				return err
			},
		})
	})
	if err != nil {
		return nil, 0, fmt.Errorf("shadow: opening the live table: %w", err)
	}
	s.pool = cohort.NewPool(0)
	s.eng = cohana.EngineForIngest(s.live, cohana.Options{Parallelism: -1, Pool: s.pool, PlanCache: s.plans})
	return s, openMs, nil
}

func (s *shadow) close() {
	_ = s.live.Close() // the shadow's files are deleted next; nothing to salvage from a failed close
	s.pool.Close()
}

// stepQuery walks one query through the layers in the order handleQuery
// does: normalize, parse, prepare, snapshot, fingerprint, result-cache lookup,
// and on a miss prune, pin and execute. Every call is a child span of parent.
func (s *shadow) stepQuery(ctx context.Context, tr *tracer, op, parent int, text string, served []byte) error {
	schema := s.live.Schema()
	var norm, fp string
	var err error
	tr.in(op, parent, "parser.normalize", "parser", func() { norm = parser.Normalize(text) })
	s.parseUs = append(s.parseUs, 1e3*tr.in(op, parent, "parser.parse", "parser", func() { _, err = parser.ParseCohort(text) }))
	if err != nil {
		return err
	}
	var p *plan.CachedPlan
	var planHit bool
	us := 1e3 * tr.in(op, parent, "plan.prepare", "plan", func() { p, planHit, err = s.plans.PrepareInfo(text, schema) })
	if err != nil {
		return err
	}
	if planHit {
		s.prepareHitUs = append(s.prepareHitUs, us)
	} else {
		s.prepareMissUs = append(s.prepareMissUs, us)
	}
	// Taking the snapshot is where a shard whose delta changed rebuilds its
	// sorted delta and union input, once per append.
	var snap *cohana.Snapshot
	tr.in(op, parent, "ingest.snapshot", "ingest", func() { snap = s.eng.Snapshot() })
	s.fingerprintUs = append(s.fingerprintUs, 1e3*tr.in(op, parent, "plan.fingerprint", "plan", func() { fp = snap.Fingerprint(text) }))
	var cached bool
	tr.in(op, parent, "server.result_cache_get", "server", func() { _, cached = s.results.Get(tableName, fp, norm) })
	if cached {
		return nil
	}

	views := s.live.Views()
	inputs := make([]plan.ShardInput, len(views))
	delta := 0
	for i, v := range views {
		inputs[i] = plan.ShardInput{Sealed: v.Sealed, Delta: v.Delta, Union: v.Union}
		if v.Delta != nil {
			delta += v.Delta.Len()
		}
	}
	type chunkRef struct {
		tbl *storage.Table
		idx int
	}
	var todo []chunkRef
	tr.in(op, parent, "plan.prune", "plan", func() {
		for _, v := range views {
			var skip []bool
			if skip, err = plan.PruneMap(p.Query, v.Sealed); err != nil {
				return
			}
			for i, sk := range skip {
				if !sk {
					todo = append(todo, chunkRef{v.Sealed, i})
				}
			}
		}
	})
	if err != nil {
		return err
	}

	// Pin every chunk the plan will scan, on as many goroutines as the
	// server has workers, and hold the pins across the execution: decode
	// cost lands in the storage span and the execute span is left with the
	// scan.
	releases := make([]func(), len(todo))
	pinUs := make([]float64, len(todo))
	var pinErr atomic.Pointer[error]
	missesBefore := s.cache.Stats().Misses
	tr.in(op, parent, "storage.pin_chunks", "storage", func() {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < s.pool.Workers(); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= len(todo) {
						return
					}
					start := time.Now()
					_, release, err := todo[k].tbl.PinChunk(todo[k].idx)
					pinUs[k] = float64(time.Since(start)) / 1e3
					if err != nil {
						pinErr.Store(&err)
						continue
					}
					releases[k] = release
				}
			}()
		}
		wg.Wait()
	})
	defer func() {
		for _, release := range releases {
			if release != nil {
				release()
			}
		}
	}()
	if e := pinErr.Load(); e != nil {
		return *e
	}
	if s.cache.Stats().Misses == missesBefore {
		s.pinHitUs = append(s.pinHitUs, pinUs...)
	}

	var stats cohort.ExecStats
	ms := tr.in(op, parent, "cohort.execute", "cohort", func() {
		_, err = plan.ExecuteCached(s.plans, p, inputs, plan.ExecOptions{Parallelism: -1, Pool: s.pool, Ctx: ctx, Stats: &stats})
	})
	if err != nil {
		return err
	}
	s.executeMs = append(s.executeMs, ms)
	s.rowsScanned += stats.RowsScanned.Load()
	s.executeS += ms / 1e3
	if delta > 0 {
		s.executeDeltaMs = append(s.executeDeltaMs, ms)
		s.deltaRows = append(s.deltaRows, float64(delta))
	}
	s.results.Put(tableName, fp, norm, served)
	return nil
}

func ingestRows(schema *cohana.Schema, rows []appendRow) ([]ingest.Row, error) {
	out := make([]ingest.Row, len(rows))
	for i, r := range rows {
		row, err := ingest.RowFromValues(schema, r.Player, r.Time, r.Action, r.Country, r.City, r.Role, r.Session, r.Gold)
		if err != nil {
			return nil, err
		}
		out[i] = row
	}
	return out, nil
}

// stepCompact is the maintenance step the server's compaction performs,
// taken apart: merge each shard's delta into its sealed tier, commit the new
// layout incrementally, then let the live table do the same through its own
// entry point (which finds the segments just written and reuses them).
func (s *shadow) stepCompact(ctx context.Context, tr *tracer, op, parent int) error {
	layout := s.live.SealedSharded()
	var err error
	for i, v := range s.live.Views() {
		if v.Delta == nil || v.Delta.Len() == 0 {
			continue
		}
		var merged *storage.Table
		s.mergeMs = append(s.mergeMs, tr.in(op, parent, "storage.merge_delta", "storage", func() {
			merged, _, _, err = storage.MergeDelta(v.Sealed, v.Delta, storage.Options{ChunkSize: s.live.ChunkSize()})
		}))
		if err != nil {
			return err
		}
		layout = layout.WithShard(i, merged)
	}
	s.commitMs = append(s.commitMs, tr.in(op, parent, "storage.commit_sharded", "storage", func() {
		_, err = storage.CommitSharded(s.path, layout)
	}))
	if err != nil {
		return err
	}
	tr.in(op, parent, "ingest.compact", "ingest", func() { err = s.live.CompactContext(ctx) })
	return err
}

// tracedReplay is the separate traced run: the next operations of the
// workload's seeded sequence, one client, about half of them traced.
// A traced operation is one round trip through a wrapping handler around the
// server under test, then the same operation stepped through the shadow
// stack; an untraced one is the bare round trip, so the two medians price
// the tracing. End-to-end metrics never come from here.
func (r *runner) tracedReplay(m metrics, out *outcome, budget int64) error {
	ctx := context.Background()
	tr := newTracer()
	base, stop, err := listen(tracedHandler{inner: r.t.srv, tr: tr})
	if err != nil {
		return err
	}
	defer stop()
	c := dial(base)
	defer c.close()

	shadowDir := r.job.DataDir + ".shadow"
	if err := copyDir(r.job.DataDir, shadowDir); err != nil {
		return err
	}
	defer os.RemoveAll(shadowDir)
	compactRows := 0
	if !r.readOnly {
		compactRows = r.job.CompactRows
	}
	sh, openMs, err := openShadow(tr, shadowDir, budget, compactRows)
	if err != nil {
		return err
	}
	defer sh.close()
	m.set("storage.open_ms", openMs)
	if len(r.seq) < cycleLen {
		// Fixed texts are result-cache hits on the server by now; bring the
		// shadow to the same state before recording.
		warm := newTracer()
		for _, o := range r.seq {
			if err := sh.stepQuery(ctx, warm, 0, 0, o.text, nil); err != nil {
				return err
			}
		}
		sh.stepSamples = stepSamples{}
	}

	// Which operations are traced is a seeded coin flip, not a fixed stride:
	// a stride would line up with the four-text cycle of the fixed-text
	// workloads and trace only some of the texts.
	coin := rand.New(rand.NewSource(r.job.Seed))
	tracedMs, untracedMs := map[string][]float64{}, map[string][]float64{}
	for k := 0; k < 2*r.job.TraceOps; k++ {
		traced := coin.Intn(2) == 0
		opID := k + 1
		// On ingest-mixed every third operation is an append.
		isAppend := !r.readOnly && k%3 == 2
		kind := "append"
		path, seqIdx := queryPath, 0
		var body []byte
		var rows []ingest.Row
		if isAppend {
			path = appendPath
			body, _ = r.batchBody(r.nextBatch)
			if rows, err = ingestRows(sh.live.Schema(), appendBatch(r.job.Seed, r.job.Sizing.Users, r.nextBatch)); err != nil {
				return err
			}
		} else {
			seqIdx = int(r.next.Add(1)-1) % len(r.seq)
			body, kind = r.seq[seqIdx].body, r.seq[seqIdx].template
		}
		var header map[string]string
		var root, rt int
		if traced {
			root = tr.begin(opID, 0, spanOp, "harness")
			rt = tr.begin(opID, root, spanRoundtrip, "client")
			header = map[string]string{opHeader: strconv.Itoa(opID), parentHeader: strconv.Itoa(rt)}
		}
		r.count()
		start := time.Now()
		status, resp, err := c.do("POST", path, body, header)
		ms := float64(time.Since(start)) / 1e6
		if traced {
			tr.end(rt)
			tracedMs[kind] = append(tracedMs[kind], ms)
		} else {
			untracedMs[kind] = append(untracedMs[kind], ms)
		}
		if isAppend {
			r.ackBatch(status, resp, err)
		} else {
			r.verifyQuery(seqIdx, status, resp, err)
		}
		// The shadow takes every append, traced or not, to stay in step with
		// the server's table.
		var st int
		if traced {
			st = tr.begin(opID, root, spanStepped, "harness")
		}
		switch {
		case isAppend && traced:
			tr.in(opID, st, "ingest.append", "ingest", func() { err = sh.live.Append(rows) })
		case isAppend:
			err = sh.live.Append(rows)
		case traced:
			err = sh.stepQuery(ctx, tr, opID, st, r.seq[seqIdx].text, resp)
		}
		if traced {
			tr.end(st)
			tr.end(root)
		}
		if err != nil {
			return fmt.Errorf("stepped replay of operation %d: %w", opID, err)
		}
	}

	if !r.readOnly {
		// One compaction as an upkeep operation: on the server through its
		// HTTP entry point, on the shadow taken apart.
		opID := 2*r.job.TraceOps + 1
		root := tr.begin(opID, 0, spanUpkeep, "harness")
		rt := tr.begin(opID, root, spanRoundtrip, "client")
		r.count()
		status, resp, err := c.do("POST", compactPath, nil, map[string]string{opHeader: strconv.Itoa(opID), parentHeader: strconv.Itoa(rt)})
		tr.end(rt)
		if err != nil || status != http.StatusOK {
			r.fail("traced compaction: status %d: %v: %s", status, err, resp)
		}
		st := tr.begin(opID, root, spanStepped, "harness")
		err = sh.stepCompact(ctx, tr, opID, st)
		tr.end(st)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("stepped compaction: %w", err)
		}
	}
	if r.job.Workload == "adhoc-scan" {
		m.set("obs.metrics_overhead_pct", r.metricsOverhead(c))
	}
	m.set("client.trace_overhead_pct", overheadPct(tracedMs, untracedMs))
	replayMetrics(m, out, tr.spans, sh.stepSamples)
	return tr.write(r.job.TracePath)
}

// replayMetrics turns the replay's spans and per-call samples into the
// per-layer time metrics and the share table.
func replayMetrics(m metrics, out *outcome, spans []span, sh stepSamples) {
	m.set("parser.parse_us", median(sh.parseUs))
	m.set("plan.prepare_hit_us", median(sh.prepareHitUs))
	m.set("plan.prepare_miss_us", median(sh.prepareMissUs))
	m.set("plan.fingerprint_us", median(sh.fingerprintUs))
	m.set("cohort.execute_ms", median(sh.executeMs))
	m.set("cohort.scan_rows_per_s", ratio(float64(sh.rowsScanned), sh.executeS))
	m.set("cohort.execute_delta_ms", median(sh.executeDeltaMs))
	m.set("cohort.delta_rows_at_query", median(sh.deltaRows))
	m.set("storage.pin_hit_us", median(sh.pinHitUs))
	m.set("storage.merge_delta_ms", median(sh.mergeMs))
	m.set("storage.commit_delta_ms", median(sh.commitMs))

	// Per-operation server numbers: the handler span, the round trip around
	// it, and the stepped calls that explain it.
	roundtrip, handler, stepped := map[int]float64{}, map[int]float64{}, map[int]float64{}
	steppedID := map[int]bool{}
	for _, s := range spans {
		if s.Name == spanStepped {
			steppedID[s.ID] = true
		}
	}
	skip := offPath(spans)
	for _, s := range spans {
		switch {
		case skip[s.Op]:
		case s.Name == spanRoundtrip:
			roundtrip[s.Op] = s.ms()
		case s.Name == spanHandler:
			handler[s.Op] = s.ms()
		case steppedID[s.Parent]:
			stepped[s.Op] += s.ms()
		}
	}
	var handlerMs, overheadMs, selfMs []float64
	for op, h := range handler {
		handlerMs = append(handlerMs, h)
		overheadMs = append(overheadMs, roundtrip[op]-h)
		selfMs = append(selfMs, h-stepped[op])
	}
	m.set("server.handler_ms", median(handlerMs))
	m.set("server.http_overhead_ms", median(overheadMs))
	m.set("server.self_ms", median(selfMs))
	out.Samples["server.handler_ms"] = len(handlerMs)

	out.Shares, _ = shares(spans)
	for _, row := range out.Shares {
		if row.Layer == "unaccounted" {
			m.set("trace.unaccounted_pct", 100*row.Share)
		}
	}
}

// overheadPct is how much slower the with round trips are than the without
// ones, in percent of the without median. The two sides are compared kind by
// kind (query template, append) and the kinds averaged, so an uneven draw of
// cheap and dear operations does not pass for overhead.
func overheadPct(with, without map[string][]float64) float64 {
	var sum float64
	n := 0
	for kind, base := range without {
		if len(with[kind]) == 0 || len(base) == 0 {
			continue
		}
		sum += 100 * ratio(median(with[kind])-median(base), median(base))
		n++
	}
	return ratio(sum, float64(n))
}

// metricsOverhead prices the obs registry on the ad-hoc path: untraced round
// trips with the registry on or off by coin flip.
func (r *runner) metricsOverhead(c *conn) float64 {
	defer obs.SetEnabled(true)
	coin := rand.New(rand.NewSource(r.job.Seed + 1))
	on, off := map[string][]float64{}, map[string][]float64{}
	for k := 0; k < r.job.TraceOps; k++ {
		enabled := coin.Intn(2) == 0
		obs.SetEnabled(enabled)
		i := int(r.next.Add(1)-1) % len(r.seq)
		ms, _ := r.query(c, i)
		kind := r.seq[i].template
		if enabled {
			on[kind] = append(on[kind], ms)
		} else {
			off[kind] = append(off[kind], ms)
		}
	}
	return overheadPct(on, off)
}
