package cohana

import (
	"context"
	"errors"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/plan"
)

// TraceSpan is one timed phase of a traced query execution. Spans form a
// tree — query → prepare / a span per shard of the one chunk schedule (with
// per-chunk detail and delta union) / merge — and carry measured
// rows/bytes/ns as numeric attributes.
// The JSON encoding of a TraceSpan is what a `"trace": true` query request
// returns; Render() is the text form EXPLAIN ANALYZE embeds.
type TraceSpan = obs.Span

// Stmt is a prepared statement: one query text carried through the full
// front end — parse, validate, optimize, and (lazily, per shard) compile —
// exactly once, with each Run paying only binding lookups plus the scan.
// Preparation goes through the engine's plan cache, so preparing the same
// text twice shares one compiled plan.
//
// A Stmt is safe for concurrent use and is not tied to one state of the
// table: each Run executes against the snapshot it is handed, so a prepared
// statement observes appends and compactions exactly as an ad-hoc query
// does; a compaction merely re-binds the changed shard's compiled form.
type Stmt struct {
	live *ingest.Table
	p    *plan.CachedPlan
	// prepareNs and planHit record how Prepare obtained the plan; a traced
	// Run reports them as its "prepare" phase.
	prepareNs int64
	planHit   bool
}

// Prepare compiles src into a reusable statement. src is a cohort query, a
// WITH-prefixed mixed query, or either one prefixed with EXPLAIN or EXPLAIN
// ANALYZE. All static errors (syntax, unknown columns, SELECT list
// attributes outside COHORT BY) surface here, not at Run.
func (e *Engine) Prepare(src string) (*Stmt, error) {
	start := time.Now()
	p, hit, err := e.planCache.PrepareInfo(src, e.live.Schema())
	if err != nil {
		return nil, err
	}
	prepareNs := time.Since(start).Nanoseconds()
	if err := validateSelectList(p.Stmt.Inner()); err != nil {
		return nil, err
	}
	return &Stmt{live: e.live, p: p, prepareNs: prepareNs, planHit: hit}, nil
}

// RunOpts configures one Run.
type RunOpts struct {
	// Trace records the execution's span tree in Output.Trace.
	Trace bool
}

// Output is what one Run produced. Exactly one of Cohort, Mixed and Explain
// is set, by the statement's form: a cohort query, a mixed query, or an
// EXPLAIN / EXPLAIN ANALYZE statement.
type Output struct {
	Cohort  *Result
	Mixed   *MixedResult
	Explain string
	// Trace is the root span of the execution when RunOpts.Trace was set
	// and the statement executed; a plain EXPLAIN executes nothing.
	Trace *TraceSpan
}

// Run executes the statement against snap, a snapshot of the table the
// statement was prepared on. A mixed query runs its cohort sub-query first,
// then the outer SQL over the resulting buckets (the paper's "cohort query
// first" rule), so the outer query never sees birth activity tuples. A plain
// EXPLAIN reports, without scanning, the optimized plan (Figure 5 shape,
// birth selection pushed below age selection per Equation 1) and which
// chunks the snapshot lets the executor prune (Section 4.2); EXPLAIN ANALYZE
// also runs the query traced and appends the measured span tree. When ctx is
// done the shard and chunk fan-outs stop early and ctx's error is returned.
func (s *Stmt) Run(ctx context.Context, snap *Snapshot, opts RunOpts) (*Output, error) {
	if snap.eng.live != s.live {
		return nil, errors.New("cohana: statement run on a snapshot of another table")
	}
	st := s.p.Stmt
	var static string
	if st.Explain {
		text, err := snap.explain(st)
		if err != nil {
			return nil, err
		}
		if !st.Analyze {
			return &Output{Explain: text}, nil
		}
		static = text
	}
	var root *TraceSpan
	if opts.Trace || st.Analyze {
		root = obs.NewSpan("query")
		sp := root.Child("prepare")
		sp.DurNs = s.prepareNs
		if s.planHit {
			sp.SetNote("plan_cache", "hit")
		} else {
			sp.SetNote("plan_cache", "miss")
		}
	}
	res, err := plan.ExecuteCached(snap.eng.planCache, s.p, snap.shardInputs(), snap.execOptions(ctx, root))
	if err != nil {
		return nil, err
	}
	out := &Output{Cohort: res}
	if st.Mixed != nil {
		sp := root.Child("outer sql")
		m, err := runOuter(st.Mixed, res)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp.SetInt("result_rows", int64(len(m.Rows)))
		out = &Output{Mixed: m}
	}
	root.End()
	if st.Analyze {
		out = &Output{Explain: static + "Execution (EXPLAIN ANALYZE, measured):\n" + indent(root.Render())}
	}
	if opts.Trace {
		out.Trace = root
	}
	return out, nil
}

// Query prepares src and runs it on a fresh snapshot.
func (e *Engine) Query(ctx context.Context, src string) (*Output, error) {
	stmt, err := e.Prepare(src)
	if err != nil {
		return nil, err
	}
	return stmt.Run(ctx, e.Snapshot(), RunOpts{})
}

// PlanCacheStats snapshots the effectiveness counters of the engine's
// compiled-plan cache.
func (e *Engine) PlanCacheStats() PlanCacheStats { return e.planCache.Stats() }
