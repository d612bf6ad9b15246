package cohana

import (
	"context"
	"fmt"

	"repro/internal/plan"
)

// Stmt is a prepared statement: one query text carried through the full
// front end — parse, validate, optimize, and (lazily, per shard) compile —
// exactly once, with executions paying only binding lookups plus the scan.
// Preparation goes through the engine's plan cache, so preparing the same
// text twice (or executing unprepared text that was prepared before)
// shares one compiled plan.
//
// A Stmt is safe for concurrent use. Each execution runs against a fresh
// engine snapshot, so prepared statements observe appends and compactions
// exactly as ad-hoc queries do; a compaction merely re-binds the changed
// shard's compiled form on the next execution.
type Stmt struct {
	eng *Engine
	src string
	p   *plan.CachedPlan
}

// Prepare compiles src — a cohort query or a WITH-prefixed mixed query —
// into a reusable statement. All static errors (syntax, unknown columns,
// SELECT list attributes outside COHORT BY) surface here, not at execution.
func (e *Engine) Prepare(src string) (*Stmt, error) {
	p, err := e.planCache.Prepare(src, e.live.Schema())
	if err != nil {
		return nil, err
	}
	cs := p.Stmt.Cohort
	if p.Stmt.Mixed != nil {
		cs = p.Stmt.Mixed.Inner
	}
	if err := validateSelectList(cs); err != nil {
		return nil, err
	}
	return &Stmt{eng: e, src: src, p: p}, nil
}

// IsMixed reports whether the statement is a mixed (WITH-prefixed) query,
// answered by ExecuteMixed rather than Execute.
func (s *Stmt) IsMixed() bool { return s.p.Stmt.Mixed != nil }

// Execute runs the prepared cohort query against the engine's current state.
func (s *Stmt) Execute() (*Result, error) {
	return s.ExecuteContext(context.Background())
}

// ExecuteContext is Execute with cancellation: when ctx is done the shard
// and chunk fan-outs stop early and ctx's error is returned.
func (s *Stmt) ExecuteContext(ctx context.Context) (*Result, error) {
	if s.IsMixed() {
		return nil, fmt.Errorf("cohana: mixed statement passed to Execute; use ExecuteMixed")
	}
	return s.eng.Snapshot().executePlan(ctx, s.p)
}

// ExecuteMixed runs the prepared mixed query: the inner cohort query on the
// engine, then the outer SQL over its buckets.
func (s *Stmt) ExecuteMixed() (*MixedResult, error) {
	return s.ExecuteMixedContext(context.Background())
}

// ExecuteMixedContext is ExecuteMixed with cancellation.
func (s *Stmt) ExecuteMixedContext(ctx context.Context) (*MixedResult, error) {
	if !s.IsMixed() {
		return nil, fmt.Errorf("cohana: plain cohort statement passed to ExecuteMixed; use Execute")
	}
	inner, err := s.eng.Snapshot().executePlan(ctx, s.p)
	if err != nil {
		return nil, err
	}
	return runOuter(s.p.Stmt.Mixed, inner)
}

// Explain reports the statement's optimized plan and pruning outcome
// against the engine's current state, without executing it.
func (s *Stmt) Explain() (string, error) {
	return s.eng.Explain(s.src)
}

// ExplainAnalyze executes the statement with tracing and reports the
// optimized plan followed by the measured per-shard / per-chunk breakdown
// (see Engine.ExplainAnalyze).
func (s *Stmt) ExplainAnalyze(ctx context.Context) (string, error) {
	return s.eng.ExplainAnalyze(ctx, s.src)
}

// Fingerprint is the engine's current per-shard generation vector, the
// cache-key component of Snapshot.Fingerprint; it does not depend on the
// statement.
func (s *Stmt) Fingerprint() string {
	return s.eng.Snapshot().Fingerprint(s.src)
}

// PlanCacheStats snapshots the effectiveness counters of the engine's
// compiled-plan cache.
func (e *Engine) PlanCacheStats() PlanCacheStats { return e.planCache.Stats() }
