// Package plan builds and optimizes cohort query plans and executes them
// against COHANA tables (Section 4.2 of the paper). A logical plan is the
// paper's operator tree — TableScan at the leaf, a sequence of birth and age
// selections, and the cohort aggregation at the root. The optimizer applies
// the commutativity property of Equation 1 to push every birth selection
// below every age selection, so the modified TableScan can skip all activity
// tuples of unqualified users. Execution runs the optimized plan per chunk
// (after chunk pruning) and merges the partial accumulators.
package plan

import (
	"fmt"
	"time"

	"repro/internal/activity"
	"repro/internal/cohort"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Op is a logical plan operator.
type Op interface{ opName() string }

// Scan is the TableScan leaf.
type Scan struct{}

// BirthSelect is σb[C,e].
type BirthSelect struct{ Cond expr.Expr }

// AgeSelect is σg[C,e].
type AgeSelect struct{ Cond expr.Expr }

// CohortAgg is γc[L,e,fA], always the plan root.
type CohortAgg struct {
	CohortBy []cohort.CohortKey
	Aggs     []cohort.AggSpec
}

func (Scan) opName() string        { return "TableScan" }
func (BirthSelect) opName() string { return "BirthSelect" }
func (AgeSelect) opName() string   { return "AgeSelect" }
func (CohortAgg) opName() string   { return "CohortAgg" }

// Plan is a bottom-up operator sequence: Plan[0] is always Scan and the last
// element is always CohortAgg.
type Plan []Op

// FromQuery builds the canonical logical plan for a query. The syntax allows
// one birth and one age selection; algebraic compositions with several
// selections can be built directly as a Plan.
func FromQuery(q *cohort.Query) Plan {
	p := Plan{Scan{}}
	// Mirror the written clause order (AGE ACTIVITIES IN appears before
	// BIRTH FROM in Q1), leaving the reordering to Optimize.
	if q.AgeCond != nil {
		p = append(p, AgeSelect{Cond: q.AgeCond})
	}
	if q.BirthCond != nil {
		p = append(p, BirthSelect{Cond: q.BirthCond})
	}
	p = append(p, CohortAgg{CohortBy: q.CohortBy, Aggs: q.Aggs})
	return p
}

// Optimize pushes birth selections below age selections (valid by Equation 1
// when all operators share one birth action, which Validate enforces) and
// fuses adjacent selections of the same kind into single conjunctions. The
// result has the shape Scan, BirthSelect?, AgeSelect?, CohortAgg.
func Optimize(p Plan) (Plan, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("plan: too short (%d ops)", len(p))
	}
	if _, ok := p[0].(Scan); !ok {
		return nil, fmt.Errorf("plan: leaf must be TableScan, got %s", p[0].opName())
	}
	agg, ok := p[len(p)-1].(CohortAgg)
	if !ok {
		return nil, fmt.Errorf("plan: root must be CohortAgg, got %s", p[len(p)-1].opName())
	}
	var birthConds, ageConds []expr.Expr
	for _, op := range p[1 : len(p)-1] {
		switch x := op.(type) {
		case BirthSelect:
			birthConds = append(birthConds, expr.Conjuncts(x.Cond)...)
		case AgeSelect:
			ageConds = append(ageConds, expr.Conjuncts(x.Cond)...)
		default:
			return nil, fmt.Errorf("plan: %s not allowed between scan and aggregation", op.opName())
		}
	}
	out := Plan{Scan{}}
	if c := expr.AndAll(birthConds); c != nil {
		out = append(out, BirthSelect{Cond: c})
	}
	if c := expr.AndAll(ageConds); c != nil {
		out = append(out, AgeSelect{Cond: c})
	}
	return append(out, agg), nil
}

// ToQuery folds an optimized plan back into the query form the executor
// consumes.
func ToQuery(p Plan, birthAction string, unit cohort.Unit) (*cohort.Query, error) {
	opt, err := Optimize(p)
	if err != nil {
		return nil, err
	}
	q := &cohort.Query{BirthAction: birthAction, AgeUnit: unit}
	for _, op := range opt {
		switch x := op.(type) {
		case BirthSelect:
			q.BirthCond = x.Cond
		case AgeSelect:
			q.AgeCond = x.Cond
		case CohortAgg:
			q.CohortBy = x.CohortBy
			q.Aggs = x.Aggs
		}
	}
	return q, nil
}

// Describe renders the plan top-down like Figure 5 of the paper.
func Describe(p Plan) string {
	out := ""
	for i := len(p) - 1; i >= 0; i-- {
		switch x := p[i].(type) {
		case CohortAgg:
			out += fmt.Sprintf("CohortAgg[%v]\n", x.Aggs)
		case BirthSelect:
			out += fmt.Sprintf("  BirthSelect[%s]\n", x.Cond)
		case AgeSelect:
			out += fmt.Sprintf("  AgeSelect[%s]\n", x.Cond)
		case Scan:
			out += "    TableScan\n"
		}
	}
	return out
}

// ExecOptions controls physical execution: the parallelism, shared pool,
// cancellation, stats and trace of the query's one chunk schedule (see
// cohort.RunOptions). A traced execution also gets the planner's compile or
// bind span under the root.
type ExecOptions = cohort.RunOptions

// ShardInput is one shard's execution input for ExecuteShards: its sealed
// compressed tier plus, for live tables, the shard's delta tier and its
// encoded union input (see ingest.View; a nil Union is built per query).
type ShardInput struct {
	Sealed *storage.Table
	Delta  *activity.Table
	Union  *cohort.UnionDelta
}

// Execute compiles and runs a cohort query against one sealed COHANA table.
// Live tables, whose shards carry delta tiers, execute through
// ExecuteShards.
func Execute(q *cohort.Query, tbl *storage.Table, opts ExecOptions) (*cohort.Result, error) {
	return ExecuteShards(q, []ShardInput{{Sealed: tbl}}, opts)
}

// ExecuteShards compiles a cohort query once per shard and runs it over a
// user-partitioned table as one chunk schedule over every shard: each
// shard's pruned sealed chunks, and on a live shard its union table's chunks
// too, are served by one fan-out with one accumulator per worker, merged
// once. Users never span shards — the clustering property lifted to the
// partition level — so the merge needs no distinct-count correction, and a
// sharded execution returns bit-identical results to the same query over
// the unsharded table.
func ExecuteShards(q *cohort.Query, shards []ShardInput, opts ExecOptions) (*cohort.Result, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("plan: no shards to execute over")
	}
	sp := opts.Trace.Child("compile")
	// Run the plan through the optimizer so every execution benefits from
	// birth-selection push-down, exactly as Section 4.2 prescribes.
	optimized, err := ToQuery(FromQuery(q), q.BirthAction, q.AgeUnit)
	if err != nil {
		return nil, err
	}
	compiled := make([]*cohort.Compiled, len(shards))
	for i, sh := range shards {
		// Compile binds per shard: each shard resolves the birth action and
		// condition literals against its own global dictionaries.
		if compiled[i], err = cohort.Compile(optimized, sh.Sealed); err != nil {
			return nil, err
		}
	}
	sp.End()
	sp.SetInt("shards", int64(len(shards)))
	return executeCompiled(optimized, compiled, shards, opts)
}

// executeCompiled is the shared execution tail behind ExecuteShards and the
// plan cache's ExecuteCached: it puts the pre-compiled bindings of every
// shard on one chunk schedule (see cohort.Schedule), runs it and
// materializes the merged result.
func executeCompiled(optimized *cohort.Query, compiled []*cohort.Compiled, shards []ShardInput, opts ExecOptions) (*cohort.Result, error) {
	start := time.Now()
	s := cohort.NewSchedule(opts)
	for i, sh := range shards {
		if err := s.AddShard(compiled[i], sh.Delta, sh.Union); err != nil {
			return nil, fmt.Errorf("plan: %w", err)
		}
	}
	acc, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		return nil, opts.Ctx.Err()
	}
	res := acc.Result(compiled[0].KeyColNames(), optimized.Aggs)
	obs.QuerySeconds.ObserveSince(start)
	obs.QueriesTotal.Inc()
	opts.Trace.SetInt("result_rows", int64(len(res.Rows)))
	return res, nil
}

// PruneMap reports, chunk by chunk, whether pruning skips the chunk for q —
// the schedule's own rule (cohort.Compiled.PruneMap) — used by explain.
func PruneMap(q *cohort.Query, tbl *storage.Table) ([]bool, error) {
	compiled, err := cohort.Compile(q, tbl)
	if err != nil {
		return nil, err
	}
	return compiled.PruneMap(), nil
}
