package bench

import (
	"fmt"

	"repro/internal/cohort"
	"repro/internal/plan"
)

// The two decoder/front-end sweeps of the perf report: the plan-cache repeat
// measurement (what a repeated query text saves by skipping parse → validate
// → optimize → compile) and the pushdown selectivity sweep (how many value
// bytes the encoded-domain predicate evaluation decodes, by predicate
// selectivity). Latencies are machine-local and gated through the
// usual noise floor; the cache counters and decoded-byte counters are
// deterministic for a fixed workload, so CompareReports checks them exactly.

// PlanCacheRepeatReport measures one benchmark query cold (fresh cache:
// front end + execution) and warm (repeat text through a shared cache).
type PlanCacheRepeatReport struct {
	Query string `json:"query"`
	Scale int    `json:"scale"`
	// ColdNsPerOp includes Prepare on an empty cache; WarmNsPerOp repeats
	// the same text against the populated cache.
	ColdNsPerOp int64 `json:"coldNsPerOp"`
	WarmNsPerOp int64 `json:"warmNsPerOp"`
	// Speedup is ColdNsPerOp / WarmNsPerOp.
	Speedup float64 `json:"speedup"`
	// Hits and Misses snapshot the shared cache after the warm runs: the
	// deterministic evidence that repeats were served from the cache.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// PlanCacheRepeat measures Q1-Q4 at one scale. Every query must miss exactly
// once on the shared cache and hit on every repeat.
func PlanCacheRepeat(wl *Workload, scale, chunkSize, repeats int) ([]PlanCacheRepeatReport, error) {
	st := wl.Store(scale, chunkSize)
	schema := st.Schema()
	inputs := []plan.ShardInput{{Sealed: st}}
	sources := CoreQuerySources()
	shared := plan.NewCache(2 * len(CoreQueryNames))
	var out []PlanCacheRepeatReport
	for _, qn := range CoreQueryNames {
		src := sources[qn]
		// Cold: a fresh cache per run pays the full front end every time.
		cold := timeIt(repeats, func() {
			c := plan.NewCache(1)
			p, err := c.Prepare(src, schema)
			if err != nil {
				panic(err)
			}
			if _, err := plan.ExecuteCached(c, p, inputs, plan.ExecOptions{}); err != nil {
				panic(err)
			}
		})
		// Warm: populate the shared cache (and bind the shard) outside the
		// timer, then repeat the same text through it.
		p, err := shared.Prepare(src, schema)
		if err != nil {
			return nil, err
		}
		if _, err := plan.ExecuteCached(shared, p, inputs, plan.ExecOptions{}); err != nil {
			return nil, err
		}
		warm := timeIt(repeats, func() {
			p, err := shared.Prepare(src, schema)
			if err != nil {
				panic(err)
			}
			if _, err := plan.ExecuteCached(shared, p, inputs, plan.ExecOptions{}); err != nil {
				panic(err)
			}
		})
		r := PlanCacheRepeatReport{
			Query:       qn,
			Scale:       scale,
			ColdNsPerOp: cold.Nanoseconds(),
			WarmNsPerOp: warm.Nanoseconds(),
		}
		if warm > 0 {
			r.Speedup = float64(cold) / float64(warm)
		}
		cst := shared.Stats()
		r.Hits, r.Misses = cst.Hits, cst.Misses
		out = append(out, r)
	}
	return out, nil
}

// pushdownSweepQueries are the selectivity tiers of the pushdown sweep, from
// an age filter that keeps only shop tuples down to one that additionally
// cuts by measure threshold and a rare dimension value. Every tier's age
// condition is fully evaluable on encoded ids, so decoded bytes shrink as
// the predicates narrow.
var pushdownSweepQueries = []struct {
	Name string
	Src  string
}{
	{"shop-only", `
		SELECT country, COHORTSIZE, AGE, Sum(gold)
		FROM GameActions BIRTH FROM action = "launch"
		AGE ACTIVITIES IN action = "shop"
		COHORT BY country`},
	{"shop-gold", `
		SELECT country, COHORTSIZE, AGE, Sum(gold)
		FROM GameActions BIRTH FROM action = "launch"
		AGE ACTIVITIES IN action = "shop" AND gold > 40
		COHORT BY country`},
	{"shop-gold-rare-country", `
		SELECT country, COHORTSIZE, AGE, Sum(gold)
		FROM GameActions BIRTH FROM action = "launch"
		AGE ACTIVITIES IN action = "shop" AND gold > 40 AND country = "France"
		COHORT BY country`},
}

// PushdownSweepReport is one query's decoder traffic under the
// encoded-domain pushdown.
type PushdownSweepReport struct {
	Name  string `json:"name"`
	Scale int    `json:"scale"`
	// Rows is the table size; RowsScanned the post-pruning scan volume.
	Rows        int   `json:"rows"`
	RowsScanned int64 `json:"rowsScanned"`
	// BytesDecoded is deterministic for a fixed workload, so the gate
	// compares it against the baseline exactly.
	BytesDecoded int64 `json:"bytesDecoded"`
	// EncodedChecks counts predicate evaluations that stayed in the encoded
	// domain; zero means the pushdown compiled nothing.
	EncodedChecks int64 `json:"encodedChecks"`
	// NsPerOp is noise-floor gated like every query time.
	NsPerOp int64 `json:"nsPerOp"`
}

// PushdownSweep runs the selectivity tiers at one scale.
func PushdownSweep(wl *Workload, scale, chunkSize, repeats int) ([]PushdownSweepReport, error) {
	st := wl.Store(scale, chunkSize)
	var out []PushdownSweepReport
	for _, pq := range pushdownSweepQueries {
		q := mustQuery(pq.Src)
		r := PushdownSweepReport{Name: pq.Name, Scale: scale, Rows: wl.Source(scale).Len()}
		// One counted run (the counters are deterministic), then timed
		// repeats without counters.
		var stats cohort.ExecStats
		if _, err := plan.Execute(q, st, plan.ExecOptions{Stats: &stats}); err != nil {
			return nil, fmt.Errorf("bench: pushdown sweep %s: %w", pq.Name, err)
		}
		r.RowsScanned = stats.RowsScanned.Load()
		r.BytesDecoded = stats.ValueBytesDecoded.Load()
		r.EncodedChecks = stats.EncodedChecks.Load()
		r.NsPerOp = timeIt(repeats, func() {
			if _, err := plan.Execute(q, st, plan.ExecOptions{}); err != nil {
				panic(err)
			}
		}).Nanoseconds()
		out = append(out, r)
	}
	return out, nil
}
