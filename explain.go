package cohana

import (
	"fmt"
	"strings"

	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
)

// explain renders the static plan of stmt over the snapshot, executing
// nothing: the optimized physical plan of its cohort query and the
// chunk-pruning outcome — how many chunks the two-level dictionaries and
// chunk ranges let the executor skip entirely — under the outer SQL of a
// mixed query.
func (s *Snapshot) explain(stmt *parser.Stmt) (string, error) {
	if stmt.Mixed != nil {
		inner, err := s.explainCohort(stmt.Mixed.Inner)
		if err != nil {
			return "", err
		}
		var sb strings.Builder
		sb.WriteString("Mixed query (cohort sub-query first, then outer SQL):\n")
		sb.WriteString(inner)
		sb.WriteString("OuterSQL[")
		if stmt.Mixed.Where != nil {
			fmt.Fprintf(&sb, "WHERE %s", stmt.Mixed.Where)
		}
		if stmt.Mixed.Order != nil {
			fmt.Fprintf(&sb, " ORDER BY %s", stmt.Mixed.Order.Col)
			if stmt.Mixed.Order.Desc {
				sb.WriteString(" DESC")
			}
		}
		if stmt.Mixed.Limit >= 0 {
			fmt.Fprintf(&sb, " LIMIT %d", stmt.Mixed.Limit)
		}
		sb.WriteString("]\n")
		return sb.String(), nil
	}
	return s.explainCohort(stmt.Cohort)
}

func (s *Snapshot) explainCohort(stmt *parser.CohortStmt) (string, error) {
	q := stmt.Query
	views := s.views
	logical := plan.FromQuery(q)
	optimized, err := plan.Optimize(logical)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Birth action: %q\n", q.BirthAction)
	sb.WriteString("Logical plan (as written):\n")
	sb.WriteString(indent(plan.Describe(logical)))
	sb.WriteString("Optimized plan (birth selection pushed down, Eq. 1):\n")
	sb.WriteString(indent(plan.Describe(optimized)))
	totalChunks, totalPruned, totalDelta := 0, 0, 0
	type shardLine struct {
		skip  []bool
		delta int
	}
	lines := make([]shardLine, len(views))
	prunedOf := func(skip []bool) int {
		n := 0
		for _, s := range skip {
			if s {
				n++
			}
		}
		return n
	}
	for i, view := range views {
		skip, err := plan.PruneMap(q, view.Sealed)
		if err != nil {
			return "", err
		}
		lines[i] = shardLine{skip: skip}
		if view.Delta != nil {
			lines[i].delta = view.Delta.Len()
		}
		totalChunks += len(skip)
		totalPruned += prunedOf(skip)
		totalDelta += lines[i].delta
	}
	fmt.Fprintf(&sb, "Chunks: %d total, %d prunable for this query\n", totalChunks, totalPruned)
	// Per-chunk pruning detail: which chunks the two-level dictionaries and
	// chunk ranges let the executor skip, with each chunk's size — capped so
	// paper-scale tables don't drown the plan. Sharded tables get the detail
	// per shard under the per-shard breakdown.
	// Row/user counts come from chunk-level metadata (ChunkRows/ChunkUsers),
	// which lazy tables answer from the manifest — a plain EXPLAIN performs
	// zero segment loads.
	const maxChunkLines = 12
	chunkDetail := func(indent string, sealed *storage.Table, skip []bool) {
		for ci, skipped := range skip {
			if ci == maxChunkLines {
				fmt.Fprintf(&sb, "%s... (%d more chunks)\n", indent, len(skip)-maxChunkLines)
				break
			}
			verdict := "scan"
			if skipped {
				verdict = "prune"
			}
			fmt.Fprintf(&sb, "%schunk %d: %d rows, %d users, %s\n", indent, ci, sealed.ChunkRows(ci), sealed.ChunkUsers(ci), verdict)
		}
	}
	if len(views) > 1 {
		// Per-shard breakdown: how much of each shard the
		// pruning step lets the executor skip, and each shard's live delta.
		fmt.Fprintf(&sb, "Shards: %d (one chunk schedule, partitioned by user hash)\n", len(views))
		for i, l := range lines {
			fmt.Fprintf(&sb, "  shard %d: %d chunks, %d prunable", i, len(l.skip), prunedOf(l.skip))
			if l.delta > 0 {
				fmt.Fprintf(&sb, ", %d delta rows", l.delta)
			}
			sb.WriteString("\n")
			chunkDetail("    ", views[i].Sealed, l.skip)
		}
	} else if len(views) == 1 {
		chunkDetail("  ", views[0].Sealed, lines[0].skip)
	}
	if totalDelta > 0 {
		fmt.Fprintf(&sb, "Delta: %d live rows unioned via the chunk kernel over an encoded union table\n", totalDelta)
	}
	return sb.String(), nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
