package lint

import (
	"go/ast"
	"path/filepath"

	"repro/internal/lint/analysis"
)

// GoroutinePool enforces bounded concurrency: engine packages do not spawn
// bare goroutines. A query's chunk work is one schedule served through
// internal/cohort's shared Pool, so total chunk-scan concurrency stays
// bounded no matter how many requests are in flight. The one structural
// exception is the Pool's own executor file (internal/cohort/parallel.go),
// which owns the worker goroutines, a private board's among them; anything else
// — bounded per-shard load fan-outs below the pool layer, lifecycle
// goroutines — must justify itself with an inline
// //lint:allow goroutinepool <reason>.
var GoroutinePool = &analysis.Analyzer{
	Name: "goroutinepool",
	Doc:  "no bare goroutines in engine packages outside the cohort.Pool executor",
	Run:  runGoroutinePool,
}

// goroutinePackages are the engine packages under the bare-goroutine ban.
var goroutinePackages = []string{
	Module + "/internal/plan",
	Module + "/internal/cohort",
	Module + "/internal/ingest",
	Module + "/internal/storage",
	Module + "/internal/server",
}

func runGoroutinePool(pass *analysis.Pass) (any, error) {
	if !pathWithinAny(pass.Path, goroutinePackages...) {
		return nil, nil
	}
	for _, file := range pass.Files {
		filename := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if pass.Path == Module+"/internal/cohort" && filename == "parallel.go" {
			// The Pool executor itself: the shared and private boards'
			// worker goroutines live here by design.
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"bare goroutine in an engine package: route the work through the shared cohort.Pool so concurrency stays bounded, or justify with //lint:allow goroutinepool <reason>")
			}
			return true
		})
	}
	return nil, nil
}
