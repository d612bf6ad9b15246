package lint

import (
	"go/ast"
	"go/token"

	"repro/internal/lint/analysis"
)

// ChunkPin enforces the chunk pinning protocol around the lazy segment
// cache: decoded chunk payloads may only be touched while pinned, so LRU
// eviction can never race an in-flight scan.
//
//   - Consumers above the storage layer never call the eager Chunk(i)
//     accessor (which panics on a cold lazy chunk): they go through
//     PinChunk and hold the release across the scan.
//   - Every PinChunk call keeps its release: discarding it with _ (the pin
//     would never drop, pinning the chunk resident forever) or never
//     calling/deferring/forwarding it (same leak, one step removed) is an
//     error.
var ChunkPin = &analysis.Analyzer{
	Name: "chunkpin",
	Doc:  "decoded chunk payloads are only touched inside a PinChunk region whose release is kept",
	Run:  runChunkPin,
}

// chunkConsumerPackages sit above the storage layer: the eager Chunk(i)
// accessor is off-limits there (eager tables are a storage-internal and
// test-only concern).
var chunkConsumerPackages = []string{
	Module + "/internal/plan",
	Module + "/internal/cohort",
	Module + "/internal/ingest",
	Module + "/internal/server",
}

func runChunkPin(pass *analysis.Pass) (any, error) {
	if !pathWithin(pass.Path, Module) {
		return nil, nil
	}
	consumer := pathWithinAny(pass.Path, chunkConsumerPackages...)
	for _, file := range pass.Files {
		if consumer {
			reportEagerChunkAccess(pass, file)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkPinReleases(pass, fn)
		}
	}
	return nil, nil
}

// reportEagerChunkAccess flags <table>.Chunk(i) calls in consumer packages.
// The one-argument shape distinguishes the table accessor from same-named
// zero-argument getters.
func reportEagerChunkAccess(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 || methodCallName(call) != "Chunk" {
			return true
		}
		pass.Reportf(call.Pos(),
			"direct Chunk(i) access above the storage layer bypasses the pin protocol (cold lazy chunks panic); use PinChunk and hold the release across the scan")
		return true
	})
}

// checkPinReleases verifies every `ch, release, err := x.PinChunk(i)` in fn
// keeps its release: not blanked, and referenced again (deferred, called,
// passed, stored, or returned) after the pin.
func checkPinReleases(pass *analysis.Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || methodCallName(call) != "PinChunk" {
			return true
		}
		if len(assign.Lhs) != 3 {
			return true // not the (chunk, release, err) shape; nothing to check
		}
		rel, ok := assign.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		if rel.Name == "_" {
			pass.Reportf(rel.Pos(),
				"PinChunk release discarded with _: the pin never drops and the chunk stays resident forever; keep the release and defer it")
			return true
		}
		if !identUsedAfter(fn.Body, rel.Name, assign.End()) {
			pass.Reportf(rel.Pos(),
				"PinChunk release %s is never used after the pin: the chunk leaks pinned; defer %s() (or forward it to the caller)",
				rel.Name, rel.Name)
		}
		return true
	})
}

// identUsedAfter reports whether name appears in body at a position after
// end (the pin assignment), i.e. the release is referenced again.
func identUsedAfter(body *ast.BlockStmt, name string, end token.Pos) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name && id.Pos() > end {
			used = true
			return false
		}
		return !used
	})
	return used
}
