package lint

import (
	"go/ast"
	"go/token"

	"repro/internal/lint/analysis"
)

// CommitProto enforces the durability commit protocol in internal/storage
// and internal/ingest, where an os.Rename is a commit point and an fsync is
// an acknowledgement:
//
//   - fsync-before-rename: a function that renames must Sync the freshly
//     written file (or route through a checked commit helper) before the
//     rename, on a path lexically preceding it — otherwise the commit can
//     point at bytes the kernel never flushed.
//   - dir-sync-after-rename: the rename itself is only durable once the
//     containing directory is synced; a rename must be followed in the same
//     function by a directory sync (syncDir(...) or a later .Sync() call).
//     Helpers whose callers own the directory sync carry //lint:allow.
//   - fsync-before-ack (ingest): a buffered journal Flush() must be followed
//     by a .Sync() before the function returns — a flushed but unsynced batch
//     would be acknowledged and lost on power failure.
//   - truncate-as-commit: a .Truncate() call used as a commit point must be
//     followed by a .Sync() in the same function.
//
// The checks are per-function and lexical: the repo's commit paths are
// straight-line (early returns only), so "appears earlier/later in the
// function" is exactly "on all paths" for the code this guards.
var CommitProto = &analysis.Analyzer{
	Name: "commitproto",
	Doc:  "fsync-before-rename commits, dir syncs after renames, fsync-before-ack journaling",
	Run:  runCommitProto,
}

var commitPackages = []string{
	Module + "/internal/storage",
	Module + "/internal/ingest",
}

func runCommitProto(pass *analysis.Pass) (any, error) {
	if !pathWithinAny(pass.Path, commitPackages...) {
		return nil, nil
	}
	inIngest := pathWithin(pass.Path, Module+"/internal/ingest")
	for _, file := range pass.Files {
		names := importNames(file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCommitFn(pass, fn, names, inIngest)
		}
	}
	return nil, nil
}

// commitSites records the positions of protocol-relevant calls in one
// function body, in source order.
type commitSites struct {
	renames   []token.Pos // os.Rename(...)
	syncs     []token.Pos // <expr>.Sync()
	dirSyncs  []token.Pos // syncDir(...) — the canonical directory fsync helper
	flushes   []token.Pos // <expr>.Flush()
	truncates []token.Pos // <expr>.Truncate(...)
}

func collectCommitSites(fn *ast.FuncDecl, names map[string]string) commitSites {
	var s commitSites
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgCall(call, names, "os", "Rename") {
			s.renames = append(s.renames, call.Pos())
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "syncDir" {
			s.dirSyncs = append(s.dirSyncs, call.Pos())
			return true
		}
		switch methodCallName(call) {
		case "Sync":
			s.syncs = append(s.syncs, call.Pos())
		case "Flush":
			s.flushes = append(s.flushes, call.Pos())
		case "Truncate":
			s.truncates = append(s.truncates, call.Pos())
		}
		return true
	})
	return s
}

func anyBefore(sites []token.Pos, p token.Pos) bool {
	for _, s := range sites {
		if s < p {
			return true
		}
	}
	return false
}

func anyAfter(sites []token.Pos, p token.Pos) bool {
	for _, s := range sites {
		if s > p {
			return true
		}
	}
	return false
}

func checkCommitFn(pass *analysis.Pass, fn *ast.FuncDecl, names map[string]string, inIngest bool) {
	s := collectCommitSites(fn, names)

	for _, r := range s.renames {
		if !anyBefore(s.syncs, r) {
			pass.Reportf(r,
				"os.Rename commit point in %s with no preceding File.Sync: the rename can publish bytes the kernel never flushed",
				fn.Name.Name)
		}
		if !anyAfter(s.dirSyncs, r) && !anyAfter(s.syncs, r) {
			pass.Reportf(r,
				"os.Rename in %s is not followed by a directory sync: the rename itself is not durable until the directory is fsynced (syncDir)",
				fn.Name.Name)
		}
	}

	if inIngest {
		for _, f := range s.flushes {
			if !anyAfter(s.syncs, f) {
				pass.Reportf(f,
					"journal Flush in %s with no following Sync: a flushed-but-unsynced batch is acknowledged and lost on power failure",
					fn.Name.Name)
			}
		}
	}

	for _, tr := range s.truncates {
		if !anyAfter(s.syncs, tr) {
			pass.Reportf(tr,
				"Truncate in %s with no following Sync: a truncate used as a commit point must be fsynced",
				fn.Name.Name)
		}
	}
}
