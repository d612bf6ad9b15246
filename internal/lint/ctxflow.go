package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"repro/internal/lint/analysis"
)

// CtxFlow enforces the engine's context-propagation discipline:
//
//   - No context.Background() / context.TODO() in library code. Contexts
//     are minted at the process edge (cmd/, examples/, tests) and threaded
//     inward; a Background() deep in a library silently detaches that call
//     tree from cancellation. A deliberate shim carries //lint:allow.
//   - A context.Context parameter comes first and is named ctx (or _), the
//     stdlib convention every call site in the repo relies on.
//   - A ctx parameter must actually be used: accepting a context and
//     dropping it on the floor is indistinguishable, at the call site, from
//     threading it.
//   - Exported blocking entry points in internal/{plan,cohort,ingest,server}
//     — functions that select, touch channels, or wait on fan-out — must
//     be cancellable: a context.Context parameter or an options-struct
//     parameter carrying a Ctx field.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "exported blocking entry points accept and thread context.Context; " +
		"no context.Background/TODO in library code",
	Run: runCtxFlow,
}

// ctxEntryPackages are the packages whose exported blocking entry points
// must be cancellable.
var ctxEntryPackages = []string{
	Module + "/internal/plan",
	Module + "/internal/cohort",
	Module + "/internal/ingest",
	Module + "/internal/server",
}

func runCtxFlow(pass *analysis.Pass) (any, error) {
	if !pathWithin(pass.Path, Module) {
		return nil, nil
	}
	libScope := !pathWithinAny(pass.Path, Module+"/cmd", Module+"/examples") &&
		packageName(pass) != "main"
	entryScope := pathWithinAny(pass.Path, ctxEntryPackages...)

	ctxStructs := structsWithCtx(pass)

	for _, file := range pass.Files {
		names := importNames(file)

		for _, decl := range file.Decls {
			if libScope {
				reportBackgroundCalls(pass, decl, names)
			}
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCtxParamShape(pass, fn, names)
			if entryScope {
				checkBlockingEntry(pass, fn, names, ctxStructs)
			}
		}
	}
	return nil, nil
}

func packageName(pass *analysis.Pass) string {
	if len(pass.Files) == 0 {
		return ""
	}
	return pass.Files[0].Name.Name
}

// structsWithCtx names the package's struct types, across all its files,
// that carry a context.Context field.
func structsWithCtx(pass *analysis.Pass) map[string]bool {
	out := make(map[string]bool)
	for _, file := range pass.Files {
		names := importNames(file)
		for _, decl := range file.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					if isContextType(f.Type, names) {
						out[ts.Name.Name] = true
					}
				}
			}
		}
	}
	return out
}

// receiverTypeName returns the receiver's base type name ("" for functions).
func receiverTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isContextType reports whether expr denotes context.Context under the
// file's import names.
func isContextType(expr ast.Expr, names map[string]string) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && names[id.Name] == "context"
}

// reportBackgroundCalls flags context.Background() / context.TODO() under a
// declaration (a function body or a package-level initializer).
func reportBackgroundCalls(pass *analysis.Pass, decl ast.Node, names map[string]string) {
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, fn := range [...]string{"Background", "TODO"} {
			if isPkgCall(call, names, "context", fn) {
				pass.Reportf(call.Pos(),
					"context.%s() in library code: contexts are minted at the process edge and threaded in; accept a ctx parameter instead", fn)
			}
		}
		return true
	})
}

// checkCtxParamShape enforces ctx-first/ctx-named and ctx-actually-used.
func checkCtxParamShape(pass *analysis.Pass, fn *ast.FuncDecl, names map[string]string) {
	params := flattenParams(fn.Type.Params)
	for i, p := range params {
		if !isContextType(p.typ, names) {
			continue
		}
		if i != 0 {
			pass.Reportf(p.pos, "context.Context must be the first parameter of %s", fn.Name.Name)
		}
		if p.name != "" && p.name != "ctx" && p.name != "_" {
			pass.Reportf(p.pos, "context.Context parameter of %s must be named ctx, not %s", fn.Name.Name, p.name)
		}
		if p.name == "ctx" && !identUsed(fn.Body, "ctx") {
			pass.Reportf(p.pos, "%s accepts ctx but never uses it: thread the context or drop the parameter", fn.Name.Name)
		}
		break // one context parameter is the convention; shape-check the first
	}
}

type flatParam struct {
	name string
	typ  ast.Expr
	pos  token.Pos
}

func flattenParams(fields *ast.FieldList) []flatParam {
	if fields == nil {
		return nil
	}
	var out []flatParam
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			out = append(out, flatParam{typ: f.Type, pos: f.Type.Pos()})
			continue
		}
		for _, n := range f.Names {
			out = append(out, flatParam{name: n.Name, typ: f.Type, pos: n.Pos()})
		}
	}
	return out
}

func identUsed(body *ast.BlockStmt, name string) bool {
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			used = true
			return false
		}
		return !used
	})
	return used
}

// checkBlockingEntry flags exported blocking entry points with no
// cancellation path.
func checkBlockingEntry(pass *analysis.Pass, fn *ast.FuncDecl, names map[string]string, ctxStructs map[string]bool) {
	name := fn.Name.Name
	if !ast.IsExported(name) {
		return
	}
	if recv := receiverTypeName(fn); recv != "" && !ast.IsExported(recv) {
		return // method on an unexported type: not a package entry point
	}
	// Lifecycle exemptions: Close tears down (cancellation would race the
	// shutdown it implements) and New* constructors start long-lived
	// workers whose lifetime is the value's, not a call's.
	if name == "Close" || strings.HasPrefix(name, "New") {
		return
	}
	if !isBlockingBody(fn.Body) {
		return
	}
	for _, p := range flattenParams(fn.Type.Params) {
		if isContextType(p.typ, names) {
			return
		}
		if optTypeHasCtx(p.typ, ctxStructs) {
			return
		}
	}
	pass.Reportf(fn.Name.Pos(),
		"%s is an exported blocking entry point with no cancellation path: accept ctx (or an options struct with a Ctx field)",
		name)
}

// optTypeHasCtx reports whether typ names a same-package struct (possibly
// via pointer) that carries a context.Context field — the options-struct
// threading idiom (cohort.RunOptions.Ctx, plan.ExecOptions.Ctx).
func optTypeHasCtx(typ ast.Expr, ctxStructs map[string]bool) bool {
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	id, ok := typ.(*ast.Ident)
	return ok && ctxStructs[id.Name]
}

// isBlockingBody reports whether body contains a construct that can block
// the caller: selects, channel sends/receives, or Wait(). A bare go
// statement is fire-and-forget — it does not block the entry point, and
// goroutinepool polices it separately.
func isBlockingBody(body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure's body blocks the closure, not this entry
		case *ast.SelectStmt, *ast.SendStmt:
			blocking = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blocking = true
			}
		case *ast.CallExpr:
			if methodCallName(n) == "Wait" {
				blocking = true
			}
		}
		return !blocking
	})
	return blocking
}
