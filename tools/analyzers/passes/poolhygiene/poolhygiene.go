// Package poolhygiene enforces the sync.Pool recycling contract that keeps
// the zero-alloc probe pipeline byte-deterministic (PRs 4–6): a pooled
// object that re-enters circulation carrying state from its previous life
// corrupts later probes in ways no test reliably reproduces. The rules:
//
//  1. A pool whose element is a struct defined in the analyzed package must
//     give that struct a scrub method (Reset/reset/scrub/release/clear),
//     and the scrub method must assign every pointer-bearing field —
//     nilling it or re-slicing it — so recycled values cannot pin or leak
//     their previous generation's memory. Deliberately retained fields
//     (interning caches, freelists) take a field-level `//spfail:allow
//     poolhygiene <reason>`.
//  2. Every Put call site must be dominated by a scrub: a call to the
//     element's scrub method earlier in the same function, or the Put
//     lives inside the scrub method itself.
//  3. A Get result must be type-asserted immediately, and its first use
//     must be a reinitialization (scrub call, field write, lock) — not a
//     read or an escape, which would consume dirty state.
//
// The pass is intra-procedural and positional: it checks source order
// within one function, which matches how every release path in the
// repository is written. Boundary sites that scrub elsewhere (for example
// a Get handed to the caller with a documented "dirty until first use"
// contract) carry an explicit //spfail:allow with justification.
package poolhygiene

import (
	"go/ast"
	"go/token"
	"go/types"

	"spfail/tools/analyzers/analysis"
)

// Analyzer is the poolhygiene pass.
var Analyzer = &analysis.Analyzer{
	Name: "poolhygiene",
	Doc: "sync.Pool elements need a scrub method covering every pointer-bearing field; " +
		"Put must be dominated by a scrub and Get results must be reset before use",
	Run: run,
}

// scrubNames are the accepted reset-method spellings, mirroring the
// repository's conventions (bufio's Reset, the codec's reset, the SMTP
// connection's release).
var scrubNames = map[string]bool{
	"Reset": true, "reset": true,
	"Scrub": true, "scrub": true,
	"release": true, "Release": true,
	"clear": true, "Clear": true,
}

// poolInfo is one sync.Pool variable and what it stores.
type poolInfo struct {
	obj     types.Object // the pool variable
	declPos token.Pos
	elem    types.Type // element type (from New/Put/Get), nil if unknown
}

func run(p *analysis.Pass) error {
	pools := findPools(p)
	if len(pools) == 0 {
		return nil
	}

	// Map function declarations for enclosing-function lookups and scrub
	// body analysis.
	var funcs []*ast.FuncDecl
	for _, f := range p.Files {
		if analysis.IsTestFile(p.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				funcs = append(funcs, fd)
			}
		}
	}

	for _, pi := range pools {
		if pi.elem == nil {
			continue
		}
		scrub := scrubMethod(pi.elem)
		local := localStruct(p, pi.elem)
		if local != nil && scrub == nil {
			p.Reportf(pi.declPos, "pooled type %s has no reset/scrub method; recycled values keep their previous life's state",
				types.TypeString(pi.elem, types.RelativeTo(p.Pkg)))
			continue
		}
		if local != nil && scrub != nil {
			checkScrubCoverage(p, local, scrub, funcs)
		}
		if scrub != nil {
			checkPuts(p, pi, scrub, funcs)
		}
		checkGets(p, pi, scrub, funcs)
	}
	return nil
}

// findPools locates sync.Pool variables and infers their element types.
func findPools(p *analysis.Pass) []*poolInfo {
	byObj := make(map[types.Object]*poolInfo)
	var order []*poolInfo
	for _, f := range p.Files {
		if analysis.IsTestFile(p.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, name := range vs.Names {
				obj := p.TypesInfo.Defs[name]
				if obj == nil || !isSyncPool(obj.Type()) {
					continue
				}
				pi := &poolInfo{obj: obj, declPos: name.Pos()}
				if i < len(vs.Values) {
					pi.elem = elemFromNew(p, vs.Values[i])
				}
				byObj[obj] = pi
				order = append(order, pi)
			}
			return true
		})
	}
	// Refine element types from Put arguments and Get assertions.
	for _, f := range p.Files {
		if analysis.IsTestFile(p.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pi := byObj[rootObject(p, sel.X)]
			if pi == nil || pi.elem != nil {
				return true
			}
			if sel.Sel.Name == "Put" && len(call.Args) == 1 {
				if t := p.TypesInfo.Types[call.Args[0]].Type; t != nil {
					pi.elem = t
				}
			}
			return true
		})
	}
	return order
}

func isSyncPool(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Pool" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// elemFromNew extracts the element type from the New field of a sync.Pool
// composite literal, using the type checker's view of the return expression.
func elemFromNew(p *analysis.Pass, v ast.Expr) types.Type {
	cl, ok := ast.Unparen(v).(*ast.CompositeLit)
	if !ok {
		return nil
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "New" {
			continue
		}
		fl, ok := kv.Value.(*ast.FuncLit)
		if !ok {
			return nil
		}
		var elem types.Type
		ast.Inspect(fl.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 || elem != nil {
				return true
			}
			if t := p.TypesInfo.Types[ret.Results[0]].Type; t != nil {
				elem = t
			}
			return true
		})
		return elem
	}
	return nil
}

// rootObject resolves an expression to the object of its root identifier
// (the pool variable for `decoderPool.Put`), or nil.
func rootObject(p *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return p.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		if obj, ok := p.TypesInfo.Uses[e.Sel]; ok {
			return obj
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return rootObject(p, e.X)
		}
	}
	return nil
}

// scrubMethod finds the element type's reset method in its method set.
func scrubMethod(elem types.Type) *types.Func {
	ms := types.NewMethodSet(elem)
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if ok && scrubNames[fn.Name()] {
			return fn
		}
	}
	return nil
}

// localStruct returns the named struct behind elem when it is declared in
// the analyzed package (directly or behind one pointer), else nil.
func localStruct(p *analysis.Pass, elem types.Type) *types.Named {
	t := elem
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != p.Pkg {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// enclosingFunc returns the function declaration containing pos.
func enclosingFunc(funcs []*ast.FuncDecl, pos token.Pos) *ast.FuncDecl {
	for _, fd := range funcs {
		if fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// checkPuts enforces scrub-dominates-Put for every Put call on the pool.
func checkPuts(p *analysis.Pass, pi *poolInfo, scrub *types.Func, funcs []*ast.FuncDecl) {
	for _, f := range p.Files {
		if analysis.IsTestFile(p.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
				return true
			}
			if rootObject(p, sel.X) != pi.obj {
				return true
			}
			fd := enclosingFunc(funcs, call.Pos())
			if fd == nil {
				p.Reportf(call.Pos(), "%s.Put outside any function body", pi.obj.Name())
				return true
			}
			// The Put may live inside the scrub method itself (the
			// release-method pattern: scrub the fields, then Put).
			if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok && sameFunc(obj, scrub) {
				return true
			}
			if !scrubCallBefore(p, fd, scrub, call) {
				p.Reportf(call.Pos(), "%s.Put(%s) is not dominated by a %s call; the value re-enters the pool dirty",
					pi.obj.Name(), types.ExprString(call.Args[0]), scrub.Name())
			}
			return true
		})
	}
}

// sameFunc compares possibly-distinct method objects for the same method
// (method-set lookups can return a wrapper distinct from the Defs object).
func sameFunc(a, b *types.Func) bool {
	return a == b || (a.Name() == b.Name() && a.Pos() == b.Pos())
}

// scrubCallBefore reports whether fd contains a call to scrub at a position
// earlier than bound. When both the Put argument and a scrub receiver are
// plain identifiers they must resolve to the same variable.
func scrubCallBefore(p *analysis.Pass, fd *ast.FuncDecl, scrub *types.Func, put *ast.CallExpr) bool {
	var putVar types.Object
	if id, ok := ast.Unparen(put.Args[0]).(*ast.Ident); ok {
		putVar = p.TypesInfo.Uses[id]
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= put.Pos() || found {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		callee, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || !sameFunc(callee, scrub) {
			return true
		}
		if putVar != nil {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && p.TypesInfo.Uses[id] != putVar {
				return true // scrubbed a different value
			}
		}
		found = true
		return true
	})
	return found
}

// checkScrubCoverage verifies the scrub method assigns every
// pointer-bearing field of the pooled struct. Uncovered fields are
// reported at their declaration, so a deliberate retention takes a
// field-level allow comment.
func checkScrubCoverage(p *analysis.Pass, named *types.Named, scrub *types.Func, funcs []*ast.FuncDecl) {
	st := named.Underlying().(*types.Struct)
	scrubDecl := declOf(p, scrub, funcs)
	if scrubDecl == nil {
		return // scrub declared elsewhere (embedded); nothing to inspect
	}
	covered := make(map[string]bool)
	all := false
	visited := make(map[*ast.FuncDecl]bool)
	var visit func(fd *ast.FuncDecl)
	visit = func(fd *ast.FuncDecl) {
		if visited[fd] || fd.Recv == nil || len(fd.Recv.List[0].Names) == 0 {
			return
		}
		visited[fd] = true
		recv := p.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					switch lhs := ast.Unparen(lhs).(type) {
					case *ast.SelectorExpr:
						if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok && p.TypesInfo.Uses[id] == recv {
							covered[lhs.Sel.Name] = true
						}
					case *ast.StarExpr:
						if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok && p.TypesInfo.Uses[id] == recv {
							all = true // *recv = T{...} rewrites everything
						}
					}
				}
			case *ast.CallExpr:
				// Follow same-receiver helper methods (scrub split into
				// stages).
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := ast.Unparen(sel.X).(*ast.Ident)
				if !ok || p.TypesInfo.Uses[id] != recv {
					return true
				}
				if callee, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func); ok {
					if next := declOf(p, callee, funcs); next != nil {
						visit(next)
					}
				}
			}
			return true
		})
	}
	visit(scrubDecl)
	if all {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if covered[f.Name()] || !pointerBearing(f.Type(), 0) {
			continue
		}
		p.Reportf(fieldPos(p, named, f.Name()),
			"pointer-bearing field %s.%s is not assigned by %s; a recycled value pins its previous life's %s",
			named.Obj().Name(), f.Name(), scrub.Name(), f.Name())
	}
}

// declOf finds the FuncDecl for a method object within the package.
func declOf(p *analysis.Pass, fn *types.Func, funcs []*ast.FuncDecl) *ast.FuncDecl {
	for _, fd := range funcs {
		if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok && sameFunc(obj, fn) {
			return fd
		}
	}
	return nil
}

// fieldPos locates the declaration position of a struct field for
// reporting (falling back to the type's position).
func fieldPos(p *analysis.Pass, named *types.Named, field string) token.Pos {
	for _, f := range p.Files {
		var pos token.Pos
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != named.Obj().Name() || pos != token.NoPos {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.Name == field {
						pos = name.Pos()
					}
				}
			}
			return true
		})
		if pos != token.NoPos {
			return pos
		}
	}
	return named.Obj().Pos()
}

// pointerBearing reports whether a value of type t keeps heap memory alive:
// pointers, slices, maps, channels, funcs, interfaces, or aggregates
// containing one. Strings are excluded deliberately — they are immutable,
// and the repository's id-style string fields are rewritten on Get.
func pointerBearing(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	switch t := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if pointerBearing(t.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return pointerBearing(t.Elem(), depth+1)
	}
	return false
}

// checkGets enforces assert-immediately and reset-before-read on Get
// results.
func checkGets(p *analysis.Pass, pi *poolInfo, scrub *types.Func, funcs []*ast.FuncDecl) {
	for _, f := range p.Files {
		if analysis.IsTestFile(p.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if ok {
				checkGetAssign(p, pi, scrub, funcs, assign)
				return true
			}
			// A Get outside an assignment: returned or passed along raw.
			call, ok := n.(*ast.CallExpr)
			if !ok || !isGetCall(p, pi, call) {
				return true
			}
			if !assertedImmediately(p, f, call) {
				p.Reportf(call.Pos(), "%s.Get() result must be type-asserted immediately", pi.obj.Name())
				return true
			}
			// Even asserted, the result may escape before any reset:
			// `return pool.Get().(*T)` or `use(pool.Get().(*T))`.
			path := nodePath(f, call.Pos())
			callIdx := -1
			for i, n := range path {
				if n == ast.Node(call) {
					callIdx = i
					break
				}
			}
			if callIdx < 0 {
				return true
			}
			for i := callIdx - 1; i >= 0; i-- {
				switch path[i].(type) {
				case *ast.TypeAssertExpr, *ast.ParenExpr:
					continue
				case *ast.ReturnStmt:
					p.Reportf(call.Pos(), "%s.Get() result escapes before reset: callers receive the previous life's state", pi.obj.Name())
				case *ast.CallExpr:
					p.Reportf(call.Pos(), "%s.Get() result passed along before reset", pi.obj.Name())
				}
				break
			}
			return true
		})
	}
}

// isGetCall reports whether call is pool.Get() on pi's pool.
func isGetCall(p *analysis.Pass, pi *poolInfo, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Get" && len(call.Args) == 0 && rootObject(p, sel.X) == pi.obj
}

// assertedImmediately reports whether the Get call's direct parent is a
// type assertion.
func assertedImmediately(p *analysis.Pass, f *ast.File, call *ast.CallExpr) bool {
	ok := false
	ast.Inspect(f, func(n ast.Node) bool {
		ta, isTA := n.(*ast.TypeAssertExpr)
		if isTA && ast.Unparen(ta.X) == call {
			ok = true
		}
		return true
	})
	return ok
}

// checkGetAssign handles `v := pool.Get().(*T)`: the result variable's
// first use must reinitialize it, not read it.
func checkGetAssign(p *analysis.Pass, pi *poolInfo, scrub *types.Func, funcs []*ast.FuncDecl, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 || len(assign.Lhs) != 1 {
		return
	}
	ta, ok := ast.Unparen(assign.Rhs[0]).(*ast.TypeAssertExpr)
	if !ok {
		return
	}
	call, ok := ast.Unparen(ta.X).(*ast.CallExpr)
	if !ok || !isGetCall(p, pi, call) {
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := p.TypesInfo.Defs[id]
	if obj == nil {
		obj = p.TypesInfo.Uses[id] // plain `=` assignment to existing var
	}
	if obj == nil {
		return
	}
	fd := enclosingFunc(funcs, assign.Pos())
	if fd == nil {
		return
	}
	if bad := firstDirtyUse(p, fd, obj, assign.End(), scrub); bad != nil {
		p.Reportf(bad.Pos(), "pooled %s read before reset: first use of %s after Get must scrub or reinitialize it",
			id.Name, id.Name)
	}
}

// firstDirtyUse finds the first use of obj after pos and returns it when
// that use consumes state instead of reinitializing. Accepted first uses:
// a scrub call, a field/element write, locking an embedded mutex, or
// handing the value back via Put.
func firstDirtyUse(p *analysis.Pass, fd *ast.FuncDecl, obj types.Object, pos token.Pos, scrub *types.Func) ast.Node {
	var first *ast.Ident
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() <= pos || p.TypesInfo.Uses[id] != obj {
			return true
		}
		if first == nil || id.Pos() < first.Pos() {
			first = id
		}
		return true
	})
	if first == nil {
		return nil
	}
	if use := classifyUse(p, fd, first, scrub); use != nil {
		return use
	}
	return nil
}

// classifyUse returns the identifier when its use is dirty, nil when it is
// an accepted reinitializing use.
func classifyUse(p *analysis.Pass, fd *ast.FuncDecl, id *ast.Ident, scrub *types.Func) ast.Node {
	path := nodePath(fd.Body, id.Pos())
	// Walk outward from the identifier's parent (the last path element is
	// the identifier itself).
	for i := len(path) - 2; i >= 0; i-- {
		switch n := path[i].(type) {
		case *ast.SelectorExpr:
			continue // part of id.field...; classified by the parent
		case *ast.StarExpr:
			continue // *id; classified by the parent
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if containsPos(lhs, id.Pos()) {
					return nil // write: id.f = ..., *id = ...
				}
			}
			return id // read on the RHS
		case *ast.IndexExpr:
			continue
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok && containsPos(sel.X, id.Pos()) {
				name := sel.Sel.Name
				if scrub != nil {
					if callee, ok := p.TypesInfo.Uses[sel.Sel].(*types.Func); ok && sameFunc(callee, scrub) {
						return nil // scrubbed first: fine
					}
				}
				if name == "Lock" || name == "Unlock" || name == "RLock" || name == "RUnlock" || name == "Put" {
					return nil // locking for reinit, or straight back to the pool
				}
				return id // some other method consumes state
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" {
				return nil // pool.Put(id): covered by the Put checks
			}
			return id // passed as an argument: escapes dirty
		case *ast.ReturnStmt:
			return id // returned dirty
		case *ast.IncDecStmt:
			return nil // id.field++ is a write
		default:
			return nil // conservative: unhandled context, do not flag
		}
	}
	return nil
}

// nodePath returns the chain of nodes from root down to the node at pos.
func nodePath(root ast.Node, pos token.Pos) []ast.Node {
	var path []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() <= pos && pos < n.End() {
			path = append(path, n)
			return true
		}
		return false
	})
	return path
}

// containsPos reports whether pos falls inside n.
func containsPos(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}
