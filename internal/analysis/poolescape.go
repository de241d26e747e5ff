package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape enforces the receiver-ownership discipline of the pooled
// Event/Msg objects (internal/pdes/pool.go), which at runtime is guarded
// only by the poolCheck poisoning tests. Two conservative, intra-procedural
// rules per function body:
//
//  1. Use-after-recycle: once a variable is passed to eventPool.put /
//     msgPool.put, no later statement on the same straight-line path may
//     use it (including a second put — a double free). Recycles inside a
//     conditional only poison the remainder of that branch.
//
//  2. Retention: a variable bound to eventPool.get / msgPool.get must not
//     be stored into a struct field, global, or map/slice element rooted
//     outside the variable itself, and must not be captured by a closure:
//     ownership moves to the receiver through calls (deliver, Send), never
//     through shared structures. Writing the pooled object's OWN fields
//     (m.Kind = ...) is of course allowed.
//
// Legitimate owner sites (the pending queue, history records, coalescing
// buffers) justify themselves with //govhdlvet:owner.
//
// Both rules are deliberately conservative: only bare identifiers are
// tracked, and poisoning never propagates out of the block that recycled.
// That yields no false positives on the engine at the cost of missing some
// aliased escapes — the poolCheck property tests remain the runtime
// backstop.
var PoolEscape = &Analyzer{
	Name:      "poolescape",
	Doc:       "pooled Event/Msg objects follow the receiver-ownership discipline of pool.go",
	Directive: "owner",
	Run:       runPoolEscape,
}

func runPoolEscape(pass *Pass) {
	if !pass.Config.IsPoolPackage(pass.Path) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkPoolFunc(pass, fd.Body)
			}
		}
	}
}

// checkPoolFunc analyzes one function body, then recurses into nested
// function literals as independent functions.
func checkPoolFunc(pass *Pass, body *ast.BlockStmt) {
	pe := &poolEscapeCheck{pass: pass, pooled: make(map[types.Object]bool)}
	pe.collectPooled(body)
	pe.checkRetention(body)
	pe.checkBlock(body.List, make(map[types.Object]token.Pos))
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkPoolFunc(pass, fl.Body)
			return false
		}
		return true
	})
}

type poolEscapeCheck struct {
	pass   *Pass
	pooled map[types.Object]bool // vars bound to pool.get() in this body
}

// poolCall returns the call if e is a call of the named method (get/put) on
// an eventPool or msgPool defined in a pool package.
func poolCall(pass *Pass, e ast.Expr, name string) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return nil
	}
	t := types.Unalias(tv.Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != "eventPool" && obj.Name() != "msgPool" {
		return nil
	}
	return call
}

// objOf resolves an expression to the object of a bare identifier, or nil.
func (pe *poolEscapeCheck) objOf(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pe.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pe.pass.Info.Defs[id]
}

// forEachInBody walks body without descending into nested function
// literals (the literal itself is still visited, so callers can inspect
// captures; its body is analyzed as an independent function).
func forEachInBody(body *ast.BlockStmt, fn func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			fn(n)
			return false
		}
		return fn(n)
	})
}

// collectPooled records variables assigned directly from pool get() calls.
func (pe *poolEscapeCheck) collectPooled(body *ast.BlockStmt) {
	forEachInBody(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if poolCall(pe.pass, as.Rhs[0], "get") == nil {
			return true
		}
		if obj := pe.objOf(as.Lhs[0]); obj != nil {
			pe.pooled[obj] = true
		}
		return true
	})
}

// rootIdent returns the leftmost identifier of a selector/index chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// checkRetention flags pooled variables stored outside themselves or
// captured by closures (rule 2).
func (pe *poolEscapeCheck) checkRetention(body *ast.BlockStmt) {
	if len(pe.pooled) == 0 {
		return
	}
	forEachInBody(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				obj := pe.storedPooled(rhs)
				if obj == nil {
					continue
				}
				for _, lhs := range n.Lhs {
					if pe.escapingStore(lhs, obj) {
						pe.pass.Reportf(n.TokPos,
							"pooled %s stored into %s; ownership moves through sends, not shared structures (//govhdlvet:owner to justify)",
							obj.Name(), types.ExprString(lhs))
					}
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := pe.pass.Info.Uses[id]; obj != nil && pe.pooled[obj] {
						pe.pass.Reportf(id.Pos(),
							"pooled %s captured by closure; ownership moves through sends, not shared structures (//govhdlvet:owner to justify)",
							obj.Name())
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// storedPooled returns the object of a pooled variable whose POINTER the
// expression stores when assigned: the bare identifier, its address, an
// append element, or a composite-literal element. Reading a field of a
// pooled object (antiRec{id: e.ID}) copies a value and is exactly the
// by-value recording the ownership model prescribes — not retention.
func (pe *poolEscapeCheck) storedPooled(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pe.pass.Info.Uses[x]; obj != nil && pe.pooled[obj] {
			return obj
		}
	case *ast.UnaryExpr:
		return pe.storedPooled(x.X)
	case *ast.CallExpr:
		// append(dst, elems...) stores its elements; any other call
		// transfers ownership to the callee, which is the legal way for a
		// pooled object to leave the function.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" {
			for _, a := range x.Args[1:] {
				if obj := pe.storedPooled(a); obj != nil {
					return obj
				}
			}
		}
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if obj := pe.storedPooled(el); obj != nil {
				return obj
			}
		}
	}
	return nil
}

// escapingStore reports whether assigning to lhs retains the pooled object
// outside itself: a field/element rooted at another object, or a
// package-level variable.
func (pe *poolEscapeCheck) escapingStore(lhs ast.Expr, pooled types.Object) bool {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := pe.objOf(x)
		if obj == nil {
			return false
		}
		// Assigning to a package-level variable retains the object globally.
		return obj.Parent() == pe.pass.Pkg.Scope()
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		root := rootIdent(lhs)
		if root == nil {
			return true // too complex to prove local: flag conservatively
		}
		robj := pe.objOf(root)
		if robj == pooled {
			return false // writing the pooled object's own fields
		}
		if robj == nil {
			return true
		}
		// Storing into a field/element of a local value is still an escape
		// unless the root IS the pooled variable; struct fields and globals
		// are exactly the retention the ownership model forbids.
		return robj.Parent() == pe.pass.Pkg.Scope() || isFieldOrElem(lhs)
	}
	return false
}

// isFieldOrElem reports whether lhs writes through a selector or index.
func isFieldOrElem(lhs ast.Expr) bool {
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	}
	return false
}

// checkBlock walks one statement list enforcing rule 1 (use-after-recycle)
// on straight-line paths. recycled maps a poisoned variable to the position
// of its put call; nested blocks get a copy, so conditional recycles only
// poison their own branch.
func (pe *poolEscapeCheck) checkBlock(list []ast.Stmt, recycled map[types.Object]token.Pos) {
	for _, stmt := range list {
		pe.checkStmt(stmt, recycled)
	}
}

func cloneRecycled(m map[types.Object]token.Pos) map[types.Object]token.Pos {
	c := make(map[types.Object]token.Pos, len(m))
	for k, v := range m { //govhdlvet:ordered analysis-internal scratch; order never reported
		c[k] = v
	}
	return c
}

func (pe *poolEscapeCheck) checkStmt(stmt ast.Stmt, recycled map[types.Object]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call := poolCall(pe.pass, s.X, "put"); call != nil && len(call.Args) == 1 {
			if obj := pe.objOf(call.Args[0]); obj != nil {
				if _, dead := recycled[obj]; dead {
					pe.pass.Reportf(call.Args[0].Pos(),
						"%s recycled twice on this path (double free)", obj.Name())
				} else {
					recycled[obj] = call.Pos()
				}
				return
			}
		}
		pe.reportUses(s, recycled)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			pe.reportUses(rhs, recycled)
		}
		for _, lhs := range s.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				// Rebinding ends the poisoning: the name now holds a live
				// object.
				if obj := pe.objOf(id); obj != nil {
					delete(recycled, obj)
				}
				continue
			}
			pe.reportUses(lhs, recycled)
		}
	case *ast.BlockStmt:
		pe.checkBlock(s.List, cloneRecycled(recycled))
	case *ast.IfStmt:
		if s.Init != nil {
			pe.checkStmt(s.Init, recycled)
		}
		pe.reportUses(s.Cond, recycled)
		pe.checkBlock(s.Body.List, cloneRecycled(recycled))
		if s.Else != nil {
			pe.checkStmt(s.Else, cloneRecycled(recycled))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			pe.checkStmt(s.Init, recycled)
		}
		if s.Cond != nil {
			pe.reportUses(s.Cond, recycled)
		}
		pe.checkBlock(s.Body.List, cloneRecycled(recycled))
	case *ast.RangeStmt:
		pe.reportUses(s.X, recycled)
		pe.checkBlock(s.Body.List, cloneRecycled(recycled))
	case *ast.SwitchStmt:
		if s.Init != nil {
			pe.checkStmt(s.Init, recycled)
		}
		if s.Tag != nil {
			pe.reportUses(s.Tag, recycled)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				pe.checkBlock(cc.Body, cloneRecycled(recycled))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				pe.checkBlock(cc.Body, cloneRecycled(recycled))
			}
		}
	case *ast.LabeledStmt:
		pe.checkStmt(s.Stmt, recycled)
	default:
		pe.reportUses(stmt, recycled)
	}
}

// reportUses flags every reference to a poisoned variable under n.
func (pe *poolEscapeCheck) reportUses(n ast.Node, recycled map[types.Object]token.Pos) {
	if n == nil || len(recycled) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pe.pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, dead := recycled[obj]; dead {
			pe.pass.Reportf(id.Pos(),
				"use of %s after recycle; the pool owns it once put returns", id.Name)
		}
		return true
	})
}
