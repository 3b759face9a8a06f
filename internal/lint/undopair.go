package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// UndoPair enforces the delta-cost move discipline from the annealing core:
// a speculative mutation (Expr.PerturbMove, Evaluator.Perturb or
// Model.Propose) must be matched by its inverse (UndoMove / Undo) — or
// deliberately committed — in the same function. The incremental evaluators keep double-buffered state
// whose validity depends on this strict pairing; a Propose that escapes on an
// early return leaves the buffers desynchronized and every later cost is
// silently wrong.
//
// The check is intraprocedural and conservative in two steps:
//
//  1. A function that calls PerturbMove/Perturb/Propose but never calls the
//     matching UndoMove/Undo is flagged, unless the call carries //hidapvet:commit
//     <reason> (the accept path: the mutation is deliberately kept and the
//     caller's contract says so).
//  2. Within the statement list enclosing the speculative call, a `return`
//     that appears (at any nesting depth) before the first statement
//     containing the matching undo is flagged: that path can exit with the
//     move still applied. A return inside a statement that also contains the
//     undo is fine (the classic `if reject { undo() ; return }`).
//
// Loop bodies are their own statement lists, so the propose/undo cycle of an
// annealing round is naturally in scope.
var UndoPair = &analysis.Analyzer{
	Name: "undopair",
	Doc: "every Expr.PerturbMove/Evaluator.Perturb/Model.Propose must reach a matching " +
		"UndoMove/Undo or carry //hidapvet:commit <reason> before return",
	Run: runUndoPair,
}

// movePairs lists each speculative-mutation method and its inverse.
var movePairs = []struct{ propose, undo string }{
	{"PerturbMove", "UndoMove"},
	{"Perturb", "Undo"},
	{"Propose", "Undo"},
}

func runUndoPair(pass *analysis.Pass) (interface{}, error) {
	idx := parseDirectives(pass)
	idx.checkDirectiveReasons(pass, "commit")
	for _, f := range nonTestFiles(pass) {
		// Check each function (decl or literal) independently.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkUndoPairs(pass, idx, body)
			}
			return true
		})
	}
	return nil, nil
}

// methodCallNamed reports whether n is a method call expression with the
// given method name (on any receiver type — the discipline is structural,
// so test fixtures and future evaluators are covered without importing
// their types).
func methodCallNamed(pass *analysis.Pass, n ast.Node, name string) (*ast.CallExpr, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return nil, false
	}
	// Exclude package-qualified functions (pkg.Propose): the discipline is
	// about methods on evaluator/model values.
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := pass.TypesInfo.Uses[id].(*types.PkgName); isPkg {
			return nil, false
		}
	}
	return call, true
}

// containsCall reports whether the subtree rooted at n contains a method call
// with the given name. Nested function literals ARE searched: an undo
// captured in a returned or deferred closure is a legitimate pairing
// handoff, and propose calls inside literals are excluded separately when
// gathering (each literal is its own function).
func containsCall(pass *analysis.Pass, n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := methodCallNamed(pass, m, name); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

// containsReturn reports whether the subtree contains a return statement,
// excluding nested function literals.
func containsReturn(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		if _, ok := m.(*ast.ReturnStmt); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

func checkUndoPairs(pass *analysis.Pass, idx *directiveIndex, body *ast.BlockStmt) {
	for _, pair := range movePairs {
		propose, undo := pair.propose, pair.undo
		// Gather speculative calls in this function, excluding nested
		// literals (checked separately).
		var calls []*ast.CallExpr
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := methodCallNamed(pass, n, propose); ok {
				calls = append(calls, call)
			}
			return true
		})
		if len(calls) == 0 {
			continue
		}
		hasUndo := containsCall(pass, body, undo)
		for _, call := range calls {
			if idx.suppressed(call.Pos(), pass.Analyzer.Name, "commit") {
				continue
			}
			if !hasUndo {
				pass.Reportf(call.Pos(), "%s without a matching %s in this function: the move "+
					"escapes unpaired; undo it, or mark a deliberate accept with "+
					"//hidapvet:commit <reason>", propose, undo)
				continue
			}
			if leak, leaky := returnBeforeUndo(pass, body, call, undo); leaky {
				pass.Reportf(leak.Pos(), "return between %s and its %s: this path exits with the "+
					"speculative move still applied; undo on every path or mark the call "+
					"with //hidapvet:commit <reason>", propose, undo)
			}
		}
	}
}

// returnBeforeUndo finds the statement list directly enclosing the call and
// scans the statements after it: a statement containing a return (but not the
// undo) before any statement containing the undo is a leak.
func returnBeforeUndo(pass *analysis.Pass, body *ast.BlockStmt, call *ast.CallExpr, undo string) (ast.Node, bool) {
	stmts, i := enclosingStmtList(body, call)
	if stmts == nil {
		return nil, false
	}
	// The statement holding the call may itself contain the undo
	// (e.g. `if c := ev.PerturbMove(); bad(c) { ev.UndoMove() }`).
	if containsCall(pass, stmts[i], undo) {
		return nil, false
	}
	for _, s := range stmts[i+1:] {
		if containsCall(pass, s, undo) {
			return nil, false
		}
		if containsReturn(s) {
			return s, true
		}
	}
	// No undo after the call in this list: either the list ends (falls off
	// into the enclosing scope — the loop-body case, where the next
	// iteration's pairing is this function's concern already counted by
	// hasUndo) or the undo lives in an earlier statement (defer-like
	// registration). Both are accepted by this conservative step.
	return nil, false
}

// enclosingStmtList returns the innermost []ast.Stmt containing the node and
// the index of the statement holding it.
func enclosingStmtList(body *ast.BlockStmt, target ast.Node) ([]ast.Stmt, int) {
	var bestList []ast.Stmt
	bestIdx := -1
	var visit func(list []ast.Stmt)
	visit = func(list []ast.Stmt) {
		for i, s := range list {
			if s.Pos() <= target.Pos() && target.End() <= s.End() {
				bestList, bestIdx = list, i
				// descend into nested statement lists of s
				ast.Inspect(s, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok && containsNode(n, target) {
						// target is inside a nested literal; its body's
						// lists were handled when checking that literal.
						return true
					}
					switch b := n.(type) {
					case *ast.BlockStmt:
						if b != body && containsNode(b, target) {
							visit(b.List)
						}
					case *ast.CaseClause:
						if containsNode(b, target) {
							visit(b.Body)
						}
					case *ast.CommClause:
						if containsNode(b, target) {
							visit(b.Body)
						}
					}
					return true
				})
				return
			}
		}
	}
	visit(body.List)
	return bestList, bestIdx
}

func containsNode(n, target ast.Node) bool {
	return n.Pos() <= target.Pos() && target.End() <= n.End()
}
