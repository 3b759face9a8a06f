package lint

import (
	"go/ast"

	"repro/internal/lint/analysis"
)

// GoCap flags bare `go` statements outside internal/sched and the command
// binaries. All solver fan-out must go through the work-stealing pool
// (sched.Pool): ad-hoc goroutines bypass the Parallelism knob, multiply
// unboundedly with input size (as a goroutine per λ candidate once did), and
// make the determinism matrix meaningless because work ordering stops being
// governed by seed-derived task paths.
//
// Infrastructure goroutines (the Engine's per-job goroutines, an HTTP
// listener) are legitimate but must say so:
//
//	//hidapvet:allow gocap <reason>
var GoCap = &analysis.Analyzer{
	Name: "gocap",
	Doc: "flag bare go statements outside internal/sched and cmd/: solver " +
		"fan-out goes through the work-stealing pool",
	Run: runGoCap,
}

func runGoCap(pass *analysis.Pass) (interface{}, error) {
	idx := parseDirectives(pass)
	idx.checkDirectiveReasons(pass)
	if isSchedPkg(pass) || isCommand(pass) {
		return nil, nil
	}
	for _, f := range nonTestFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if idx.suppressed(gs.Pos(), pass.Analyzer.Name) {
				return true
			}
			pass.Reportf(gs.Pos(), "bare go statement in library package %s: route solver "+
				"fan-out through sched.Pool (the Parallelism knob), or annotate long-lived "+
				"infrastructure with //hidapvet:allow gocap <reason>", pass.Pkg.Path())
			return true
		})
	}
	return nil, nil
}
