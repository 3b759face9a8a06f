package lint

import (
	"strings"

	"repro/internal/lint/analysis"
)

// criticalPkgs are the determinism-critical packages: the solve pipeline
// whose outputs must be byte-identical at any Parallelism/GOMAXPROCS
// (pinned by TestPlaceDeterminismMatrix). maprange polices map iteration
// order here; rngseed additionally polices the wider solver set below.
// A package outside this list opts in by carrying a //hidapvet:deterministic
// comment in any of its files (internal/verilog does: elaboration must emit
// identical netlists run-to-run or every downstream seed is meaningless).
var criticalPkgs = []string{
	"hidap",
	"internal/autocluster",
	"internal/core",
	"internal/dataflow",
	"internal/graph",
	"internal/layout",
	"internal/legalize",
	"internal/netlist",
	"internal/sched",
	"internal/slicing",
}

// solverExtraPkgs extends the critical set for rngseed: packages that hold a
// solver or feed one its random stream, where wall-clock time and ambient
// global RNG state are forbidden even though map order is already safe.
var solverExtraPkgs = []string{
	"internal/anneal",
	"internal/flows",
	"internal/handfp",
	"internal/indeda",
	"internal/mbonds",
	"internal/place",
}

// pathInSet reports whether pkgPath names one of the listed repo packages,
// tolerating any module prefix ("repro/internal/core" and "internal/core"
// both match "internal/core").
func pathInSet(pkgPath string, set []string) bool {
	for _, s := range set {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// isCritical reports whether the pass's package is determinism-critical,
// either by being on the hard-coded list or by //hidapvet:deterministic
// opt-in.
func isCritical(pass *analysis.Pass, idx *directiveIndex) bool {
	return idx.optedIn || pathInSet(pass.Pkg.Path(), criticalPkgs)
}

// isSolver reports whether the pass's package is in rngseed's scope.
func isSolver(pass *analysis.Pass, idx *directiveIndex) bool {
	return isCritical(pass, idx) || pathInSet(pass.Pkg.Path(), solverExtraPkgs)
}

// isCommand reports whether the package is an entry point (package main, or
// anything under cmd/ or examples/): binaries own their processes, so the
// goroutine-capping and context-origin rules do not apply there.
func isCommand(pass *analysis.Pass) bool {
	if pass.Pkg.Name() == "main" {
		return true
	}
	p := pass.Pkg.Path()
	return strings.Contains(p, "/cmd/") || strings.HasPrefix(p, "cmd/") ||
		strings.Contains(p, "/examples/") || strings.HasPrefix(p, "examples/")
}

// isSchedPkg reports whether this is internal/sched itself, the one library
// package allowed to spawn goroutines (it is the work-stealing pool).
func isSchedPkg(pass *analysis.Pass) bool {
	return pathInSet(pass.Pkg.Path(), []string{"internal/sched"})
}
