// Package detlint implements the determinism analyzer: cycle-path
// packages must not iterate over maps (Go randomizes map iteration
// order, so any simulator state touched in map order diverges between
// runs) and must not read wall-clock time or the process-global
// math/rand source (seeded per-process, shared across goroutines —
// either leaks nondeterminism into a replay).
//
// The runtime counterpart is the differential layer: FuzzPipeline
// asserts scheduler-independent commit streams and the fast machine's
// bit-identity with the plain every-stage walk, and pins both against
// checked-in commit digests, which only holds if nothing on the cycle
// path consumes an unstable order. detlint stops the whole class before it compiles.
//
// The same replay argument forbids concurrency constructs outright on
// the cycle path: a `go` statement hands cycle-path state to the
// runtime scheduler, `select` resolves ready cases by a runtime coin
// flip, and ranging over a channel observes whatever order senders won
// the race in. The simulator is single-goroutine by design (DESIGN.md
// §2); there is no escape hatch for these. Concurrency is permitted —
// and separately verified — in the service layer: guardedby checks the
// lock discipline, golife the goroutine and channel lifecycles, and
// atomicfs the crash-consistency of on-disk writes (DESIGN.md §11).
//
// Escape hatch: //smt:allow-map-range on the offending line (or the
// line above) for iterations that are provably order-independent, e.g.
// draining a map into a slice that is sorted before use. Wall-clock and
// global-rand use has no escape hatch: derive randomness from a seeded
// *rand.Rand and take timestamps outside the cycle path.
package detlint

import (
	"go/ast"
	"go/types"

	"smtsim/internal/analysis/framework"
	"smtsim/internal/analysis/policy"
)

// Analyzer is the detlint instance.
var Analyzer = &framework.Analyzer{
	Name: "detlint",
	Doc:  "forbid map iteration, wall-clock reads, global math/rand, and concurrency constructs in cycle-path packages",
	Run:  run,
}

// wallClock lists time-package functions that read the wall clock or
// schedule against it.
var wallClock = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// seededConstructors are the math/rand functions that are fine on the
// cycle path: they build an explicitly seeded source the caller owns.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

func run(pass *framework.Pass) error {
	if !policy.IsCyclePath(framework.NormalizePkgPath(pass.Pkg.Path())) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		dirs := framework.FileDirectives(pass.Fset, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				checkRange(pass, dirs, n)
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine launched in cycle-path package: the runtime scheduler's interleaving is not replay-stable")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select in cycle-path package: case choice among ready channels is randomized by the runtime")
			}
			return true
		})
	}
	return nil
}

func checkRange(pass *framework.Pass, dirs framework.LineDirectives, rng *ast.RangeStmt) {
	tv := pass.TypesInfo.TypeOf(rng.X)
	if tv == nil {
		return
	}
	if _, isChan := tv.Underlying().(*types.Chan); isChan {
		pass.Reportf(rng.Pos(),
			"range over channel %s in cycle-path package: receive order depends on the runtime scheduler",
			types.TypeString(tv, types.RelativeTo(pass.Pkg)))
		return
	}
	if _, isMap := tv.Underlying().(*types.Map); !isMap {
		return
	}
	// `for range m` without iteration variables only observes the
	// element count, which is deterministic.
	if rng.Key == nil && rng.Value == nil {
		return
	}
	if dirs.Allowed(pass.Fset, rng.Pos(), "allow-map-range") {
		return
	}
	pass.Reportf(rng.Pos(),
		"nondeterministic iteration over map %s in cycle-path package (replace with an ordered slice, or annotate //smt:allow-map-range with a reason)",
		types.TypeString(tv, types.RelativeTo(pass.Pkg)))
}

func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	fn := framework.PkgFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] {
			pass.Reportf(call.Pos(),
				"wall-clock dependence: time.%s on the cycle path breaks bit-identical replay", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !seededConstructors[fn.Name()] {
			pass.Reportf(call.Pos(),
				"process-global math/rand source: %s.%s is not replay-stable; use an explicitly seeded *rand.Rand",
				fn.Pkg().Path(), fn.Name())
		}
	}
}
