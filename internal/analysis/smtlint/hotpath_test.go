package smtlint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smtsim/internal/analysis/framework"
	"smtsim/internal/analysis/policy"
)

// hotpathManifest lists every //smt:hotpath function together with the
// runtime guard that verifies the static allocfree verdict against
// reality. All current entries form the Core.Step closure, exercised
// under every dispatch policy by TestStepSteadyStateZeroAllocs
// (internal/pipeline/bench_test.go), which asserts
// testing.AllocsPerRun == 0 over steady-state Step; the leaf packages
// additionally carry direct AllocsPerRun micro-guards (see the
// alloc_test.go files in cache, bpred, fu, fetch, and uop).
//
// The SoA slab entries (uop.Bank.Get, uop.UOp.Reset) are guarded
// directly by TestBankHotOpsZeroAllocs (internal/uop/alloc_test.go) and
// transitively by the pipeline bench guard, which drives them through
// the dispatch scan, writeback and commit every cycle.
//
// TestHotpathAnnotationsMatchManifest fails when an annotation is added
// without updating this list — adding an entry is the reviewed promise
// that a zero-alloc AllocsPerRun guard covers the new function.
var hotpathManifest = []string{
	"bpred.BTB.Insert",
	"bpred.BTB.Lookup",
	"bpred.BTB.set",
	"bpred.Gshare.Predict",
	"bpred.Gshare.Update",
	"bpred.Gshare.index",
	"bpred.Predictor.Predict",
	"bpred.Predictor.Resolve",
	"bpred.counter.taken",
	"bpred.counter.update",
	"cache.Cache.Access",
	"cache.Cache.locate",
	"cache.Hierarchy.FetchLatencyExtra",
	"cache.Hierarchy.LoadLatencyExtra",
	"cache.Hierarchy.StoreCommit",
	"cache.Hierarchy.access",
	"core.Buffer.At",
	"core.Buffer.CanPush",
	"core.Buffer.Len",
	"core.Buffer.Push",
	"core.Buffer.RemoveAt",
	"core.DAB.CanInsert",
	"core.DAB.Entries",
	"core.DAB.Insert",
	"core.DAB.Len",
	"core.DAB.Remove",
	"core.Dispatcher.OnComplete",
	"core.Dispatcher.ReplayIdle",
	"core.Dispatcher.Run",
	"core.Dispatcher.atCap",
	"core.Dispatcher.commitDispatch",
	"core.Dispatcher.dependsOnNDI",
	"core.Dispatcher.dispatchToDAB",
	"core.Dispatcher.markNDI",
	"core.Dispatcher.runThread",
	"core.Dispatcher.runThreadInOrder",
	"core.Dispatcher.runThreadOOO",
	"core.Dispatcher.samplePiled",
	"core.Dispatcher.tickEmpty",
	"core.Watchdog.Tick",
	"core.taintSet.clear",
	"core.taintSet.has",
	"core.taintSet.set",
	"fetch.Selector.Order",
	"fu.Pool.tryReserve",
	"fu.Pools.TryIssue",
	"iq.Queue.CanAccept",
	"iq.Queue.ClassSupported",
	"iq.Queue.Insert",
	"iq.Queue.ReadyOldestFirst",
	"iq.Queue.ReadyOrdered",
	"iq.Queue.Remove",
	"iq.Queue.ThreadCount",
	"iq.Queue.UOpReady",
	"iq.Queue.detach",
	"iq.Queue.dropReady",
	"iq.Queue.settle",
	"iq.Queue.settleTo",
	"iq.Queue.wake",
	"lsq.LSQ.Alloc",
	"lsq.LSQ.CanAlloc",
	"lsq.LSQ.CheckLoad",
	"lsq.LSQ.Release",
	"lsq.line8",
	"pipeline.Core.Step",
	"pipeline.Core.commit",
	"pipeline.Core.fastForward",
	"pipeline.Core.fetch",
	"pipeline.Core.fetchThread",
	"pipeline.Core.gateAllows",
	"pipeline.Core.issue",
	"pipeline.Core.issueUOp",
	"pipeline.Core.noteLoadDone",
	"pipeline.Core.noteLoadIssue",
	"pipeline.Core.rename",
	"pipeline.Core.stepCycle",
	"pipeline.Core.stepGated",
	"pipeline.Core.stepPlain",
	"pipeline.Core.writeback",
	"pipeline.eventWheel.hasDue",
	"pipeline.eventWheel.nextDue",
	"pipeline.eventWheel.popDue",
	"pipeline.eventWheel.schedule",
	"pipeline.threadState.fetchQFull",
	"pipeline.threadState.fetchQPeek",
	"pipeline.threadState.fetchQPop",
	"pipeline.threadState.fetchQPushSlot",
	"pipeline.threadState.nextInst",
	"regfile.File.Alloc",
	"regfile.File.Allocated",
	"regfile.File.CanAlloc",
	"regfile.File.Free",
	"regfile.File.Ready",
	"regfile.File.SetReady",
	"regfile.File.Watch",
	"rob.ROB.Alloc",
	"rob.ROB.CanAlloc",
	"rob.ROB.Head",
	"rob.ROB.IsHead",
	"rob.ROB.PopHead",
	"uop.Bank.Get",
	"uop.UOp.Reset",
}

// TestHotpathAnnotationsMatchManifest parses the cycle-path packages and
// requires the set of //smt:hotpath annotations to equal the manifest
// above, tying every static annotation to a named runtime guard.
func TestHotpathAnnotationsMatchManifest(t *testing.T) {
	annotated := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkgPath := range policy.CyclePath {
		rel := strings.TrimPrefix(pkgPath, "smtsim/")
		dir := filepath.Join("..", "..", "..", filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading %s: %v", dir, err)
		}
		pkgName := rel[strings.LastIndexByte(rel, '/')+1:]
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parsing %s: %v", e.Name(), err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, hot := framework.FuncDirective(fn, "hotpath"); !hot {
					continue
				}
				annotated[pkgName+"."+funcKey(fn)] = true
			}
		}
	}

	manifest := map[string]bool{}
	for _, m := range hotpathManifest {
		manifest[m] = true
	}
	var missing, stale []string
	for name := range annotated {
		if !manifest[name] {
			missing = append(missing, name)
		}
	}
	for name := range manifest {
		if !annotated[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, name := range missing {
		t.Errorf("%s is annotated //smt:hotpath but absent from hotpathManifest: add it together with an AllocsPerRun guard", name)
	}
	for _, name := range stale {
		t.Errorf("hotpathManifest entry %s has no //smt:hotpath annotation left in the tree", name)
	}
}

// funcKey renders a FuncDecl as Recv.Name or Name.
func funcKey(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}
