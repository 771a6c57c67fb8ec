// Package smtlint aggregates the repository's analyzer suite. The
// cmd/smtlint binary (standalone or as a go vet -vettool) and the
// in-repo self-check test both run exactly this list, so "the tree is
// lint-clean" means the same thing everywhere.
package smtlint

import (
	"fmt"
	"sort"
	"strings"

	"smtsim/internal/analysis/allocfree"
	"smtsim/internal/analysis/atomicfs"
	"smtsim/internal/analysis/cyclepure"
	"smtsim/internal/analysis/detlint"
	"smtsim/internal/analysis/facts"
	"smtsim/internal/analysis/framework"
	"smtsim/internal/analysis/golife"
	"smtsim/internal/analysis/guardedby"
	"smtsim/internal/analysis/idsafe"
	"smtsim/internal/analysis/load"
	"smtsim/internal/analysis/statescope"
)

// Analyzers is the suite, in reporting order: the cycle-path
// prohibitions first, then the service-layer verifications.
var Analyzers = []*framework.Analyzer{
	detlint.Analyzer,
	allocfree.Analyzer,
	statescope.Analyzer,
	cyclepure.Analyzer,
	idsafe.Analyzer,
	guardedby.Analyzer,
	golife.Analyzer,
	atomicfs.Analyzer,
}

// Select resolves a comma-joined list of analyzer names to suite
// entries, preserving suite order, for cmd/smtlint's -only flag. An
// unknown name is an error listing the valid ones.
func Select(names string) ([]*framework.Analyzer, error) {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			want[n] = true
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("empty analyzer list")
	}
	var out []*framework.Analyzer
	for _, a := range Analyzers {
		if want[a.Name] {
			out = append(out, a)
			delete(want, a.Name)
		}
	}
	if len(want) > 0 {
		var unknown, valid []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		for _, a := range Analyzers {
			valid = append(valid, a.Name)
		}
		return nil, fmt.Errorf("unknown analyzer(s) %s; valid: %s",
			strings.Join(unknown, ","), strings.Join(valid, ","))
	}
	return out, nil
}

func init() {
	facts.Register(Analyzers...)
}

// Session is one lint run's cross-package state: the fact store that
// lets allocfree's MayAlloc and guardedby's LockSummary verdicts flow
// from a dependency to its dependents. Standalone mode analyzes
// packages in dependency order against one Session; the vettool driver
// reconstitutes an equivalent Session per package from the .vetx files
// go vet hands it.
type Session struct {
	Facts *facts.Set
	// Analyzers restricts the run to a subset of the suite (cmd/smtlint
	// -only); nil means the whole suite.
	Analyzers []*framework.Analyzer
}

// NewSession returns a Session with an empty fact store running the
// whole suite.
func NewSession() *Session {
	return &Session{Facts: facts.NewSet()}
}

// Run applies the session's analyzers to one loaded package,
// accumulating and consuming facts through the session store, and
// returns the package's diagnostics sorted by position.
func (s *Session) Run(pkg *load.Package) ([]framework.Diagnostic, error) {
	suite := s.Analyzers
	if suite == nil {
		suite = Analyzers
	}
	var diags []framework.Diagnostic
	for _, a := range suite {
		pass := pkg.Pass(a, func(d framework.Diagnostic) { diags = append(diags, d) })
		facts.Attach(pass, s.Facts)
		if err := a.Run(pass); err != nil {
			return diags, err
		}
	}
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// Run applies the suite to one package in a fresh single-package
// session (no imported facts); callers analyzing a dependency graph
// should hold a Session and call its Run in dependency order instead.
func Run(pkg *load.Package) ([]framework.Diagnostic, error) {
	return NewSession().Run(pkg)
}
