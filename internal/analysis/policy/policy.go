// Package policy declares which packages the smtlint analyzers guard
// and how. It is the single place the repository's static-discipline
// boundaries are written down; the analyzers consume it, DESIGN.md §7
// documents it.
package policy

// CyclePath lists the packages whose code runs inside the simulated
// cycle loop. Determinism (detlint), I/O purity (cyclepure), and
// id-staleness discipline (idsafe) are enforced here: these packages
// produce the bit-identical replays the differential tests and the
// paper's comparisons depend on.
var CyclePath = []string{
	"smtsim/internal/core",
	"smtsim/internal/pipeline",
	"smtsim/internal/iq",
	"smtsim/internal/rob",
	"smtsim/internal/regfile",
	"smtsim/internal/rename",
	"smtsim/internal/lsq",
	"smtsim/internal/fetch",
	"smtsim/internal/fu",
	"smtsim/internal/cache",
	"smtsim/internal/bpred",
	"smtsim/internal/uop",
}

// IsCyclePath reports whether a (normalized) import path is on the
// cycle path.
func IsCyclePath(path string) bool {
	for _, p := range CyclePath {
		if path == p {
			return true
		}
	}
	return false
}

// ServicePackages lists the packages that form the concurrent sweep
// service (DESIGN.md §10): the cell store, the HTTP daemon, and its
// command wrapper. Concurrency is *allowed* here — unlike the cycle
// path, where detlint forbids it outright — so the discipline is
// verification instead of prohibition: guardedby proves annotated
// shared state is only touched under its mutex, golife ties every
// goroutine to a lifecycle and every channel close to its declared
// owner, and atomicfs confines raw filesystem mutation to the blessed
// crash-consistency helpers (DESIGN.md §11).
var ServicePackages = []string{
	"smtsim/internal/sweepd",
	"smtsim/internal/cellstore",
	"smtsim/cmd/smtsweepd",
}

// IsServicePackage reports whether a (normalized) import path is part
// of the service layer.
func IsServicePackage(path string) bool {
	for _, p := range ServicePackages {
		if path == p {
			return true
		}
	}
	return false
}

// FuncRef names one function: Func is "Name" for package-level
// functions and "Recv.Name" for methods (pointer receivers included).
type FuncRef struct {
	Pkg  string
	Func string
}

// AtomicFSAllowed enumerates the blessed crash-consistency helpers:
// the only functions in the service layer allowed to call the raw
// file-mutating os functions (os.WriteFile, os.Create, os.CreateTemp,
// os.OpenFile, os.Rename, os.Truncate, os.RemoveAll). Everything else
// must route through these, so the cell store's torn-tail/atomic-rename
// protocol (DESIGN.md §10) is an invariant, not a convention. There is
// deliberately no line-level escape hatch: a new raw write site is a
// protocol change and belongs on this list, reviewed.
var AtomicFSAllowed = []FuncRef{
	// AtomicWrite: same-directory temp file + rename; readers observe
	// old or new bytes, never a prefix.
	{Pkg: "smtsim/internal/cellstore", Func: "AtomicWrite"},
	// appendShard: one O_APPEND write per record; a torn tail is
	// recovered (truncated) by the next Open.
	{Pkg: "smtsim/internal/cellstore", Func: "appendShard"},
}

// IsAtomicFSAllowed reports whether pkg.fnKey is a blessed helper.
func IsAtomicFSAllowed(pkg, fnKey string) bool {
	for _, f := range AtomicFSAllowed {
		if f.Pkg == pkg && f.Func == fnKey {
			return true
		}
	}
	return false
}

// ProtectedState describes one package whose architectural state is
// location-exclusive: its struct fields may be mutated only from inside
// the owning package, or from a function that declares itself a pipeline
// stage for that package with //smt:stage. simsan re-derives the same
// exclusivity dynamically each cycle; statescope proves it statically.
type ProtectedState struct {
	// Pkg is the owning package's import path.
	Pkg string
	// Types restricts protection to the named types; empty protects
	// every type the package declares.
	Types []string
}

// Protected lists the location-exclusive architectural state.
var Protected = []ProtectedState{
	{Pkg: "smtsim/internal/rob"},
	{Pkg: "smtsim/internal/iq"},
	{Pkg: "smtsim/internal/regfile"},
	{Pkg: "smtsim/internal/lsq"},
	// Package core also holds dispatch bookkeeping that is not
	// architectural state; only the deadlock-avoidance buffer and the
	// watchdog carry location-exclusive state.
	{Pkg: "smtsim/internal/core", Types: []string{"DAB", "Watchdog"}},
	// Measurement accumulators: not architectural state, but the same
	// single-writer discipline applies — a stray field write from a
	// consumer would silently skew every paper artifact derived from
	// them. Only declared results-assembly stages may fill them.
	{Pkg: "smtsim/internal/metrics", Types: []string{"Results", "ThreadResult"}},
	{Pkg: "smtsim/internal/power", Types: []string{"Events", "Breakdown"}},
}

// ProtectedTypes returns the type filter for a protected package and
// whether the package is protected at all. A nil filter with ok=true
// means every type is protected.
func ProtectedTypes(pkg string) (typeNames []string, ok bool) {
	for _, p := range Protected {
		if p.Pkg == pkg {
			return p.Types, true
		}
	}
	return nil, false
}
