// Package atomicfs implements the crash-consistency confinement
// analyzer for the service layer (policy.ServicePackages). The cell
// store's durability story (DESIGN.md §10) rests on exactly two write
// idioms — same-directory temp+rename and single O_APPEND record
// writes — each packaged in one blessed helper enumerated in
// policy.AtomicFSAllowed. atomicfs rejects every other call to a raw
// file-mutating os function (os.WriteFile, os.Create, os.CreateTemp,
// os.OpenFile, os.Rename, os.Truncate, os.RemoveAll) in the service
// packages, turning the protocol from a convention into a checked
// invariant: a naive os.WriteFile over a manifest would reintroduce the
// torn-read window the helpers exist to close.
//
// os.Remove, os.ReadFile, os.MkdirAll and the read-only os surface are
// deliberately not checked — deleting a whole file or creating a
// directory is atomic at the filesystem level, and reads cannot tear
// state on disk.
//
// There is no line-level escape hatch. A new raw write site is a
// protocol change; it belongs in policy.AtomicFSAllowed, reviewed,
// next to the reasoning for the existing two.
package atomicfs

import (
	"go/ast"

	"smtsim/internal/analysis/framework"
	"smtsim/internal/analysis/policy"
)

// Analyzer is the atomicfs instance.
var Analyzer = &framework.Analyzer{
	Name: "atomicfs",
	Doc:  "confine raw file-mutating os calls in service packages to the blessed crash-consistency helpers listed in policy.AtomicFSAllowed",
	Run:  run,
}

// rawWriters is the checked subset of package os: the calls that can
// leave a half-written or half-renamed file visible to a reader.
var rawWriters = map[string]bool{
	"WriteFile":  true,
	"Create":     true,
	"CreateTemp": true,
	"OpenFile":   true,
	"Rename":     true,
	"Truncate":   true,
	"RemoveAll":  true,
}

func run(pass *framework.Pass) error {
	pkgPath := framework.NormalizePkgPath(pass.Pkg.Path())
	if !policy.IsServicePackage(pkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			blessed := policy.IsAtomicFSAllowed(pkgPath, funcKey(fn))
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, isRaw := rawOSCall(pass, call)
				if !isRaw || blessed {
					return true
				}
				pass.Reportf(call.Pos(),
					"atomicfs: raw os.%s outside the blessed crash-consistency helpers: route the write through cellstore.AtomicWrite (or extend policy.AtomicFSAllowed if this is a reviewed protocol change)",
					name)
				return true
			})
		}
	}
	return nil
}

// rawOSCall reports whether call targets one of the checked os
// functions, returning its name.
func rawOSCall(pass *framework.Pass, call *ast.CallExpr) (string, bool) {
	fn := framework.PkgFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return "", false
	}
	return fn.Name(), rawWriters[fn.Name()]
}

// funcKey renders a FuncDecl as "Name" or "Recv.Name" — the grammar
// policy.FuncRef uses.
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
