// Command smtlint runs the repository's static-analysis suite (detlint,
// allocfree, statescope, cyclepure, idsafe, guardedby, golife,
// atomicfs — see internal/analysis and DESIGN.md §7/§9/§11) over Go
// packages.
//
// Two modes:
//
//	smtlint [-json] [-only a,b] ./...   # standalone, over package patterns
//	go vet -vettool=$(pwd)/bin/smtlint ./...   # as a go vet tool
//
// The vettool mode speaks the go command's unitchecker protocol: go vet
// invokes the tool once per package with a JSON config file naming the
// sources, the compiled export data of every dependency, and the .vetx
// fact files earlier invocations wrote for those dependencies (how
// allocfree's interprocedural verdicts cross package boundaries under
// incremental builds), plus the -V=full and -flags handshakes it uses
// for caching and flag validation. Diagnostics go to stderr as
// file:line:col: message [analyzer]; a non-zero exit fails the vet run.
// Standalone -json instead emits one JSON object per diagnostic on
// stdout (NDJSON: file, line, col, analyzer, message) for CI tooling.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"smtsim/internal/analysis/framework"
	"smtsim/internal/analysis/load"
	"smtsim/internal/analysis/smtlint"
)

func main() {
	args := os.Args[1:]

	// go vet handshakes (see cmd/go/internal/work and golang.org/x/tools
	// unitchecker, whose observable behaviour this replicates).
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion(args[0])
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]") // no tool flags beyond vet's own
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		unitCheck(args[0])
		return
	}

	standalone(args)
}

// standalone lints the packages matching the given patterns (default
// ./...) from the current directory.
func standalone(args []string) {
	fs := flag.NewFlagSet("smtlint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit diagnostics as NDJSON on stdout instead of text on stderr")
	only := fs.String("only", "", "comma-separated subset of analyzers to run (standalone mode only; vettool mode always runs the whole suite)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: smtlint [-json] [-only analyzer,...] [packages]\n   or: go vet -vettool=/path/to/smtlint [packages]\n")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fatalf("smtlint: %v", err)
	}
	pkgs, err := load.LoadPatterns(dir, func(path string, err error) {
		fmt.Fprintf(os.Stderr, "smtlint: %s: type checking incomplete: %v\n", path, err)
	}, patterns...)
	if err != nil {
		fatalf("smtlint: %v", err)
	}
	// One session across the run: LoadPatterns returns packages in go
	// list order (dependencies first), so facts a package exports are in
	// the store before any dependent is analyzed.
	sess := smtlint.NewSession()
	if *only != "" {
		suite, err := smtlint.Select(*only)
		if err != nil {
			fatalf("smtlint: -only: %v", err)
		}
		sess.Analyzers = suite
	}
	bad := false
	for _, pkg := range pkgs {
		diags, err := sess.Run(pkg)
		if err != nil {
			fatalf("smtlint: %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			bad = true
			if *jsonOut {
				printJSONDiag(pkg, d)
			} else {
				printDiag(pkg, d)
			}
		}
	}
	if bad {
		os.Exit(1)
	}
}

func printDiag(pkg *load.Package, d framework.Diagnostic) {
	fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
}

// printJSONDiag emits one diagnostic as a single NDJSON line on stdout.
func printJSONDiag(pkg *load.Package, d framework.Diagnostic) {
	pos := pkg.Fset.Position(d.Pos)
	line, err := json.Marshal(struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}{pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message})
	if err != nil {
		fatalf("smtlint: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// printVersion answers go vet's -V=full tool-identity probe. The go
// command derives the tool's cache key from this line, so it must be
// stable for one binary and change when the binary changes: the
// executable's own content hash provides exactly that (the same scheme
// x/tools vettools use).
func printVersion(arg string) {
	if arg != "-V=full" && arg != "-V" {
		fatalf("smtlint: unsupported flag %q", arg)
	}
	name := os.Args[0]
	fmt.Printf("%s version devel comments-go-here buildID=%x\n", name, selfHash())
}

func selfHash() []byte {
	exe := os.Args[0]
	if !filepath.IsAbs(exe) {
		if p, err := os.Executable(); err == nil {
			exe = p
		}
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		fatalf("smtlint: reading own executable for -V: %v", err)
	}
	return contentHash(data)
}
