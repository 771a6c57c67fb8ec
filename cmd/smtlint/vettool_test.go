package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"smtsim/internal/analysis/smtlint"
)

// fixtureModule is the deliberately broken module the lint wiring must
// reject (see its README).
const fixtureModule = "../../internal/analysis/testdata/seedviolation"

// requireEveryAnalyzer fails t unless seen counts at least one
// diagnostic from each analyzer in the suite: the seed module carries
// one violation per analyzer, so an analyzer added without a seed, or a
// seed that stops firing, fails here.
func requireEveryAnalyzer(t *testing.T, seen map[string]int, out string) {
	t.Helper()
	for _, a := range smtlint.Analyzers {
		if seen[a.Name] == 0 {
			t.Errorf("no diagnostic from %s; got %v\n%s", a.Name, seen, out)
		}
	}
}

// tagCounts counts the "[analyzer]" suffixes of text-mode diagnostics.
func tagCounts(out string) map[string]int {
	seen := map[string]int{}
	for _, a := range smtlint.Analyzers {
		seen[a.Name] = strings.Count(out, "["+a.Name+"]")
	}
	return seen
}

func buildSmtlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "smtlint")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building smtlint: %v\n%s", err, out)
	}
	return bin
}

func runIn(dir string, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestVettoolProtocol drives the real go vet -vettool path end to end:
// the -V=full/-flags handshakes, per-package .cfg files, export-data
// import resolution, and the exit-status contract.
func TestVettoolProtocol(t *testing.T) {
	bin := buildSmtlint(t)

	out, err := runIn(fixtureModule, "go", "vet", "-vettool="+bin, "./...")
	if err == nil {
		t.Fatalf("go vet -vettool on seeded violation succeeded; want failure\n%s", out)
	}
	for _, want := range []string{
		"nondeterministic iteration over map",
		"idsafe: u from uop.Bank.Get is used before its GSeq/Squashed token is checked",
		"write to field Retired of protected type smtsim/internal/rob.Window",
		"stream I/O: fmt.Println inside cycle-path function Trace",
		"atomicfs: raw os.WriteFile outside the blessed crash-consistency helpers",
		"golife: go statement with no sync.WaitGroup Add visible before it",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("seeded-violation output missing %q:\n%s", want, out)
		}
	}
	requireEveryAnalyzer(t, tagCounts(out), out)
	// The transitive-allocation diagnostic is the fact round-trip proof:
	// scratch's MayAlloc verdict was encoded to a .vetx file by one tool
	// process and decoded by the separate process that analyzed fu.
	if !strings.Contains(out, "calls fill, which may allocate: calls scratch.Wrap: calls Grow") {
		t.Errorf("seeded-violation output missing transitive allocfree diagnostic (fact round-trip broken):\n%s", out)
	}
	// Same round trip for guardedby: Ledger.Add's //smt:locked
	// precondition was exported as a LockSummary fact while cellstore
	// was analyzed and decoded by the separate process that analyzed
	// sweepd's lock-free call site.
	if !strings.Contains(out, "guardedby: call to cellstore.Ledger.Add requires smtsim/internal/cellstore.Ledger.Mu held") {
		t.Errorf("seeded-violation output missing cross-package guardedby diagnostic (fact round-trip broken):\n%s", out)
	}

	out, err = runIn(fixtureModule, "go", "vet", "-vettool="+bin, "./internal/rob")
	if err != nil {
		t.Errorf("go vet -vettool on clean fixture package failed: %v\n%s", err, out)
	}
}

// TestStandaloneMode runs the binary directly (no go vet driver): it
// loads packages itself via the build cache and must reach the same
// verdicts.
func TestStandaloneMode(t *testing.T) {
	bin := buildSmtlint(t)

	out, err := runIn(fixtureModule, bin, "./...")
	if err == nil {
		t.Fatalf("standalone smtlint on seeded violation succeeded; want failure\n%s", out)
	}
	for _, want := range []string{
		"nondeterministic iteration over map",
		"calls fill, which may allocate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("standalone output missing %q:\n%s", want, out)
		}
	}
	requireEveryAnalyzer(t, tagCounts(out), out)

	out, err = runIn(fixtureModule, bin, "./internal/rob")
	if err != nil {
		t.Errorf("standalone smtlint on clean fixture package failed: %v\n%s", err, out)
	}
}

// TestJSONMode checks the standalone -json contract: every stdout line
// is one JSON diagnostic with the fields CI tooling keys on, and the
// exit status still signals failure.
func TestJSONMode(t *testing.T) {
	bin := buildSmtlint(t)

	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = fixtureModule
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("smtlint -json on seeded violation succeeded; want failure\n%s", stdout.String())
	}

	type diag struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	byAnalyzer := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var d diag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("stdout line is not a JSON diagnostic: %q: %v", line, err)
		}
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("JSON diagnostic missing fields: %+v", d)
		}
		byAnalyzer[d.Analyzer]++
	}
	requireEveryAnalyzer(t, byAnalyzer, "stderr:\n"+stderr.String())

	// -only restricts the run to the named analyzers: the seeded golife
	// and atomicfs violations must surface, everything else must not.
	cmd = exec.Command(bin, "-json", "-only", "golife,atomicfs", "./...")
	cmd.Dir = fixtureModule
	stdout.Reset()
	stderr.Reset()
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("smtlint -only golife,atomicfs on seeded violation succeeded; want failure\n%s", stdout.String())
	}
	onlySeen := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var d diag
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("-only stdout line is not a JSON diagnostic: %q: %v", line, err)
		}
		if d.Analyzer != "golife" && d.Analyzer != "atomicfs" {
			t.Errorf("-only golife,atomicfs emitted a %s diagnostic: %+v", d.Analyzer, d)
		}
		onlySeen[d.Analyzer]++
	}
	for _, a := range []string{"golife", "atomicfs"} {
		if onlySeen[a] == 0 {
			t.Errorf("-only run missing %s diagnostics; got %v\nstderr:\n%s", a, onlySeen, stderr.String())
		}
	}

	// An unknown analyzer name is a usage error (exit 2), not a lint
	// failure (exit 1).
	cmd = exec.Command(bin, "-json", "-only", "nosuch", "./...")
	cmd.Dir = fixtureModule
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Errorf("smtlint -only nosuch: want exit 2, got %v", err)
	}
}
