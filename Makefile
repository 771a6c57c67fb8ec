# Tier-1 verification. The repository benchmark lives in bench/ (see
# bench/README.md): `bash bench/run.sh` measures one workload and
# `bash bench/ab.sh BASE HEAD` compares two commits in interleaved pairs.

.PHONY: verify test vet lint race bench-test profile

# verify is the tier-1 flow: vet, lint, build, the full test suite, the
# race detector over the concurrent sweep harness, the report, the sweep
# service, and the cell store, and the benchmark module's own checks.
verify: vet lint test race bench-test

vet:
	go vet ./...

# lint runs the repository's own analyzer suite (detlint, allocfree,
# statescope, cyclepure, idsafe, memocoherent, guardedby, golife,
# atomicfs) over the tree through the go vet driver, so results are
# cached per package like any vet check.
lint: bin/smtlint
	go vet -vettool=$(abspath bin/smtlint) ./...

bin/smtlint: FORCE
	go build -o bin/smtlint ./cmd/smtlint

.PHONY: FORCE
FORCE:

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/sweep/... ./internal/report/... ./internal/sweepd/... ./internal/cellstore/...

# bench-test runs the benchmark module's tests and the repository's
# analyzers over it: bench/ is its own Go module, so the root's
# `go test ./...` and `make lint` do not reach it.
bench-test: bin/smtlint
	cd bench && go test ./...
	cd bench && go vet -vettool=$(abspath bin/smtlint) ./...

# profile runs the Table 1 reference workload under the CPU and
# allocation profilers and prints the hottest functions — the first stop
# when attacking the busy-cycle cost model of DESIGN.md §12. Override
# the instruction budget with PROFILE_N, flags with PROFILE_FLAGS.
PROFILE_N ?= 2000000
PROFILE_FLAGS ?= -bench equake,twolf,gcc,gzip -iq 64 -sched 2op-ooo-dispatch
profile:
	go build -o bin/smtsim ./cmd/smtsim
	bin/smtsim $(PROFILE_FLAGS) -n $(PROFILE_N) -cpuprofile cpu.prof -memprofile mem.prof
	go tool pprof -top -nodecount 25 bin/smtsim cpu.prof
