# Same gates as .github/workflows/ci.yml.

.PHONY: all build vet lint lint-fast test race fmt bench bench-kernels bench-e2e bench-scale bench-stream bench-smoke replay-smoke trace-smoke fuzz-smoke byz-smoke exec-smoke scale-smoke stream-smoke perfbench-smoke ci

# The kernel micro-benchmark set (bench_kernels_test.go at the repo
# root): simnet scheduling, wire framing, erasure coding, merkle, and
# signature hot paths.
KERNEL_BENCH = BenchmarkSimnet|BenchmarkWire|BenchmarkErasure|BenchmarkMerkle|BenchmarkEd25519|BenchmarkHashConcat

all: ci

build:
	go build ./...

vet:
	go vet ./...

# predis-lint: the repo's own go/analysis suite (tools/analyzers). The
# per-function analyzers enforce the simnet determinism contract, wire
# round-trip symmetry, lock discipline in sim-visible code, and
# dropped-error hygiene; the interprocedural analyzers (detflow,
# hotalloc, handlercomplete) chase taint and allocations through the
# whole-program call graph. Also usable as: go vet -vettool=$(shell
# pwd)/bin/predis-lint ./... after `go build -o bin/predis-lint
# ./cmd/predis-lint`.
lint:
	go run ./cmd/predis-lint ./...

# lint-fast: lint only the packages whose Go files changed vs
# origin/main (committed, staged, or untracked). Fixture packages under
# testdata carry intentional violations and are skipped; when
# origin/main is unavailable (fresh or shallow clone) the full suite
# runs instead. Note the interprocedural analyzers still load each
# changed package's dependencies, so cross-package taint is intact —
# only unrelated packages are skipped.
lint-fast:
	@base=$$(git merge-base origin/main HEAD 2>/dev/null); \
	if [ -z "$$base" ]; then \
		echo "lint-fast: origin/main unavailable, running full suite"; \
		go run ./cmd/predis-lint ./...; exit $$?; \
	fi; \
	pkgs=$$( { git diff --name-only "$$base" HEAD -- '*.go'; \
	           git diff --name-only -- '*.go'; \
	           git ls-files --others --exclude-standard -- '*.go'; } \
		| xargs -r -n1 dirname | sort -u | grep -v testdata \
		| while read -r d; do [ -d "$$d" ] && echo "./$$d"; done; true); \
	if [ -z "$$pkgs" ]; then \
		echo "lint-fast: no changed Go packages vs origin/main"; exit 0; \
	fi; \
	echo "lint-fast:" $$pkgs; \
	go run ./cmd/predis-lint $$pkgs

test:
	go test ./...

race:
	go test -race ./...

fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# bench: kernel micro-benchmarks, converted to BENCH_kernels.json by
# tools/benchjson so results can be committed and diffed across changes.
# Figure-level benchmarks remain available via `go test -bench=Fig`.
bench:
	go test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem . \
		| go run ./tools/benchjson -o BENCH_kernels.json
	@echo wrote BENCH_kernels.json

# bench-e2e: end-to-end wall-clock benchmarks (bench_e2e_test.go) over
# whole quick experiments, converted to BENCH_e2e.json so they are
# committed and diffable. The "cpus" metric in each row records how much
# hardware parallelism was available when the numbers were taken.
bench-e2e:
	go test -run '^$$' -bench 'BenchmarkE2E' -benchmem . \
		| go run ./tools/benchjson -o BENCH_e2e.json
	@echo wrote BENCH_e2e.json

# bench-scale: the population-scale benchmark pair (bench_scale_test.go)
# — the naive shape (one workload.Client and star-copy fan-out per
# logical client) against the aggregated-flow + shared-tree shape at 1k
# and 10k nodes — converted to BENCH_scale.json so the allocs/op ratio
# between ScaleNaive1k and ScaleFlow1k stays committed and diffable.
bench-scale:
	go test -run '^$$' -bench 'BenchmarkScale' -benchmem . \
		| go run ./tools/benchjson -o BENCH_scale.json
	@echo wrote BENCH_scale.json

# bench-stream: the streaming-commit benchmark set (bench_stream_test.go)
# — block vs stream on the latfloor LAN point (the confirmed-mean-ms
# metric records the virtual-time latency cut next to the wall-clock
# cost), plus the quick latfloor grid and the streaming quickstart —
# converted to BENCH_stream.json so both dimensions stay committed and
# diffable.
bench-stream:
	go test -run '^$$' -bench 'BenchmarkStream' -benchmem . \
		| go run ./tools/benchjson -o BENCH_stream.json
	@echo wrote BENCH_stream.json

# stream-smoke: the streaming-commit gate, two halves. First the latency-
# floor headline and the stream determinism tests under the race
# detector: on LAN at equal load, streaming commit must cut mean and p99
# confirmed latency ≥40% vs block mode with committed throughput within
# 5%, and same-seed stream runs must replay byte-identically. Then
# replaydiff cross-process: the latfloor grid and a streaming quickstart
# must be byte-identical between -parallel 1 and -parallel 2 runs in
# separate processes. Block-mode output
# stays guarded by replay-smoke — the default -mode block schedule is
# untouched by the streaming machinery.
stream-smoke:
	go test -race -run 'TestStream|TestLatencyFloor' ./internal/harness/
	go run ./tools/replaydiff latfloor
	go run ./tools/replaydiff quickstart -mode stream

# scale-smoke: the population-scale CI gate — the quick scale sweep
# (N ∈ {100, 1k, 10k}, four tree shapes each, aggregated client flows)
# must finish inside a 60 s budget. Before flow aggregation and the
# dense-index simnet paths, the 10k points alone blew through this.
scale-smoke:
	@mkdir -p bin
	go build -o bin/predis-bench ./cmd/predis-bench
	timeout 60 ./bin/predis-bench -quick -parallel 4 scale >/dev/null
	@echo scale-smoke: quick sweep finished inside the 60s budget

# bench-smoke: the CI gate — every kernel and stream row committed in
# BENCH_kernels.json and BENCH_stream.json must run and stay within 5% of
# its committed allocs/op (benchjson -compare; ns/op deltas are printed,
# not gated, since host speed drifts). Kernels run 1000 iterations so one-time
# warm-up (decode-matrix memo, buffer pools) does not count against the
# steady-state rows; a stream iteration is a whole simulation, so one
# suffices. The E2E set rides along at one iteration so regressions in
# experiment wiring surface here, not only in the slower `make bench-e2e`.
bench-smoke:
	go test -run '^$$' -bench '$(KERNEL_BENCH)' -benchtime=1000x -benchmem . \
		| go run ./tools/benchjson -o /dev/null -compare BENCH_kernels.json
	go test -run '^$$' -bench 'BenchmarkE2E' -benchtime=1x . \
		| go run ./tools/benchjson -o /dev/null
	go test -run '^$$' -bench 'BenchmarkStream' -benchtime=1x -benchmem . \
		| go run ./tools/benchjson -o /dev/null -compare BENCH_stream.json

# replay-smoke: the cross-process determinism gate — replays quickstart
# via a race-built predis-bench at -parallel 1 and -parallel 2 in
# separate processes and diffs the replay hashes and terminal output.
replay-smoke:
	go run ./tools/replaydiff

# fuzz-smoke: a short coverage-guided run of the wire frame-decoding
# fuzzer on top of its checked-in seed corpus (testdata/fuzz). Unmarshal
# guards every receive path, so "never panics, consumes one frame,
# re-marshals canonically" gets continuous adversarial pressure, not just
# the fixed seeds.
fuzz-smoke:
	go test ./internal/wire/ -run '^$$' -fuzz FuzzUnmarshal -fuzztime 10s

# byz-smoke: the Byzantine-robustness gate, two halves. First the
# byzantine experiment under the race detector: scripted data-plane
# adversaries (stripe corruption, withholding, garbage frames, leader
# equivocation) must be detected by the right counters and outrun —
# post-attack throughput within 5% of baseline — while the Eq. 4 sweep
# tracks the paper's delivery-probability prediction. Then replaydiff on
# the recovery experiment: with an empty Byzantine schedule the hardening
# hooks must leave every existing replay hash byte-identical.
byz-smoke:
	go run -race ./cmd/predis-bench -quick byzantine >/dev/null
	go run ./tools/replaydiff recovery

# exec-smoke: the execution-plane gate, two halves. First the executor
# and ledger under the race detector: dependency leveling, same-seed
# determinism of state roots, serial-vs-levelled equality, and the
# write-before-visibility ordering of ledger.Append. Then replaydiff on
# the contention experiment: replay hash, per-height state roots, and
# terminal output must be byte-identical between -parallel 1 and
# -parallel 2 runs in separate processes.
exec-smoke:
	go test -race ./internal/exec/ ./internal/ledger/
	go test -race -run 'TestContention' ./internal/harness/
	go run ./tools/replaydiff contention

# trace-smoke: run the quickstart experiment with -trace and validate the
# emitted Chrome trace JSON parses and records at least one span for every
# pipeline stage (submit, bundle_sealed, block_proposed, prepare_commit,
# executed, stripe_distributed, fullnode_delivered).
trace-smoke:
	@mkdir -p bin
	go run ./cmd/predis-bench -quick quickstart -trace -trace-out bin/trace-smoke.json -metrics-out bin/trace-smoke >/dev/null
	go run ./tools/tracecheck bin/trace-smoke.json
	@rm -f bin/trace-smoke.json bin/trace-smoke-stages.csv

# perfbench-smoke: perfbench/ is a nested module (it requires predis via
# a replace directive), so the root `go test ./...` never builds it. Vet
# and test it here so an internal API change that breaks the benchmark
# fails CI.
perfbench-smoke:
	cd perfbench && go vet ./... && go test ./...

ci: fmt build vet lint race trace-smoke bench-smoke replay-smoke fuzz-smoke byz-smoke exec-smoke scale-smoke stream-smoke perfbench-smoke
