GO ?= go

.PHONY: FORCE all build test race test-scratch-race vet vet-bitset fmt bench bench-smoke bench-diff test-chaos bench-scale bench-scale-smoke bench-scale-diff test-serve bench-serving bench-serving-smoke bench-serving-diff test-bench

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# test-scratch-race repeats the scratch-reuse suites ten times under the
# race detector. An hknt.Scratch carries reset state from one trial to the
# next, the engines' workers check their scratch in and out of a sync.Pool
# once per seed, and seed totals, run states and reduction arenas pass
# through package-level pools from one solve to the next, whichever
# Solver runs it, so a race or a reset that one interleaving misses gets
# more chances to show.
test-scratch-race:
	$(GO) test -race -count=10 -run 'Scratch|TableScoring|Reuse|Arena' \
		./internal/hknt ./internal/deframe ./internal/condexp ./internal/mis \
		./internal/lowdeg ./internal/d1lc .

# test-chaos runs the fault-injection surface under the race detector:
# the injector's own unit/fuzz corpus, the mpc cancellation/retry tests,
# and the parcolor-level chaos differential suite (3 fixed seeds ×
# drop/straggler/crash schedules pinning "bit-identical to the fault-free
# oracle, or a classified error — never silently wrong").
test-chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Cancel|Retry|Example' \
		./internal/faultinject ./internal/mpc .

vet:
	$(GO) vet ./...

# test-bench vets the benchmark module and runs its smoke test (every
# workload at a tiny size, checking correctness and the metric set) under
# the race detector. bench/ is its own Go module, so the root build and
# test never compile it, yet it calls into the solver packages.
test-bench:
	cd bench && $(GO) vet ./... && $(GO) test -race ./...

# vet-bitset is the dedicated vet gate for the word-parallel mask layer:
# every engine's per-seed state rides this package, so it stays vet-clean
# on its own (CI runs it even if the broad vet target is ever narrowed).
vet-bitset:
	$(GO) vet ./internal/bitset/...

fmt:
	gofmt -l .

# bench-smoke runs every benchmark exactly once: the CI smoke step that
# keeps the benchmark suite compiling and terminating.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# HOST_FINGERPRINT keys recorded bench baselines to the machine that
# produced them: benchdiff gates hard only when the two streams' hosts
# match, and downgrades regressions to warnings across hardware.
# Lazily expanded (=) so the sub-shells run only for targets that use it.
HOST_FINGERPRINT = $(shell $(GO) env GOOS)-$(shell $(GO) env GOARCH)-$(shell hostname)-$(shell nproc 2>/dev/null || echo ncpu)

# Each stream has one rule that writes it to $@: `make bench` and friends
# rewrite the committed stream at the repo root, and the *-diff gates
# regenerate the same stream into the gitignored .bench_scratch/ and diff
# that fresh output against the committed stream (or against a
# *_BASELINE you pass), so a gate compares two measurements, never a file
# with itself. Gates are hard only when the baseline carries this host's
# fingerprint; across hardware benchdiff prints warnings and exits 0. To
# gate hard on a new machine, record the stream there once and pass that
# snapshot as the baseline. FORCE makes every stream rule rerun.
FORCE:

# bench regenerates the seed-selection benchmark suite (the scoring
# engines vs their naive oracles in deframe, mis and lowdeg, plus
# condexp.Select on a synthetic objective) as a machine-readable test2json
# stream — with the recording host's fingerprint as the first line — so
# the perf trajectory is diffable across PRs and baselines are keyed per
# machine. Every row runs five times: some rows spread past the 10% gate
# between runs of unchanged code, so the gate compares medians.
bench: BENCH_seed_selection.json
BENCH_seed_selection.json .bench_scratch/BENCH_seed_selection.json: FORCE
	@mkdir -p $(@D)
	@echo '{"Host":"$(HOST_FINGERPRINT)"}' > $@
	$(GO) test -run '^$$' -bench 'SeedSelection' -benchmem -count 5 -json \
		./internal/condexp ./internal/deframe ./internal/mis ./internal/lowdeg \
		>> $@
	@echo "wrote $@ (host $(HOST_FINGERPRINT))"

# bench-diff gates the engine path: any table/* row whose median over its
# runs is more than 10% slower than the baseline's median, or whose median
# allocs/op is higher, fails the target.
BENCH_BASELINE ?= BENCH_seed_selection.json
bench-diff: .bench_scratch/BENCH_seed_selection.json
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) -new $< -tol 0.10 -filter table/

# bench-scale sweeps the derandomized deframe solver and the classical
# randomized baselines (Jones–Plassmann, Luby) across graph sizes up to
# 10^6 vertices on gnp and Chung–Lu power-law workloads, streaming wall
# time, rounds, peak live heap and color count into BENCH_scale.json
# (host-stamped, benchdiff-gateable like the other streams). The full
# sweep takes minutes; CI runs bench-scale-smoke instead.
bench-scale: BENCH_scale.json
BENCH_scale.json .bench_scratch/BENCH_scale.json: FORCE
	@mkdir -p $(@D)
	$(GO) run ./cmd/scalebench -sizes 10000,100000,1000000 -out $@
	@echo "wrote $@"

# bench-scale-smoke is the CI leg: a small-n sweep that keeps the whole
# harness (generators, baselines, stream format) exercised in seconds.
# Its stream goes to .bench_scratch/ and is only parsed (self-diffed),
# never gated.
bench-scale-smoke:
	@mkdir -p .bench_scratch
	$(GO) run ./cmd/scalebench -sizes 2000 -out .bench_scratch/BENCH_scale_smoke.json
	$(GO) run ./cmd/benchdiff -old .bench_scratch/BENCH_scale_smoke.json \
		-new .bench_scratch/BENCH_scale_smoke.json -tol 0.10 -filter Scale/ > /dev/null
	@echo "scale smoke ok (stream parses and self-diffs clean)"

# bench-scale-diff gates the scale rows at the same >10% threshold; it
# reruns the full sweep.
BENCH_SCALE_BASELINE ?= BENCH_scale.json
bench-scale-diff: .bench_scratch/BENCH_scale.json
	$(GO) run ./cmd/benchdiff -old $(BENCH_SCALE_BASELINE) -new $< -tol 0.10 -filter Scale/

# test-serve runs the HTTP serving layer and its trace dependency under
# the race detector: the request-path cancellation tests, the overload /
# 429 shedding test and the cache canonicalization suite all exercise
# cross-goroutine state on purpose.
test-serve:
	$(GO) test -race -count=1 ./internal/serve ./internal/trace

# bench-serving drives a mixed workload (3 generators × 2 sizes × 3
# algorithms, 50% repeats hitting the content-addressed cache) against
# an in-process colord over loopback HTTP and records serving latency
# percentiles, inverse throughput and cache hit rate as a host-stamped
# test2json stream — the serving-layer analogue of `make bench-scale`.
bench-serving: BENCH_serving.json
BENCH_serving.json .bench_scratch/BENCH_serving.json: FORCE
	@mkdir -p $(@D)
	$(GO) run ./cmd/loadgen -inprocess -duration 20s -concurrency 8 -repeat 0.5 -out $@
	@echo "wrote $@"

# bench-serving-smoke is the CI leg: a short in-process run that keeps
# the whole serving pipeline (server, loadgen, stream format, benchdiff
# parse) exercised in seconds. Like the scale smoke, its stream goes to
# .bench_scratch/ and is only parsed, so format drift fails fast.
bench-serving-smoke:
	@mkdir -p .bench_scratch
	$(GO) run ./cmd/loadgen -inprocess -duration 5s -requests 60 -concurrency 4 \
		-sizes 200,400 -out .bench_scratch/BENCH_serving_smoke.json
	$(GO) run ./cmd/benchdiff -old .bench_scratch/BENCH_serving_smoke.json \
		-new .bench_scratch/BENCH_serving_smoke.json -tol 0.10 -filter Serving/ > /dev/null
	@echo "serving smoke ok (stream parses and self-diffs clean)"

# bench-serving-diff gates the serving rows (all lower-is-better: p50/p99
# latency, ns per solve) at the same >10% threshold.
BENCH_SERVING_BASELINE ?= BENCH_serving.json
bench-serving-diff: .bench_scratch/BENCH_serving.json
	$(GO) run ./cmd/benchdiff -old $(BENCH_SERVING_BASELINE) -new $< -tol 0.10 -filter Serving/
