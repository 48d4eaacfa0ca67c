# One-command verify + bench harness. `make ci` is what the tier-1
# gate runs in spirit: formatting, vet, the docs lint, the full test
# suite under the race detector, a single pass of every benchmark, the
# scenario-registry smoke (`simctl run -all -quick`, via bench-json),
# and vet + tests of the end-to-end benchmark module.

GO ?= go
PERFCOUNT ?= 5
# Per-fuzzer budget for `make fuzz`; ci runs a short pass.
FUZZTIME ?= 10s
# Combined statement-coverage floor for internal/serve + internal/scenario
# (recorded at 87.9% when the cache/fuzz/health test layer landed; the
# margin absorbs counting noise, not deleted tests).
COVERFLOOR ?= 86.0

.PHONY: ci fmt vet test race bench bench-json trace-smoke chaos-smoke cost-smoke perfbench build docs fuzz fuzz-short cover e2e-check

ci: fmt vet docs race bench bench-json trace-smoke chaos-smoke cost-smoke fuzz-short cover e2e-check

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every table/figure benchmark (quick scale).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# Registry smoke + machine-readable sweep results: run every registered
# scenario at quick scale through simctl (a scenario that breaks — or a
# new experiment that forgets to register — fails CI right here), write
# each one's sections as BENCH_<scenario>.json, and validate every
# emitted file in one jsonlint glob invocation. The four suite
# scenarios (burstbench, clusterbench, geobench, simbench) regenerate
# the accumulating perf-trajectory files under their historical names.
bench-json:
	@touch .bench-stamp
	$(GO) run ./cmd/simctl run -all -quick -json > /dev/null
	@new="$$(find . -maxdepth 1 -name 'BENCH_*.json' -newer .bench-stamp)"; \
	rm -f .bench-stamp; \
	if [ -z "$$new" ]; then \
		echo "bench-json: simctl run -all wrote no BENCH_*.json files"; exit 1; \
	fi
	$(GO) run ./cmd/jsonlint BENCH_*.json

# Observability smoke: run the traced failure-recovery cell (cut to the
# crash-restart plan), export the Chrome trace and the series CSV, and
# validate the trace's event grammar with jsonlint (well-formed events,
# per-track timestamp order, matched span pairs). This is the CI proof
# that `simctl run <name> -trace out.json` yields a Perfetto-loadable
# file showing the crash/ejection/retry/readmission story.
trace-smoke:
	$(GO) run ./cmd/simctl run failure-recovery -quick -p plans=crash-restart \
		-trace .trace-smoke.json -series .trace-smoke.csv > /dev/null
	$(GO) run ./cmd/jsonlint .trace-smoke.json
	@rm -f .trace-smoke.json .trace-smoke.csv

# Overload-robustness smoke: run the two chaos scenarios at quick scale
# through simctl -json, validate the emitted files, and assert the
# mechanisms actually fired — admission control shed requests under the
# burst and the mass crash caused retries. A chaos path that silently
# goes idle is a CI bug, not a green run.
chaos-smoke:
	@mkdir -p .chaos-smoke
	$(GO) run ./cmd/simctl run admission-control retry-storm -quick -json -out .chaos-smoke > /dev/null
	$(GO) run ./cmd/jsonlint .chaos-smoke/BENCH_admission-control.json .chaos-smoke/BENCH_retry-storm.json
	@shed="$$(awk '/"deadline-infeasible"/{n=NR} n && NR==n+3 {gsub(/[", ]/,""); print; exit}' .chaos-smoke/BENCH_admission-control.json)"; \
	retries="$$(awk '/"immediate"/{n=NR} n && NR==n+3 {gsub(/[", ]/,""); print; exit}' .chaos-smoke/BENCH_retry-storm.json)"; \
	rm -rf .chaos-smoke; \
	echo "chaos-smoke: shed=$$shed retries=$$retries"; \
	[ -n "$$shed" ] && [ "$$shed" != "0" ] || { echo "chaos-smoke: admission-control shed nothing"; exit 1; }; \
	[ -n "$$retries" ] && [ "$$retries" != "0" ] || { echo "chaos-smoke: retry-storm caused no retries"; exit 1; }

# Cost-tier smoke: run the two cloud-overflow scenarios at quick scale
# through simctl -json, validate the emitted files, and assert the
# economics actually flowed — the rent deployment pushed overflow to
# the cloud tier and the ledger billed real dollars, and the buy hatch
# offloaded doomed waiters. A cloud tier that silently never engages
# would make every cost table a trivial zero column.
cost-smoke:
	@mkdir -p .cost-smoke
	$(GO) run ./cmd/simctl run cost-tiered shed-spill-buy -quick -json -out .cost-smoke > /dev/null
	$(GO) run ./cmd/jsonlint .cost-smoke/BENCH_cost-tiered.json .cost-smoke/BENCH_shed-spill-buy.json
	@creq="$$(awk '/"rent-7"/{n=NR} n && NR==n+4 {gsub(/[", ]/,""); print; exit}' .cost-smoke/BENCH_cost-tiered.json)"; \
	spend="$$(awk '/"rent-7"/{n=NR} n && NR==n+8 {gsub(/[", ]/,""); print; exit}' .cost-smoke/BENCH_cost-tiered.json)"; \
	bought="$$(awk '/"buy"/{n=NR} n && NR==n+4 {gsub(/[", ]/,""); print; exit}' .cost-smoke/BENCH_shed-spill-buy.json)"; \
	rm -rf .cost-smoke; \
	echo "cost-smoke: cloudreq=$$creq total=$$spend bought=$$bought"; \
	[ -n "$$creq" ] && [ "$$creq" != "0" ] || { echo "cost-smoke: cost-tiered overflow never reached the cloud"; exit 1; }; \
	[ -n "$$spend" ] && [ "$$spend" != "0" ] || { echo "cost-smoke: cost-tiered billed zero total dollars"; exit 1; }; \
	[ -n "$$bought" ] && [ "$$bought" != "0" ] || { echo "cost-smoke: shed-spill-buy bought no doomed waiters"; exit 1; }

# The end-to-end benchmark harness is its own module (e2ebench/go.mod),
# so the root `go vet ./...` and `go test ./...` never compile it: vet
# and test it here, or an exported serve change could break the
# benchmark unnoticed.
e2e-check:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test ./...

# Simulator-performance benchmarks (engine hot path, fleet stepping,
# sweep fan-out) with allocation stats, repeated PERFCOUNT times for
# before/after comparisons:
#   make perfbench > new.txt   (and on the baseline commit > old.txt)
# benchstat is not a dependency of this repo and may not be installed;
# where it is missing, compare the per-benchmark medians of the two
# files instead (`benchstat old.txt new.txt` where it is available).
perfbench:
	$(GO) test -run xxx -bench 'BenchmarkSimulator_' -benchmem -count $(PERFCOUNT) .

# Native fuzzers: the scenario registry's input surface (simctl's -p
# key=value parsing) and the streaming Chrome trace writer against its
# encoding/json oracle. Each target runs FUZZTIME. The seeded corpora
# (internal/scenario/testdata/fuzz, and the f.Add seeds) also run as
# plain tests under `go test`.
fuzz:
	$(GO) test -run xxx -fuzz '^FuzzParseValue$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run xxx -fuzz '^FuzzScenarioParse$$' -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run xxx -fuzz '^FuzzChromeTraceBytes$$' -fuzztime $(FUZZTIME) ./internal/obs

# The ci-speed fuzz pass: long enough to exercise the mutators past the
# seed corpus, short enough not to dominate the gate.
fuzz-short:
	@$(MAKE) --no-print-directory FUZZTIME=2s fuzz

# Combined statement coverage of the serving simulator and the scenario
# registry, enforced against the recorded floor so the property/fuzz
# test layer cannot silently rot.
cover:
	@$(GO) test -count=1 -coverprofile=.cover.out \
		-coverpkg=./internal/serve/...,./internal/scenario/... \
		./internal/serve/... ./internal/scenario/... > /dev/null
	@total="$$($(GO) tool cover -func=.cover.out | awk '/^total:/ {sub(/%/,"",$$NF); print $$NF}')"; \
	rm -f .cover.out; \
	echo "cover: $$total% of statements (floor $(COVERFLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERFLOOR)" 'BEGIN { exit (t+0 < f+0) }' || \
		{ echo "cover: $$total% fell below the $(COVERFLOOR)% floor"; exit 1; }

# Documentation lint: formatting, vet, and a package comment on every
# internal package (godoc's "Package <name> ..." convention).
docs: fmt vet
	@missing=""; for d in internal/*; do \
		grep -qs '^// Package ' $$d/*.go || missing="$$missing $$d"; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "missing package comment in:$$missing"; exit 1; \
	fi
	@echo "docs lint OK"
