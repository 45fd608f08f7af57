# Developer entry points. `make all` is the default gate: build, lint
# (simlint + vet + gofmt), test, race, then chaos-smoke. `make race` is
# the supported race-detector invocation (the parallel harness is
# exercised by TestParallelRowsMatchSequential at 8 workers).

GO      ?= go
JOBS    ?= 4
TMP     ?= /tmp/iatsim

.PHONY: all build lint simlint vet fmtcheck test race fuzz smoke chaos-smoke bench bench-baseline bench-diff determinism scaling clean

all: build lint test race chaos-smoke

build:
	$(GO) build ./...

# lint enforces the determinism and hardware-model invariants (see
# EXPERIMENTS.md "Static analysis: simlint"): simlint (detlint/maporder/
# msrlint/seedflow/statelint/telemlint, interprocedural), go vet, and a
# gofmt cleanliness check. It must exit 0 at HEAD.
lint: simlint vet fmtcheck

simlint: build
	$(GO) run ./cmd/simlint

vet:
	$(GO) vet ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; \
	fi
	@echo "gofmt OK"

test: build
	$(GO) test ./...

race: build
	$(GO) test -race ./...

# fuzz runs every native fuzz target for 10s of generated inputs (go
# test -fuzz takes one target per invocation, so each has its own line;
# add new targets here). Their seed corpora already run in `make test`.
fuzz: build
	$(GO) test -run '^$$' -fuzz '^FuzzCkptRoundTrip$$' -fuzztime 10s ./internal/ckpt
	$(GO) test -run '^$$' -fuzz '^FuzzProfileByName$$' -fuzztime 10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s ./internal/policy
	$(GO) test -run '^$$' -fuzz '^FuzzParseShadowSpecs$$' -fuzztime 10s ./internal/policy
	$(GO) test -run '^$$' -fuzz '^FuzzParseWithEvents$$' -fuzztime 10s ./internal/tenantfile

# smoke: one figure through the full parallel path — CSV + manifest out,
# and the manifest must report zero failed jobs.
smoke: build
	rm -rf $(TMP)/smoke && mkdir -p $(TMP)/smoke
	$(GO) run ./cmd/experiments -fig 3 -jobs $(JOBS) -csv $(TMP)/smoke -json $(TMP)/smoke
	grep -q '"failures": 0' $(TMP)/smoke/manifest.json
	@echo "smoke OK: $(TMP)/smoke/manifest.json"

# chaos-smoke: the stability-under-faults experiment under the race
# detector, at 1 worker vs $(JOBS) workers. Fault schedules derive from
# the manifest seed (never from scheduling), so the two CSVs must be
# byte-identical — and the run doubles as the "hardened daemon survives
# the default fault profile" gate (a failed job fails the make).
chaos-smoke: build
	rm -rf $(TMP)/chaos1 $(TMP)/chaosN && mkdir -p $(TMP)/chaos1 $(TMP)/chaosN
	$(GO) run -race ./cmd/experiments -chaos default -jobs 1 -csv $(TMP)/chaos1 -json $(TMP)/chaos1 > /dev/null
	$(GO) run -race ./cmd/experiments -chaos default -jobs $(JOBS) -csv $(TMP)/chaosN -json $(TMP)/chaosN > /dev/null
	cmp $(TMP)/chaos1/chaos.csv $(TMP)/chaosN/chaos.csv
	grep -q '"failures": 0' $(TMP)/chaosN/manifest.json
	@echo "chaos-smoke OK: jobs=1 == jobs=$(JOBS) under -race"

# bench: the micro-benchmark suite (cache access, NIC poll, daemon
# iteration, policy decision, platform step, fleet round) via `go test
# -bench`, converted to JSON at results/bench.json by cmd/benchjson.
BENCHES ?= LLCAccess|HierarchyAccess|NICPollRx|DaemonTick|PolicyDecide|Table2DaemonIteration|Table1PlatformStep|FleetRound
bench: build
	mkdir -p $(TMP) results
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem . > $(TMP)/bench.txt
	$(GO) run ./cmd/benchjson -in $(TMP)/bench.txt -out results/bench.json
	@echo "bench OK: results/bench.json"

# bench-baseline re-records results/bench-baseline.json, the committed
# reference bench-diff gates against: $(BENCH_COUNT) suite runs,
# collapsed best-of-N per benchmark (the fastest run is the one least
# disturbed by the host). Regenerate (and commit) after an intentional
# performance change, or when the reference hardware class changes —
# ns/op is only comparable against a baseline from the same machine
# class.
BENCH_COUNT ?= 3
bench-baseline: build
	mkdir -p $(TMP) results
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count $(BENCH_COUNT) . > $(TMP)/bench-baseline.txt
	$(GO) run ./cmd/benchjson -best -in $(TMP)/bench-baseline.txt -out results/bench-baseline.json
	@echo "bench-baseline OK: results/bench-baseline.json"

# bench-diff is the regression gate (run by CI): re-run the suite
# $(BENCH_COUNT) times, then fail on any benchmark whose best run got
# >$(BENCH_TOLERANCE)% slower in ns/op or regressed in allocs/op vs
# results/bench-baseline.json. A zero-alloc baseline gates exactly (the
# hot loops' 0 allocs/op is a property, not a timing); an allocating
# baseline gets 1% slack for b.N-dependent amortization flap.
BENCH_TOLERANCE ?= 15
bench-diff: build
	mkdir -p $(TMP)
	$(GO) test -run '^$$' -bench '$(BENCHES)' -benchmem -count $(BENCH_COUNT) . > $(TMP)/bench-head.txt
	$(GO) run ./cmd/benchjson -best -in $(TMP)/bench-head.txt -out $(TMP)/bench-head.json
	$(GO) run ./cmd/benchjson -diff -tolerance $(BENCH_TOLERANCE) results/bench-baseline.json $(TMP)/bench-head.json

# determinism: -all at 1 worker vs 8 workers must emit byte-identical CSV
# rows. fig15.csv is excluded: it measures host wall-clock time (the
# daemon's real per-iteration cost) and is nondeterministic even between
# two sequential runs — see results/README.md.
determinism: build
	rm -rf $(TMP)/det1 $(TMP)/det8 && mkdir -p $(TMP)/det1 $(TMP)/det8
	$(GO) run ./cmd/experiments -all -jobs 1 -csv $(TMP)/det1 -json $(TMP)/det1 > /dev/null
	$(GO) run ./cmd/experiments -all -jobs 8 -csv $(TMP)/det8 -json $(TMP)/det8 > /dev/null
	@fail=0; for f in $(TMP)/det1/*.csv; do \
		b=$$(basename $$f); \
		[ "$$b" = "fig15.csv" ] && continue; \
		cmp -s $$f $(TMP)/det8/$$b || { echo "DIVERGED: $$b"; fail=1; }; \
	done; \
	[ $$fail -eq 0 ] && echo "determinism OK: jobs=1 == jobs=8 (fig15 excluded: wall-clock)" || exit 1

# scaling: record -all wall-clock at jobs=1 vs jobs=$(JOBS) into
# results/harness-scaling.csv.
scaling: build
	rm -rf $(TMP)/scale && mkdir -p $(TMP)/scale
	@[ -f results/harness-scaling.csv ] || echo "date,host_cores,jobs,wall_s" > results/harness-scaling.csv
	@for j in 1 $(JOBS); do \
		t0=$$(date +%s.%N); \
		$(GO) run ./cmd/experiments -all -jobs $$j > /dev/null 2> /dev/null; \
		t1=$$(date +%s.%N); \
		echo "$$(date -u +%F),$$(nproc),$$j,$$(echo "$$t1 $$t0" | awk '{printf "%.1f", $$1-$$2}')" >> results/harness-scaling.csv; \
	done
	@tail -3 results/harness-scaling.csv

clean:
	rm -rf $(TMP)
