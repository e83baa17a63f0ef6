# `make ci` is the gate: tier-1 verification, static checks, the race pass,
# the one end-to-end reproduction and a fixed fuzzing budget. `make bench` runs the repository benchmark
# (BENCHMARK.json, perf/README.md), the only place host time is measured;
# `make pairs` runs it as alternating parent/change pairs.
GO ?= go

.PHONY: all build vet test race e2e bench pairs stat ci

all: ci

build:
	$(GO) build ./...

# perf/ is its own module, which ./... from the root does not reach: vet it
# too, so a signature it compiles against cannot break unnoticed until `test`.
# Any file gofmt would rewrite fails the target (perf/ belongs to the
# benchmark and is not checked here).
vet:
	$(GO) vet ./...
	$(GO) vet -C perf ./...
	@out=$$(gofmt -l cmd internal examples *.go); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...
	$(GO) test -C perf ./...

# The packages with real goroutine concurrency — the experiment runner
# (worker pool, shared progress state, cache writes), the kb store, the
# sharded PDES engine and everything that executes on it (sim windows, the
# sharded netmodel views and mpi world) — run under the race detector, then
# the bench layer's noisy sweeps with the "congested" chaos profile attached,
# and speculation, whose candidate pool runs on GOMAXPROCS workers by default.
# A -race build also turns on checkptr, which checks every real-payload
# mpi.Buf that Data rebuilds with unsafe.Slice: the fft kernel and bench's
# data-mode tests move real bytes through every collective. The race
# runtime keeps what a test's goroutines used (one per simulated rank), so
# internal/nbc runs in three processes that partition its tests by name: the
# 4096-rank TestScaleConformance* worlds, the TestConformance* grids, and the
# rest. In one process the package passed 5.5 GB; split three ways, the
# processes peak at 3.3, 2.9 and 1.1 GB.
race:
	$(GO) test -race ./internal/runner ./internal/sim/... ./internal/mpi/... ./internal/chaos/... ./internal/kb ./internal/netmodel ./internal/fft
	$(GO) test -race -run '^TestScaleConformance' ./internal/nbc/...
	$(GO) test -race -run '^TestConformance' ./internal/nbc/...
	$(GO) test -race -skip '^(TestScaleConformance|TestConformance)' ./internal/nbc/...
	$(GO) test -race -count 1 -run 'TestChaos|Speculat|DataMode' ./internal/bench
	$(GO) test -race -count 1 -run Speculat ./internal/core

# The one committed run too slow for tier-1: sweep -suite figs-fft -fast
# (~60 s on two cores) must reproduce results/fftbench.txt (Figs 9-12) and
# its rows, results/fftbench.json. Every other file under results/ that
# regenerates in under 10 s is a row of the root package's
# TestCommittedResults, which also names the ones it leaves out. The binary
# and the rows go to a scratch directory that the trap removes on every exit
# path.
e2e:
	@set -eu; d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -o "$$d/" ./cmd/sweep; \
	"$$d/sweep" -suite figs-fft -fast -quiet -out "$$d/fftbench.json" | cmp - results/fftbench.txt; \
	cmp "$$d/fftbench.json" results/fftbench.json; \
	echo "e2e: sweep -suite figs-fft -fast reproduces results/fftbench.txt and results/fftbench.json (Figs 9-12)"

# One run of each BENCHMARK.json workload; the last line of each is the JSON
# result. Add --trace 1 by hand for the per-layer metrics of one workload.
WORKLOADS = sweep-verify fft-app scale-4k wide-alltoall kb-mixed
bench:
	@set -e; for w in $(WORKLOADS); do bash perf/run.sh --workload $$w --seed 0 --seconds 16 --trace 0; done

# perf/README.md "Claiming a gain", steps 3-4, as one command:
#   make pairs PARENT=<rev> W="<workload> [<workload> ...]" [N=10] [SEED=0]
# PARENT is checked out (git archive: nothing is registered under .git, so
# there is nothing to prune) into a scratch directory that the trap removes on
# every exit path, and both trees build their benchmark once through their own
# perf/run.sh (a tiny run of every workload in W, which also shows a broken
# tree or workload before the first pair). Then, workload by workload, N pairs
# run alternately — parent first, then change first, … — with identical flags.
# One line per run; after each workload's pairs, each side's quartiles of the
# four end-to-end metrics and, per metric, the pairs the change won (ties
# count for neither side). The claim itself is the reader's: >= 9 of 10 pairs
# and medians apart by more than the parent's q3 - q1.
N ?= 10
SEED ?= 0
pairs:
	@set -eu; [ -n "$(PARENT)" ] && [ -n "$(W)" ] || { echo "usage: make pairs PARENT=<rev> W=\"<workload> ...\" [N=10] [SEED=0]" >&2; exit 2; }; \
	d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; mkdir "$$d/parent"; \
	git archive "$(PARENT)" | tar -x -C "$$d/parent"; \
	for tree in "$$d/parent" .; do for w in $(W); do bash "$$tree/perf/run.sh" --workload $$w --scale tiny --seconds 1 > /dev/null; done; done; \
	run() { \
		out=$$(cd "$$2" && .bench_build/perf --workload $$w --seed $(SEED) --seconds 16 --trace 0 | tail -n 1); \
		case "$$out" in *'"correct":true'*'"failed":0'*) ;; *) echo "pairs: $$w $$1 run failed: $$out" >&2; exit 1;; esac; \
		line="$$i $$1"; for m in setup_s norm_ops_per_s alloc_mb peak_rss_mb; do \
			line="$$line $$(printf '%s' "$$out" | sed -E 's/.*"'$$m'":\{"value":([^,}]*).*/\1/')"; done; \
		echo "$$line" | tee -a "$$d/runs.$$w"; \
	}; \
	for w in $(W); do \
	echo "pair side setup_s norm_ops_per_s alloc_mb peak_rss_mb   ($$w, seed $(SEED), parent $(PARENT))"; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then run parent "$$d/parent"; run change .; else run change .; run parent "$$d/parent"; fi; \
		i=$$((i + 1)); done; \
	awk 'function q(a, n, p,   x, k) { x = (n - 1) * p; k = int(x); return k + 1 < n ? a[k+1] + (x - k) * (a[k+2] - a[k+1]) : a[n] } \
		function sorted(side, c, out,   i, j, t) { for (i = 1; i <= pairs; i++) out[i] = v[i, side, c]; \
			for (i = 2; i <= pairs; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j+1] = out[j]; out[j+1] = t } } \
		{ pairs = $$1; for (c = 3; c <= 6; c++) v[$$1, $$2, c] = $$c } \
		END { split("setup_s norm_ops_per_s alloc_mb peak_rss_mb", name, " "); \
			printf "%-15s %-32s %-32s %s\n", "metric", "parent q1 / median / q3", "change q1 / median / q3", "change wins"; \
			for (c = 3; c <= 6; c++) { wins = 0; for (i = 1; i <= pairs; i++) { a = v[i, "parent", c]; b = v[i, "change", c]; \
					if (c == 4 ? b > a : b < a) wins++ }; \
				sorted("parent", c, P); sorted("change", c, C); \
				printf "%-15s %-32s %-32s %d/%d\n", name[c-2], sprintf("%.4g / %.4g / %.4g", q(P, pairs, .25), q(P, pairs, .5), q(P, pairs, .75)), \
					sprintf("%.4g / %.4g / %.4g", q(C, pairs, .25), q(C, pairs, .5), q(C, pairs, .75)), wins, pairs } }' "$$d/runs.$$w"; \
	done

# The size of the repository in the numbers ROADMAP's state line and every
# simplicity PR quote, each printed under the command that counts it. The
# seventh is ROADMAP item 1's measure, the non-test lines of the three engine
# layers; the last is DESIGN.md's length, which ROADMAP item 14 holds under
# 600 lines.
stat:
	find cmd internal examples -name '*.go' ! -name '*_test.go' | xargs cat | wc -l   # non-test lines
	find *.go cmd internal examples -name '*_test.go' | xargs cat | wc -l             # test lines ...
	cat *_test.go | wc -l                                                             # ... of which in the root package
	grep -rhoE 'fl(ag)?\.(Bool|Int|Int64|Uint|String|Float64|Duration|Var)\(' cmd | wc -l   # command-line flags
	grep -rn 'panic(' --include='*.go' cmd internal examples | grep -vc '_test\.go:'         # non-test panic( sites
	grep -rnE '(panic|Errorf)\(.*(not supported|do not support|does not support|applies to the)' --include='*.go' cmd internal | grep -vc '_test\.go:'   # non-test refusal sites (panics and errors, not comments)
	find internal/sim internal/netmodel internal/mpi -name '*.go' ! -name '*_test.go' | xargs cat | wc -l   # non-test lines in sim, netmodel and mpi
	ls -d cmd/*/ | wc -l                                                              # binaries
	wc -l < DESIGN.md                                                                 # lines of DESIGN.md

# Last, the gate runs its four fuzz targets for a fixed budget each: the
# simulator's three oracles — run-ahead against the eager reading
# (internal/sim/runahead_test.go), the event queue against a sorted reference
# (queue_test.go) and the message matcher against the linear reference
# (internal/mpi/match_test.go) — and the -history file loader against its own
# Flush/Open round trip (internal/kb/kb_test.go); their committed corpora
# already ran as plain tests in `test`. A failure leaves its
# minimised input under internal/<pkg>/testdata/fuzz/<target>/: commit it with
# the fix, so it stays in the corpus. (Minimising inputs that merely add coverage is
# capped, or it eats most of the ten seconds.) Before them, the one-shot world
# benchmark (bench_test.go, the target of `go test -cpuprofile|-memprofile`)
# runs each of its worlds once, and the event-heap benchmark
# (internal/sim/perf_test.go) each of its queue depths, so neither can rot.
ci: build vet test race e2e
	$(GO) test -run '^$$' -bench OneShotWorld -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench EventQueue -benchtime 1x ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzRunAhead -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s -fuzzminimizetime 1s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzMatch -fuzztime 10s -fuzzminimizetime 1s ./internal/mpi
	$(GO) test -run '^$$' -fuzz FuzzHistoryFile -fuzztime 10s -fuzzminimizetime 1s ./internal/kb
