# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: check build test race flake fmt vet staticcheck bench benchmark bench-store bench-obs bench-wal fuzz-regress race-recovery fuzz chaos

# The full gate: what CI (and every PR) must pass. `fmt` fails on any
# file `gofmt -l` lists; `race` runs the whole suite (including the
# recovery and crash-point tests) under the race detector; flake
# repeats the concurrent ADT tests and the channel-stepped
# commit-pipeline tests; fuzz-regress replays the checked-in fuzz seed
# corpus in regression mode (no fuzzing engine, just the corpus).
check: fmt vet staticcheck build race flake fuzz-regress

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# staticcheck when the binary is on PATH (CI installs it; locally it is
# optional so `make check` works on a bare toolchain).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The harness package replays every experiment's quick sweep under the
# race detector, which sits near go test's default 10-minute package
# timeout on slower machines; raise it rather than trim coverage.
# `go test -race ./internal/harness` alone, on a 2-vCPU guest: 471 s and
# 540 s with E1–E9 and the chaos sweep registered, 419 s with E1–E6.
race:
	$(GO) test -race -timeout 25m ./...

# The ADT suite twenty times under the race detector: methods declared
# commuting must never deadlock on their leaf accesses (the concurrent
# tests assert Deadlocks == 0), and one run in two used to. Then the
# deterministic channel-stepped tests forty times: outcomes observable
# at submission and acknowledged when durable, a holder's re-request
# granted past the request queued on it, and the decision events and
# wait accounting of a conflict, a deadlock victim and a request whose
# root is aborted while it is queued (core); recovery of dependent
# losers at every crash cut (wal). They step real goroutines
# through channels, so a schedule-dependent failure would show here and
# nowhere else. With them the journal's Close and Sync racing appends in
# every durability mode (wal): free-running, so forty repeats are their
# coverage of the sendMu/closed interleavings. Last the workload test
# that failed one run in two before the FCFS conversion rule: its
# clients run free, so it is the rule's coverage under real schedules;
# and the two-node commit stepped through one gated journal per node
# (dist): every awaited record outstanding at once, none handed out for
# an unforced one. Then the paper's Fig. 4 run concurrently, which
# deadlocked about one run in forty while ChangeStatus read and wrote
# its status atom (orderentry, serial), and the wait accounting of a
# request granted past a holder whose root already finished (core).
flake:
	$(GO) test -race -count=20 ./adts
	$(GO) test -race -count=40 -run 'TestOutcomeObservableAtSubmitAckedWhenDurable|TestFCFSConversionRule|TestConflictEvents|TestWaitChargedOnEveryExit' ./internal/core
	$(GO) test -race -count=40 -run 'TestCommitWaitsForTheDeviceOnce' ./internal/dist
	$(GO) test -race -count=40 -short -run 'TestRecoveryDependentLoser|Test(AppendsRacingClose|SyncOnClosedCoversInlineAppends)' ./internal/wal
	$(GO) test -race -count=40 -run 'TestClientErrorsAggregated' ./internal/workload
	$(GO) test -race -count=40 -run 'TestFigure4ConcurrentExecution$$' ./internal/orderentry
	$(GO) test -race -count=40 -run 'TestTreeReducibleAcceptsFig4$$' ./internal/serial
	$(GO) test -race -count=40 -run 'TestWaitCountsOnlyKeptWaits$$' ./internal/core

# Focused, -short-gated race run of the journaling/recovery surface —
# the quick iteration loop when touching engine commit/abort paths or
# the WAL (the full `race` target covers the same tests exhaustively).
race-recovery:
	$(GO) test -race -short -run 'Journal|Recovery|Crash|Unmarshal|Analyze' ./internal/core ./internal/wal

# The deterministic chaos oracle (internal/chaos): a 500-action seeded
# sweep with concurrent open-nested roots, kill-and-recover events,
# WAL-mode rotation and serial-reference replay. A failure prints the
# seed; rerun with -chaos.seed=<seed> to reproduce it byte-for-byte.
chaos:
	$(GO) test ./internal/chaos -run TestChaosOracle -v -chaos.actions=500 -chaos.seed=42

# Replay the checked-in seed corpora (testdata/fuzz) without fuzzing:
# the record codec (FuzzUnmarshal) and the batch-frame decoder
# (FuzzUnmarshalDurable) plus their in-tree seed suites.
fuzz-regress:
	$(GO) test -run 'Fuzz|TestUnmarshalSeedCorpus|TestDurableSeedCorpus' ./internal/wal

# Actually fuzz for a short while (not part of check). One invocation
# per fuzz target: go test refuses a -fuzz pattern matching several.
fuzz:
	$(GO) test -run=NONE -fuzz='FuzzUnmarshal$$' -fuzztime=30s ./internal/wal
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalDurable -fuzztime=30s ./internal/wal

bench:
	$(GO) test -bench=. -benchmem ./...

# The repository's one benchmark (benchmark/README.md): the four
# BENCHMARK.json workloads, end-to-end metrics, 14 s measured each.
# The only basis for a performance claim.
benchmark:
	for w in std-direct hot-durable cluster-2pc read-scan; do \
		$(GO) run ./benchmark -workload $$w || exit 1; \
	done

# The physical-storage-path micro-benchmarks: the object store and the
# buffer pool at their default layout and at one shard / one partition
# (sub-benchmarks sharded|partitioned and global), plus the
# engine-level parallel method benchmark on the default layout.
# Meaningful at GOMAXPROCS >= 4; -cpu forces it on smaller machines.
# Then the single-threaded per-layer ones, benchstat-comparable across
# commits (ns/op, B/op, allocs/op): page insert and grow-on-a-full-page
# (storage), a lock granted and released on one head (core/locktable),
# one root invoking a two-leaf method (core through oodb), the record
# codec encoding and decoding a 77-record journal (wal: /encode, whose
# allocs/op is a flush's, and /decode, recovery's; both report
# B/record), the compatibility test of a dense matrix on one
# unconditional and one parameter-dependent pair (compat), two journal
# appends per durability mode over a free device (wal: sync, group,
# async), one whole two-node root per commit path over free-flush
# journals (dist: single, readonly2, update2), and one object resolved
# through the store's directory among 2^20 (objstore: ReadAtomic,
# TupleGet, SetSelect).
bench-store:
	$(GO) test -run=NONE -bench 'BenchmarkStoreParallel|BenchmarkPool(Fetch|Evict)Parallel' -benchmem -cpu 4 ./internal/objstore ./internal/storage
	$(GO) test -run=NONE -bench 'BenchmarkMethodInvocationParallel$$' -benchmem -cpu 4 .
	$(GO) test -run=NONE -bench 'BenchmarkPage(Insert|UpdateGrowFull)$$|BenchmarkTableWith$$|BenchmarkInvokeGetPut$$|BenchmarkJournalAppend$$|BenchmarkClusterCommit$$' -benchmem -cpu 1 ./internal/storage ./internal/core/locktable ./internal/oodb ./internal/wal ./internal/dist
	$(GO) test -run=NONE -bench 'BenchmarkRecordCodec/(encode|decode)$$' -benchmem -cpu 1 ./internal/wal
	$(GO) test -run=NONE -bench 'BenchmarkCompatible/' -benchmem -cpu 1 ./internal/compat
	$(GO) test -run=NONE -bench 'BenchmarkStoreLookup/(ReadAtomic|TupleGet|SetSelect)$$' -benchmem -cpu 1 ./internal/objstore

# The observability cost contract: the disjoint-atom transaction cycle
# with no Obs / disabled Obs / enabled Obs, plus the per-site
# disabled-gate micro-benchmarks. none vs disabled is the regression to
# watch; the disabled path must stay at a few ns/op with zero
# allocations.
bench-obs:
	$(GO) test -run=NONE -bench 'Overhead|DisabledSite' -benchmem -cpu 4 . ./internal/obs

# The commit-path durability comparison: the disjoint-object parallel
# method workload across journal modes (none / sync / group / async).
# Group commit's win over sync is a concurrency effect — run with
# -cpu >= 8.
bench-wal:
	$(GO) test -run=NONE -bench 'BenchmarkMethodInvocationParallelWAL' -benchmem -cpu 8 .
