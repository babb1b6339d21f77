GO ?= go

.PHONY: all build test short race vet fmt flake fuzz bench bench-hot bench-e2e profile figures test-crash test-obs test-replication loc

all: build test

build:
	$(GO) build ./...

# internal/bench is a nested module (the end-to-end benchmark compiles
# against the root package's exported surface), so ./... does not reach it;
# vetting and testing it here is what catches a root API rename.
test: fmt test-replication
	$(GO) test ./...
	cd internal/bench && $(GO) vet ./... && $(GO) test ./...

short:
	$(GO) test -short ./...

# Race lane: the serving path (engine + HTTP server + telemetry registry)
# and the router's concurrent shard fan-out must stay safe under concurrent
# queries, ingests and scrapes. Vet runs first
# so the race build never chases bugs vet would have named.
race:
	$(GO) vet ./...
	cd internal/bench && $(GO) vet ./...
	$(GO) test -race ./...

# Vets the nested harness module too: a root API change that breaks the
# frozen harness fails here rather than only in `make test`.
vet:
	$(GO) vet ./...
	cd internal/bench && $(GO) vet ./...

# Durability lane: crash-inject every filesystem step of Save (a seal, and
# a save replacing another store's checkpoint), segment seal and
# compaction, corrupt every committed segment-store artifact, refuse older
# formats, round-trip Save + Load (one store, the WAL replayed once, no
# bytes copied by a repeated Save, the gc), replay the WAL after simulated
# crashes, race checkpoints against live ingest, burst client cancellations
# at the sharded tier's breakers, and drive the segment store's lifecycle
# (durable reopen through either Save receiver, one engine behind every read
# path, use after Close, searches racing seals, compaction and checkpoints)
# — all under -race. The WAL and segment packages' own tests (torn tails,
# segment rotation, record framing, the segment corruption matrix) ride
# along.
test-crash:
	$(GO) test -race -count=1 \
		-run 'CrashInjection|Corruption|WALRecovery|WALReplay|WALTornTail|RestartReplaysWALOnce|SaveLoad|RepeatedSave|SaveToUnwritable|LoadMissing|LoadVersionMismatch|LoadRefuses|SnapshotStoresEachRowOnce|SnapshotGCSegmentAware|SaveRacesIngest|BreakerIgnoresClientCancellation|SegmentedDurableReopen|SegmentedFreshKeywordVisible|SegmentedUseAfterClose|SegmentedConcurrentLifecycle' .
	$(GO) test -race -count=1 ./internal/wal/ ./internal/fsx/... ./internal/segment/

# Replication lane: the replica-group machinery under -race — WAL-shipped
# followers, lease-based failover and epoch fencing, the lag surfacing
# contract, the WAL tail-follow reader the shippers are built on, the
# visibility rule on every ingesting arrangement (an acknowledged post is a
# candidate on the leader and on a follower after failover), and the
# router/breaker/admission correctness fixes that ride the same PR (hedge
# suppression on non-retryable errors, half-open single probe, queue-slot
# release on client cancellation). Part of the default `make test`.
test-replication:
	$(GO) test -race -count=1 \
		-run 'TestReplicated|TestLease|TestBreaker|TestAdmission|TestShardedNonRetryableErrorSkipsHedge|TestSearcherCancellationContract|TestAcknowledgedPostIsCandidate' .
	$(GO) test -race -count=1 -run 'TestTail' ./internal/wal/

# Observability lane: the tracing substrate (span trees, tail sampling,
# ring store, the zero-allocation disabled path) and the server's traced
# serving surface (the in-process sharded tier's span tree, /debug/traces,
# trace-correlated logs, readiness) under -race, since spans finish on
# hedge and straggler goroutines concurrently with the gather path.
test-obs:
	$(GO) test -race -count=1 ./internal/telemetry/ ./internal/server/

# Formatting gate (part of `make test`): fails, naming the files, when gofmt
# would change any Go file outside the benchmark's build directory.
fmt:
	@out="$$(find . -name '*.go' ! -path './.bench_build/*' -exec gofmt -l {} +)"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The size every simplicity PR reports: lines of non-test Go outside
# internal/bench (the frozen benchmark harness, its own module), with the two
# packages those PRs mostly touch broken out.
loc:
	@count() { cat "$$@" | wc -l; }; \
	printf '%-34s %6d\n' \
		'non-test Go outside internal/bench' "$$(count $$(find . -name '*.go' ! -name '*_test.go' ! -path './internal/bench/*' ! -path './.bench_build/*'))" \
		'  internal/core' "$$(count $$(ls internal/core/*.go | grep -v _test.go))" \
		'  root package' "$$(count $$(ls *.go | grep -v _test.go))"

# Flake lane: the timing-sensitive admission, breaker and lease tests, the
# segment store's lifecycle tests (searches racing seals, compaction and
# checkpoints) and the ingest/read coherence tests (a search after an
# acknowledged ingest answers as a fresh build would), plus the engine and
# bounds packages — every search's φ batch takes Bounds.mu against the
# concurrent AddReply that counts an ingested reply — and the storage
# packages a query's row batch reads under their own locks while ingest
# appends and seals swap the partition set, twenty times under -race.
# Required green.
flake:
	$(GO) test -race -count=20 \
		-run 'TestAdmission|TestBreaker|TestLease|TestSegmentedDurableReopen|TestSegmentedFreshKeywordVisible|TestSegmentedUseAfterClose|TestSegmentedConcurrentLifecycle|TestConcurrentSearchAndIngest|TestIngestRecomputesThreadPopularity' .
	$(GO) test -race -count=20 ./internal/core/ ./internal/thread/ ./internal/segment/ ./internal/metadb/

# Fuzz lane: every Fuzz* target in the module (hostile segment images,
# postings payloads and keys, geohash cells, circle covers against points
# the spherical destination formula draws, stemming and tokenising, shard
# partials at the router) fuzzed for 10 s each; the targets are found by
# name, so a new one joins without an edit here. Stops at the first failure,
# whose input `go test` saves under the package's testdata/fuzz.
fuzz:
	@for pkg in $$(grep -rl '^func Fuzz' --include='*_test.go' . | grep -v '^./internal/bench/' | xargs -n1 dirname | sort -u); do \
		for target in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$pkg/*_test.go | sed 's/^func //'); do \
			echo "== $$target ($$pkg)"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime 10s $$pkg || exit 1; \
		done; \
	done

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerates experiments_output.txt, every paper figure and table at full
# scale (~20 s). Count cells are deterministic (TestFigureCountsGolden pins
# them at small scale); duration cells vary between runs, as the file's
# first line says. A change that moves a count reruns this.
FIGURES_FLAGS = -posts 40000 -users 3000 -queries 30
figures:
	@{ echo '# Generated by `make figures` (go run ./cmd/tklus-bench $(FIGURES_FLAGS)); do not edit. Duration cells vary between runs.'; \
		$(GO) run ./cmd/tklus-bench $(FIGURES_FLAGS); } > experiments_output.txt.tmp \
		&& mv experiments_output.txt.tmp experiments_output.txt \
		|| { rm -f experiments_output.txt.tmp; exit 1; }

# The hot-path lane: the per-stage micro-benchmarks of the gather → rank
# kernel (postings merge, row batch, radius check, φ batch, |P_u| batch,
# per-candidate scores and top-k) and of the router's partials merge at fan-out 1, 2 and 4,
# five runs each with allocations — the numbers CHANGES.md quotes beside an
# end-to-end result, in one command.
bench-hot:
	$(GO) test -run '^$$' -bench 'BenchmarkGatherFilter|BenchmarkUnionPostings|BenchmarkRankFromPhi|BenchmarkMergePartials' -benchmem -count 5 ./internal/core/
	$(GO) test -run '^$$' -bench 'BenchmarkPhiLookup' -benchmem -count 5 ./internal/thread/
	$(GO) test -run '^$$' -bench 'BenchmarkHaversine' -benchmem -count 5 ./internal/geo/
	$(GO) test -run '^$$' -bench 'BenchmarkSegmentRowBatch' -benchmem -count 5 ./internal/segment/
	$(GO) test -run '^$$' -bench 'BenchmarkPostCounts' -benchmem -count 5 ./internal/metadb/

# Where a city-sum search spends its CPU: BenchmarkCitySumQuerySet (the
# bench-scale corpus on a segment store, the city-sum query set through
# System.Search, no HTTP) under -cpuprofile, then the profile's top entries.
# The profile and test binary go to PROFILE_DIR.
PROFILE_DIR ?= .profile
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench '^BenchmarkCitySumQuerySet$$' -benchtime 20000x \
		-cpuprofile $(PROFILE_DIR)/city-sum.cpu -o $(PROFILE_DIR)/tklus.test .
	$(GO) tool pprof -top -nodecount 40 $(PROFILE_DIR)/tklus.test $(PROFILE_DIR)/city-sum.cpu

# The one serving-path benchmark: HTTP in, JSON out, four workloads,
# per-layer breakdown, run the way BENCHMARK.json's driver runs it (see
# internal/bench/README.md; compare two -out reports with
# tklus-e2ebench -compare).
bench-e2e:
	bash internal/bench/run.sh --workload all --seed 1 --seconds 15
