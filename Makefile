# Developer entry points. `make check` is the tier-1 gate used by CI and
# by ROADMAP.md, and fails on any file gofmt would change or on the
# benchmark module's vet and unit tests; `make race`
# covers the packages with real concurrency (the public vp.Cluster and
# the in-process cluster builder, the TCP transport, the nemesis fault
# injector, the parallel experiment harness, the client gateway, the
# journal's committer, the shard router, the commit path's barrier
# and recovery tests and vpnode's boot over a committing journal);
# `make chaos` is the seeded fault-injection gate and `make
# bench-stack-smoke` drives the deployed stack (benchmark/).

GO ?= go

.PHONY: check build vet test race bench bench-wire bench-hotpath bench-observability bench-durable trace-check chaos bench-stack-smoke bench-stack bench-pairs stress golden campaign-smoke campaign recovery-check shard-check

check: build vet test
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 . ./internal/cluster/... ./internal/net/... ./internal/nemesis/... ./internal/bench/... ./internal/gateway/... ./internal/locks/... ./internal/store/... ./internal/durable/... ./internal/campaign/... ./internal/trace/... ./internal/node/... ./internal/core/... ./internal/shard/... ./cmd/vpcampaign/... ./cmd/vpnode/...

# Repeat the packages whose tests cross goroutines on the request path —
# the journal's committer releasing barriers into handler turns, the
# transport's readers, timers and peer loops, the gateway's lanes, the
# shard router, view formation over real sockets — to catch an ordering
# that only sometimes goes wrong. Used by CI.
stress:
	$(GO) test -count=20 ./internal/durable/ ./internal/node/ ./internal/net/ ./internal/gateway/ ./internal/shard/ ./internal/core/

# Run every benchmark in the repository.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Smoke-run the wire/transport microbenchmarks: -benchtime=100x keeps it
# to seconds, there are no thresholds — the point is that every bench
# still compiles and runs, with the output kept as a CI artifact.
# TCPRoundTrip (two TCPNodes, one message there and one back, warm) is
# the hop cost next to the end-to-end numbers of benchmark/.
BENCH_WIRE_OUT ?= bench-wire.txt
bench-wire:
	( $(GO) test -run '^$$' -bench 'WireRoundTrip' -benchmem -benchtime=100x -count=1 ./internal/wire ; \
	  $(GO) test -run '^$$' -bench 'TCPRoundTrip' -benchmem -benchtime=2000x -count=1 ./internal/net ) \
		| tee $(BENCH_WIRE_OUT)

# Regenerate BENCH_hotpath.json from the hot-path microbenchmarks (see
# EXPERIMENTS.md for the format). Benchmarks run sequentially so numbers
# are not skewed by each other. benchjson refuses to overwrite numbers
# recorded on different hardware; pass BENCHJSON_FLAGS=-force after an
# intentional host change. Formation is a fresh three-processor boot on
# the simulator, run until all three have joined one view, at 1k, 8k and
# 32k objects. SimCell is one sim cell of specs/chaos.json end to end,
# per nemesis profile, with the simulator's events/s and cells/s.
bench-hotpath:
	$(GO) test -run '^$$' -bench 'EngineSchedule|EngineCancel|WireRoundTrip|RunnerGrid|Formation|SimCell' \
		-benchmem -count=1 ./internal/sim ./internal/wire ./internal/bench ./internal/core ./internal/campaign \
		| $(GO) run ./cmd/benchjson -out BENCH_hotpath.json $(BENCHJSON_FLAGS)
	@cat BENCH_hotpath.json

# Capture the structured event trace of the deterministic seed-1
# scenario and replay the paper's invariants over it: S1–S3 (view
# consistency, reflexivity, serializable VP creation) and the access
# rules R2/R3. vptrace exits non-zero on any violation, failing the
# target. Used by CI.
TRACE_FILE ?= /tmp/vp_seed1_trace.jsonl
trace-check:
	$(GO) run ./cmd/vpsim -quiet -seed 1 -trace-out $(TRACE_FILE)
	$(GO) run ./cmd/vptrace check $(TRACE_FILE)
	$(GO) run ./cmd/vptrace latency $(TRACE_FILE)

# Seeded chaos campaign (specs/chaos.json): 5-node clusters on the sim
# and in-process TCP backends under the mixed, partitions, crashes and
# kill9 nemesis profiles. In-process crashes stop the node and restart it
# from its file journal; kill9 kills it under a failing disk (fsync
# failures, a torn write, a frozen disk, the unsynced tail lost). At the
# default seed the in-process cells inject 3 partition-type episodes, 3
# crash/restarts and 2 kill -9s. Every cell is gated on 1SR, S1–S3/R2/R3
# trace replay, progress and post-heal liveness; vpcampaign exits
# non-zero on any failure. Used by CI; a failing run reproduces from the
# same CHAOS_SEED.
CHAOS_SEED ?= 7
chaos:
	$(GO) run ./cmd/vpcampaign -spec specs/chaos.json -seed $(CHAOS_SEED)

# Crash-recovery gate: the every-byte-offset truncation property test,
# the disk-fault suite (the crash model included: a kill -9 loses only
# bytes no fsync covered), the max-id barrier regression and the
# coordinator killed at every point of its commit path (and restarted
# into a vote record it collects again) under the race detector, then
# the chaos campaign at seed 1 and at CHAOS_SEED, whose kill9 cells
# restart from journals a failing disk left behind. Used by CI.
recovery-check:
	$(GO) test -race -count=1 -run 'EveryOffsetTruncation|Snapshot|Torn|DiskFaults|DeltaRejoin|MaxIDNeverLeaves|CoordinatorKilled|VoteRecordIsCollectedAgain' \
		./internal/durable ./internal/nemesis ./internal/core ./internal/node ./internal/shard
	$(GO) run ./cmd/vpcampaign -spec specs/chaos.json -seed 1
	$(GO) run ./cmd/vpcampaign -spec specs/chaos.json -seed $(CHAOS_SEED)

# Deployed-stack harness (benchmark/README.md): separate vpnode and
# vpgateway processes with real journals on loopback, four named
# workloads, outputs verified. The smoke run proves the plumbing in well
# under a minute and is used by CI; the full run takes a few minutes and
# prints the end-to-end metrics and the per-layer table of every
# workload. Both leave benchmark/out/results.json.
bench-stack-smoke:
	bash benchmark/run.sh -smoke

bench-stack:
	bash benchmark/run.sh

# Before/after protocol for a claimed gain: N alternating pairs of
# harness runs of workload W, the committed revision BASE against the
# working tree, a fresh seed per pair; prints each side's median and
# quartiles and the pairs the working tree won, per end-to-end metric.
# ~1.5 min per pair. `make bench-pairs W=write_n3 BASE=HEAD~1 N=12`
W ?= write_n3
BASE ?= HEAD
N ?= 12
bench-pairs:
	$(GO) run ./cmd/benchpairs -w $(W) -base $(BASE) -n $(N)

# Shard subsystem gate: shard-map determinism, per-shard view isolation,
# cross-shard 2PC atomicity (incl. coordinator crash mid-decide), the
# gateway's per-shard conveyor lanes, sharded processors over TCP (a
# cross-shard transfer; a restart from a file journal, run beside its
# unsharded twin) and the shard campaign matrix — a
# 5-node cluster with 4 shards must keep committing on 3 shards while
# the nemesis partitions the 4th shard's majority, gated on 1SR,
# S1–S3/R2/R3 replay, shard isolation and post-heal liveness. Unit and
# integration tests run under the race detector. Used by CI.
shard-check:
	$(GO) test -race -count=1 ./internal/shard/...
	$(GO) test -race -count=1 -run 'TestShard|TestStopAndBoot' ./internal/gateway ./internal/campaign ./internal/cluster
	$(GO) run ./cmd/vpcampaign -spec specs/campaign-shard.json

# Regenerate BENCH_durable.json: journal recovery time (newest snapshot
# + segment-tail replay) and R5 catch-up cost at 1e3→1e5 objects, delta
# vs full copy. B/op on the catch-up benches is the payload shipped to
# the rejoiner — the §6 claim is that it scales with the missed writes,
# not the database. benchjson refuses a cross-host overwrite; pass
# BENCHJSON_FLAGS=-force after an intentional host change.
bench-durable:
	$(GO) test -run '^$$' -bench 'Recovery|CatchupDelta|CatchupFullCopy' \
		-benchmem -count=1 ./internal/durable \
		| $(GO) run ./cmd/benchjson -out BENCH_durable.json $(BENCHJSON_FLAGS)
	@cat BENCH_durable.json

# Regenerate BENCH_observability.json from the tracing hot-path
# microbenchmarks: ring-recorder writes (enabled vs disabled vs nil
# recorder) and wire context propagation (traced vs sampled-out vs
# disabled, covering the zero-alloc disabled-path guarantee).
bench-observability:
	$(GO) test -run '^$$' -bench 'TraceRecord|CtxPropagation' -benchmem -count=1 \
		./internal/trace ./internal/wire \
		| $(GO) run ./cmd/benchjson > BENCH_observability.json
	@cat BENCH_observability.json

# Campaign smoke gate: expand the 4-cell sim matrix in
# specs/campaign-smoke.json, run every cell through the campaign engine
# (warm-up → ramp → steady → fault → heal, gated on 1SR, S1–S3/R2/R3
# replay and post-heal liveness), and append the results to the
# host-baseline-stamped BENCH_trajectory.json. Any failing cell exits
# non-zero, failing the target. Used by CI with CAMPAIGN_FLAGS=-force
# (the checked-in trajectory was recorded on a different host; CI
# regenerates it and uploads the artifact instead of appending).
campaign-smoke:
	$(GO) run ./cmd/vpcampaign -spec specs/campaign-smoke.json -parallel 4 \
		-out BENCH_trajectory.json $(CAMPAIGN_FLAGS)
	@cat BENCH_trajectory.json

# Wider pre-merge matrix: 16 cells across the sim and in-process
# backends (adds zipf skew; in-process crashes restart from the journal).
# A few tens of seconds.
campaign:
	$(GO) run ./cmd/vpcampaign -spec specs/campaign-default.json -parallel 4 -v

# Regenerate the golden seed-1 output of all 16 experiments after an
# intentional output change (see internal/bench/golden_test.go).
golden:
	$(GO) run ./cmd/vpbench -exp e1,e2,e12 -seed 1 -markdown \
		> internal/bench/testdata/golden_seed1.md
	$(GO) run ./cmd/vpbench -exp e3,e4,e5,e6,e7,e8,e9,e10,e11,e13,e14,e15,e16 -seed 1 -markdown \
		> internal/bench/testdata/golden_seed1_e3_e16.md
