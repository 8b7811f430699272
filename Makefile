# zcorba — build/test/reproduction entry points.

GO ?= go

.PHONY: all build test vet conformance fuzz chaos race bench bench-all allocs scale figures measure examples generate gencheck clean

UNAME_S := $(shell uname -s)

all: build test

build:
	$(GO) build ./...

# The tier-1 gate: vet, the full unit suite (which includes the
# wire-conformance golden vectors), the same suite under -race, the
# chaos schedules, and (on Linux) the connection-scale tier.
test: vet gencheck
	$(GO) test ./...
	$(MAKE) conformance
	$(MAKE) race
	$(MAKE) chaos
ifeq ($(UNAME_S),Linux)
	$(MAKE) scale
endif

# Both build-tag sides must stay healthy: the native side and the
# !linux skip stubs (the shm data plane and tcp sendfile are linux-gated).
# The benchmark is a nested module that ./... does not reach, so it is
# vetted on its own: a change that breaks its build fails here.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	GOOS=darwin $(GO) vet ./internal/transport/ ./internal/orb/ ./internal/zcbuf/ ./internal/shmem/ ./internal/events/ ./internal/naming/ ./internal/ttcp/

# Golden wire-vector suite (internal/giop/testdata): regenerate
# deliberately with `go test ./internal/giop -run TestWireVectors -update`.
# The ORB never fragments, so fragment reassembly runs only for foreign
# GIOP 1.1 peers; the raw-GIOP train is checked on both server tiers.
conformance:
	$(GO) test -count=1 -run 'TestWireVectors|TestUntraced' ./internal/giop/
	$(GO) test -count=1 -run 'TestFragmentReassemblyWireLevel' ./internal/orb/

# Short-budget fuzz pass over the wire-facing decoders (seeded from
# the golden vectors and saved crash corpora); raise FUZZTIME for a
# deeper run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzCDRDecode -fuzztime $(FUZZTIME) ./internal/giop/
	$(GO) test -run '^$$' -fuzz FuzzHeaders -fuzztime $(FUZZTIME) ./internal/giop/
	$(GO) test -run '^$$' -fuzz FuzzIORParse -fuzztime $(FUZZTIME) ./internal/ior/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/ior/
	$(GO) test -run '^$$' -fuzz FuzzDecodeComponents -fuzztime $(FUZZTIME) ./internal/ior/
	$(GO) test -run '^$$' -fuzz FuzzDecoder -fuzztime $(FUZZTIME) ./internal/cdr/
	$(GO) test -run '^$$' -fuzz FuzzConnReadLoop -fuzztime $(FUZZTIME) ./internal/orb/
	$(GO) test -run '^$$' -fuzz FuzzFramer -fuzztime $(FUZZTIME) ./internal/orb/
	$(GO) test -run '^$$' -fuzz FuzzDifferentialCDR -fuzztime $(FUZZTIME) ./internal/gentest/
	$(GO) test -run '^$$' -fuzz FuzzBroadcastRingHeader -fuzztime $(FUZZTIME) ./internal/shmem/
	$(GO) test -run '^$$' -fuzz FuzzRingClaim -fuzztime $(FUZZTIME) ./internal/shmem/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/idl/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/mpeg/

# Deterministic fault-injection suite (docs/FAULTS.md): the seeded
# chaos scenarios run under -race with three fixed schedules, then once
# more with a randomized schedule whose seed is logged so any failure
# can be replayed with CHAOS_SEED=<seed> make chaos.
chaos:
	CHAOS_SEED=101 $(GO) test -race -count=1 -run 'Chaos|WorkerConnectionKill|Fault|GatherTrain(Truncate|Stall)' ./internal/orb/ ./internal/ttcp/ ./internal/framework/
	CHAOS_SEED=202 $(GO) test -race -count=1 -run 'Chaos' ./internal/orb/
	CHAOS_SEED=303 $(GO) test -race -count=1 -run 'Chaos' ./internal/orb/
	$(GO) test -race -count=1 -v -run 'TestChaosRandomSeeded' ./internal/orb/
	$(GO) test -race -count=1 -run 'TestBcastCrossProcess' ./internal/shmem/

# The whole suite under the race detector, the concurrent request
# engine (shared-connection invokers, pipelining, pending-table
# striping) first among it. Allocation gates skip under -race, which
# adds allocations of its own.
race:
	$(GO) test -race ./...

# Regenerates bench_output.txt and the machine-readable BENCH_orb.json
# (name -> ns/op, MB/s, B/op, allocs/op) used as the perf gate record.
bench:
	$(GO) test -run '^$$' -bench 'Fig5|Fig6|RequestRate|Shm|FileTransfer|Gather' -benchmem . 2>&1 | tee bench_output.txt
	$(GO) test -run '^$$' -bench 'Generated|Interpreter|StructMarshal|StructDemarshal|GeneralMarshal|GeneralDemarshal' -benchmem ./internal/gentest/ ./internal/typecode/ 2>&1 | tee -a bench_output.txt
	$(GO) test -run '^$$' -bench 'EventsFanout' -benchmem ./internal/events/ 2>&1 | tee -a bench_output.txt
	$(GO) run ./cmd/benchjson -o BENCH_orb.json bench_output.txt

bench-all:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
	$(GO) run ./cmd/benchjson -o BENCH_orb.json bench_output.txt

# Allocation attribution of the page call (docs/PERF.md, "The page
# call's allocations"): the zero-copy 4 KiB request-rate bench at
# window 1 on one CPU with every allocation sampled, then the sites by
# allocated objects. Divide a site's count by the bench's N (printed
# first) for allocations per request. Profile and test binary go to the
# ignored $(ALLOCS_DIR).
ALLOCS_DIR ?= allocs.out
allocs:
	mkdir -p $(ALLOCS_DIR)
	$(GO) test -run '^$$' -bench 'RequestRate_ZC4K/window1$$' -benchtime 20000x -cpu 1 -benchmem \
	  -memprofile $(ALLOCS_DIR)/mem.prof -memprofilerate 1 -o $(ALLOCS_DIR)/zcorba.test .
	$(GO) tool pprof -sample_index=alloc_objects -top $(ALLOCS_DIR)/zcorba.test $(ALLOCS_DIR)/mem.prof

# Connection-scale tier (Linux, docs/PERF.md): the 10k-idle-connection
# engine proof (bounded goroutines, every conn still answers), the
# deterministic load-shed scenario, and a short run of the
# request-rate-vs-connection-count bench for both server tiers. Raises
# the fd soft limit to the hard limit best-effort first — the idle
# herd wants ~10k fds on each side.
scale:
	@sh -c 'ulimit -n $$(ulimit -Hn) 2>/dev/null || true; \
	  $(GO) test -count=1 -run "TestEngine_10kIdleConns|TestEngineLoadShed" ./internal/orb/ && \
	  $(GO) test -count=1 -run "^$$" -bench "RequestRate_ConnScale" -benchtime 1000x -benchmem .'

# Paper figures/tables from the calibrated model (fast, deterministic).
figures:
	$(GO) run ./cmd/figures -all

# ... plus measured series from this host (slower).
measure:
	$(GO) run ./cmd/figures -all -measure

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/filetransfer
	$(GO) run ./examples/discovery
	$(GO) run ./examples/matrix -n 512
	$(GO) run ./examples/fanout -consumers 8 -events 128 -size 16384
	$(GO) run ./examples/transcoder -workers 3 -frames 40

# Regenerate all idlgen outputs (golden tests keep them honest).
generate:
	$(GO) run ./cmd/idlgen -pkg media -o internal/media/media_gen.go internal/media/media.idl
	$(GO) run ./cmd/idlgen -pkg gentest -o internal/gentest/kitchen_gen.go internal/gentest/kitchen.idl
	$(GO) run ./cmd/idlgen -pkg main -zerocopy -o examples/matrix/matrix_gen.go examples/matrix/matrix.idl

# Codegen drift check: regenerate every idlgen output into a scratch
# directory and fail if it differs from what is committed. Keeps the
# compiled marshalers in lockstep with the generator.
gencheck:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/idlgen -pkg media -o $$tmp/media_gen.go internal/media/media.idl && \
	$(GO) run ./cmd/idlgen -pkg gentest -o $$tmp/kitchen_gen.go internal/gentest/kitchen.idl && \
	$(GO) run ./cmd/idlgen -pkg main -zerocopy -o $$tmp/matrix_gen.go examples/matrix/matrix.idl && \
	{ diff -u internal/media/media_gen.go $$tmp/media_gen.go && \
	  diff -u internal/gentest/kitchen_gen.go $$tmp/kitchen_gen.go && \
	  diff -u examples/matrix/matrix_gen.go $$tmp/matrix_gen.go || \
	  { rm -rf $$tmp; echo 'gencheck: generated code is stale; run make generate' >&2; exit 1; }; } && \
	rm -rf $$tmp && echo 'gencheck: generated code is current'

clean:
	$(GO) clean ./...
