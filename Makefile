GO ?= go

.PHONY: all build test test-portable race vet cross import-guard lint lint-concurrency fuzz-short bench bench-datapath bench-smoke bench-record telemetry-smoke tensorbench-smoke chaos-smoke chaos-smoke-race soak-smoke check clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The same suite with the kernel batch datapath (DESIGN.md §4.9) forced off
# process-wide: proves sendmmsg/recvmmsg + GSO/GRO degrade to the portable
# one-syscall-per-datagram loop with no behaviour change, on a kernel that
# supports everything.
test-portable:
	DIWARP_UDP_BATCH=portable $(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The other architectures keep building: crcx's folding kernel is amd64
# assembly behind a build tag, and everything else must not come to depend
# on it (amd64's own .s frames are checked by vet's asmdecl above).
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# Import direction (DESIGN.md §4.4): telemetry and peertab are leaves below
# transport — that is what lets transport use the registry instead of hand
# copies — and transport never links peertab: an address is a value, so the
# transport keeps no per-address state. No production datapath layer (msg,
# rudp, ddp, core, sockif) links the simulator, and rudp sits strictly below
# ddp (ddp names *rudp.Endpoint to pick its framing; the edge must never
# turn back).
import-guard:
	@if $(GO) list -deps ./internal/telemetry ./internal/peertab | grep -qx repro/internal/transport; then \
		echo "import-guard: internal/telemetry and internal/peertab must not depend on internal/transport"; exit 1; fi
	@if $(GO) list -deps ./internal/transport | grep -qx repro/internal/peertab; then \
		echo "import-guard: internal/transport must not depend on internal/peertab"; exit 1; fi
	@if $(GO) list -deps ./internal/msg | grep -qx repro/internal/simnet; then \
		echo "import-guard: internal/msg must not depend on internal/simnet"; exit 1; fi
	@if $(GO) list -deps ./internal/rudp | grep -qx repro/internal/simnet; then \
		echo "import-guard: internal/rudp must not depend on internal/simnet"; exit 1; fi
	@if $(GO) list -e -deps ./internal/rudp 2>/dev/null | grep -qx repro/internal/ddp; then \
		echo "import-guard: internal/rudp must not depend on internal/ddp"; exit 1; fi
	@if $(GO) list -deps ./internal/ddp ./internal/core | grep -qx repro/internal/simnet; then \
		echo "import-guard: internal/ddp and internal/core must not depend on internal/simnet"; exit 1; fi
	@if $(GO) list -deps ./internal/sockif | grep -qx repro/internal/simnet; then \
		echo "import-guard: internal/sockif must not depend on internal/simnet"; exit 1; fi
	@if $(GO) list -f '{{join .Imports "\n"}}' ./internal/core | grep -qx repro/internal/peertab; then \
		echo "import-guard: internal/core must not import internal/peertab (per-message state lives in plain maps, DESIGN.md §4.12)"; exit 1; fi

# Custom invariants compiled into one vettool: the datapath analyzers
# (DESIGN.md §4.5: poolcheck, hotpath, wirecheck, errflow) and the
# concurrency-invariant suite (DESIGN.md §4.10: lockorder, atomiccheck,
# unlockcheck).
bin/diwarp-vet: $(shell find cmd/diwarp-vet internal/analysis -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o bin/diwarp-vet ./cmd/diwarp-vet

lint: bin/diwarp-vet
	$(GO) vet -vettool=bin/diwarp-vet ./...

# Just the concurrency invariants (lock-order, atomic-consistency,
# unlock-path) — each analyzer name is also a selection flag on the vettool.
lint-concurrency: bin/diwarp-vet
	$(GO) vet -vettool=bin/diwarp-vet -lockorder -atomiccheck -unlockcheck ./...

# Wire-format fuzzers and the CRC32C engine differential, 10s each
# (separate invocations: go test allows only one -fuzz target per run).
fuzz-short:
	$(GO) test ./internal/mpa -run='^$$' -fuzz=FuzzMPAHeader -fuzztime=10s
	$(GO) test ./internal/ddp -run='^$$' -fuzz=FuzzDDPSegment -fuzztime=10s
	$(GO) test ./internal/rdmap -run='^$$' -fuzz=FuzzRDMAPHeader -fuzztime=10s
	$(GO) test ./internal/msg -run='^$$' -fuzz=FuzzMsgHeader -fuzztime=10s
	$(GO) test ./internal/rudp -run='^$$' -fuzz=FuzzRudpFrame -fuzztime=10s
	$(GO) test ./internal/crcx -run='^$$' -fuzz=FuzzCRC32C -fuzztime=10s

# Full benchmark sweep: one benchmark per paper figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Just the UD send datapath (pooled segmentation + batch submit + CRC32C).
bench-datapath:
	$(GO) test -bench='BenchmarkUDSendPath|BenchmarkChecksum' -benchmem -run=^$$ ./internal/ddp/ ./internal/crcx/

# One fast pass over both datapath benchmarks (send + batched receive):
# not for numbers — it proves the benchmarks still build, run, and hold
# the 0 allocs/op receive bar (TestRecvPathAllocFree runs alongside).
# TestUDSendRecvAllocFree holds the same bar for the whole UD verbs path:
# PostSend, both completions and the receive re-post, over simnet.
# TestUDWriteRecordAllocBound holds a lossless 1 MiB Write-Record round
# trip to at most 3 allocations. TestEagerRoundTripAllocFree holds a warm
# 4 KiB message-layer round trip (Send, handler, Release) to 0, and
# TestEagerRoundTripAllocFreeRD the same round trip over rudp (frames built
# in rudp's frame pool, the copy-break drawn from its class pools);
# TestSocketRecvAllocFree holds a warm 1 KiB socket SendTo→RecvFrom to 0.
# The transport pass covers the kernel batch tiers: its alloc tests skip
# cleanly when the kernel lacks sendmmsg or the UDP_SEGMENT/UDP_GRO
# offloads (the capability probe decides at runtime). Then every benchmark
# in the tree runs once, and the one whose set-up scales with b.N runs at a
# default-sized N, so a benchmark that no longer builds or runs fails here
# instead of at the next `make bench`.
bench-smoke:
	$(GO) test -bench='BenchmarkUDSendPath|BenchmarkUDRecvPath' -benchtime=0.2s -benchmem \
		-run='TestRecvPathAllocFree|TestSendPathAllocFree' ./internal/ddp/
	$(GO) test -count=1 -run='TestUDSendRecvAllocFree|TestUDWriteRecordAllocBound' ./internal/core/
	$(GO) test -count=1 -run='^TestEagerRoundTripAllocFree(RD)?$$' ./internal/msg/
	$(GO) test -count=1 -run='TestSocketRecvAllocFree' ./internal/sockif/
	$(GO) test -bench='BenchmarkUDPSendBatch|BenchmarkUDPRecvBatch' -benchtime=0.2s -benchmem \
		-run='TestUDPSendBatchAllocFree|TestUDPRecvBatchAllocFreeKernel' ./internal/transport/
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...
	$(GO) test -run='^$$' -bench=BenchmarkAblationRUDP -benchtime=2000x .

# Record the repository benchmark at one commit: BENCH_<PR>.json holds the
# commit, and per workload the run's env line and its final JSON line, one
# `go run ./benchmark -workload W` per workload, as BENCHMARK.json runs it.
# COMMIT defaults to HEAD; pass it explicitly for a tree that is not HEAD
# (a benchmark built outside git stamps "commit":"unknown"). Run it at two
# commits in one session to compare them on one host.
#   make bench-record PR=n [COMMIT=<sha>]
BENCH_WORKLOADS = ud_send_1k rd_send_1k ud_wr_1m_loss msg_mix_rd sock_rd_1k_udp

bench-record:
	@test -n "$(PR)" || { echo 'usage: make bench-record PR=n [COMMIT=<sha>]' >&2; exit 2; }
	@commit='$(or $(COMMIT),$(shell git rev-parse HEAD))'; out=BENCH_$(PR).json; tmp=$$out.tmp; \
	printf '{"pr":%s,"commit":"%s","runs":[\n' '$(PR)' "$$commit" > $$tmp; sep=' '; \
	for w in $(BENCH_WORKLOADS); do \
		$(GO) run ./benchmark -workload $$w > $$tmp.run || { echo "bench-record: $$w failed" >&2; rm -f $$tmp $$tmp.run; exit 1; }; \
		printf '%s{"workload":"%s","env":%s,"result":%s}\n' "$$sep" $$w "$$(sed -n 's/^env //p' $$tmp.run)" "$$(tail -n 1 $$tmp.run)" >> $$tmp; \
		sep=','; \
	done; \
	rm -f $$tmp.run; printf ']}\n' >> $$tmp; mv $$tmp $$out; echo "bench-record: wrote $$out"

# Boot the daemon over a 1%-lossy simnet, scrape its own /metrics, and
# fail unless the datapath counters show traffic, loss, and rudp recovery
# (DESIGN.md §4.6). Exits non-zero if any asserted counter is missing or 0.
telemetry-smoke:
	$(GO) run ./cmd/iwarpd -sim -loss 0.01 -duration 2s -metrics 127.0.0.1:0 -smoke-scrape

# Message-layer workload gate (DESIGN.md §4.11): a small simnet tensor mix
# through cmd/tensorbench that must deliver every tensor with nonzero
# goodput and shut down cleanly. Exits non-zero otherwise.
tensorbench-smoke:
	$(GO) run ./cmd/tensorbench -smoke

# Fault-injection suite (DESIGN.md §4.8): the faultnet determinism tests
# plus every chaos schedule with its committed seed. A failure prints the
# seed and fault-log tail; replay with
#   go test ./internal/faultnet/chaos -run Chaos -faultnet.seed=N
chaos-smoke:
	$(GO) test -count=1 ./internal/faultnet/ ./internal/faultnet/chaos/

# The chaos schedules under the race detector, plus the whole sockif
# package (its connection-establishment race regressions, the receive
# path's handler/reader hand-off and the spoofed-advisory test), the UDP
# send engine's close-under-load stress, the UD Read exactly-once race and
# the message layer's two-way RD saturation and its blocked-control-send
# check (the QP's receive goroutine must never wait for LLP window space):
# the dynamic complement to the static lint-concurrency gate.
chaos-smoke-race:
	$(GO) test -race -count=1 ./internal/faultnet/ ./internal/faultnet/chaos/ ./internal/sockif/
	$(GO) test -race -count=1 -run 'TestUDPSendEngineRace|TestUDPCloseSemantics' ./internal/transport/
	$(GO) test -race -count=1 -run 'TestUDReadExactlyOnce' ./internal/core/
	$(GO) test -race -count=1 -run 'TestBidirectionalSaturationRD|TestBlockedControlSendDoesNotStallReceive' ./internal/msg/

# A truncated many-peer soak (DESIGN.md §4.12): 1k live reliable-datagram
# conversations on one simnet hub, exiting non-zero unless occupancy,
# delivery, and the retransmit-wheel quiescence invariant all hold. The
# full 100k run is the same command with -soak-peers 100000.
soak-smoke:
	$(GO) run ./cmd/iwarpd -soak-peers 1000 -duration 2s

# What CI should run.
check: build vet cross import-guard test test-portable race lint lint-concurrency telemetry-smoke tensorbench-smoke chaos-smoke chaos-smoke-race soak-smoke

clean:
	rm -rf bin
