GO ?= go

.PHONY: all build test test-race vet bench bench-smoke bench-gate bench-ab run sweep figures stream-smoke remote-smoke snapshot-smoke clean

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Full benchmark pass (allocation counts are the contract: 0 allocs/op on
# every steady-state path).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Quick smoke used by CI: a few iterations of every benchmark, just enough
# to catch regressions in the allocation-free invariant.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 100x -benchmem ./...

# The in-process speed floors: every (profile x engine) grid point in both
# clock modes, where the event-horizon speedup must hold on mcf, no profile
# may be slower than the per-cycle path and the loop must not allocate, plus
# warm-snapshot restore against cold warm-up. Each floor is a ratio of two
# paths timed in one process, so it holds on any host. Mirrors CI's
# bench-floors job.
bench-gate:
	$(GO) run ./cmd/clgpsim bench

# The paired A/B over the repo benchmark (perfbench/): BASE against the
# working tree, 10 alternating pairs per workload, gated on the bounds in
# BENCHMARK.json; writes BENCH_ab.json. Mirrors CI's bench-ab job.
BASE ?= $(shell git merge-base main HEAD)
bench-ab:
	$(GO) run ./cmd/benchab $(BASE)

run:
	$(GO) run ./cmd/clgpsim run -profile gcc -insts 200000 -engine clgp -l1 2048 -l0

sweep:
	$(GO) run ./cmd/clgpsim sweep -profile gcc -insts 100000

# Full paper-figure grid (12 profiles, sharded + checkpointed into
# clgp-figures/; re-run with the same target to resume after interruption).
figures:
	$(GO) run ./cmd/clgpsim figures -insts 200000 -dir clgp-figures -resume

# Record a trace container and stream it back through a bounded window:
# the summary must be bit-identical to the regenerating in-memory path.
# (No pipes around clgpsim — a simulator failure must fail the recipe.)
stream-smoke:
	$(GO) run ./cmd/clgpsim trace record -profile gzip -insts 50000 -seed 1 -o /tmp/clgp-smoke.clgt
	$(GO) run ./cmd/clgpsim run -profile gzip -insts 50000 -seed 1 -engine clgp -l1 2048 > /tmp/clgp-smoke-mem-full.txt
	$(GO) run ./cmd/clgpsim run -tracefile /tmp/clgp-smoke.clgt -window 8192 -engine clgp -l1 2048 > /tmp/clgp-smoke-str-full.txt
	grep -v "wall time" /tmp/clgp-smoke-mem-full.txt > /tmp/clgp-smoke-mem.txt
	grep -v -e "wall time" -e "trace window" /tmp/clgp-smoke-str-full.txt > /tmp/clgp-smoke-str.txt
	diff /tmp/clgp-smoke-mem.txt /tmp/clgp-smoke-str.txt

# The multi-host dispatch protocol on one machine: an HTTP object store,
# child workers pointed at the URL, merged figures diffed against the
# in-process run. Mirrors CI's remote-smoke job.
remote-smoke:
	rm -rf /tmp/clgp-remote-smoke && mkdir -p /tmp/clgp-remote-smoke
	$(GO) build -o /tmp/clgp-remote-smoke/clgpsim ./cmd/clgpsim
	cd /tmp/clgp-remote-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -dir fig-local
	cd /tmp/clgp-remote-smoke && { ./clgpsim store serve -dir store-root -addr 127.0.0.1:0 -addr-file addr.txt & echo $$! > server.pid; } && \
	for i in $$(seq 1 50); do [ -s addr.txt ] && break; sleep 0.1; done
	cd /tmp/clgp-remote-smoke && trap 'kill $$(cat server.pid) 2>/dev/null || true' EXIT && \
		./clgpsim figures -insts 20000 -profiles gzip,mcf \
			-store "http://$$(cat addr.txt)" -exec -retries 2 -dir fig-remote -json BENCH_dispatch.json && \
		diff fig-local/figure6_ipc_90nm.csv fig-remote/figure6_ipc_90nm.csv
	@echo "remote-smoke: object-store sweep matches in-process run"

# Warm-state snapshots end to end: a cold figures sweep records warm-state
# artifacts into the store, a second sweep over the same store restores them,
# and the emitted figure CSVs must be byte-identical to a sweep that never
# snapshotted at all. Mirrors CI's snapshot-smoke job.
snapshot-smoke:
	rm -rf /tmp/clgp-snapshot-smoke && mkdir -p /tmp/clgp-snapshot-smoke
	$(GO) build -o /tmp/clgp-snapshot-smoke/clgpsim ./cmd/clgpsim
	cd /tmp/clgp-snapshot-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -dir fig-plain
	cd /tmp/clgp-snapshot-smoke && ./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 -dir fig-cold
	test -n "$$(ls /tmp/clgp-snapshot-smoke/fig-cold/snapshots)"
	cd /tmp/clgp-snapshot-smoke && cp -r fig-cold fig-warm && rm -rf fig-warm/shards && \
		./clgpsim figures -insts 20000 -profiles gzip,mcf -warmup 10000 -dir fig-warm -resume
	cd /tmp/clgp-snapshot-smoke && \
		diff fig-plain/figure6_ipc_90nm.csv fig-cold/figure6_ipc_90nm.csv && \
		diff fig-plain/figure6_ipc_90nm.csv fig-warm/figure6_ipc_90nm.csv && \
		diff fig-plain/figure1_ipc_vs_l1_90nm.csv fig-warm/figure1_ipc_vs_l1_90nm.csv
	@echo "snapshot-smoke: cold-recording and warm-restoring sweeps match the plain run"

clean:
	$(GO) clean ./...
	rm -f $(filter-out BENCH_ab.json,$(wildcard BENCH_*.json))
	rm -rf clgp-figures
