# Convenience targets mirroring .github/workflows/ci.yml.

# Whole workspace except the vendored offline stubs under vendor/.
EXCLUDE_VENDOR := --exclude proptest --exclude rand --exclude serde --exclude serde_derive

.PHONY: verify fmt clippy build bench-check test e13 e14 e15 serve-smoke trace-smoke chaos-smoke kernel-smoke pipeline-smoke stream-smoke slo-smoke perf-gate bench-smoke

verify: fmt clippy build bench-check test kernel-smoke serve-smoke e15 trace-smoke chaos-smoke pipeline-smoke stream-smoke slo-smoke perf-gate bench-smoke

fmt:
	cargo fmt --all --check

# Perf lints are warnings-as-errors on the hot paths.
clippy:
	cargo clippy --release --workspace $(EXCLUDE_VENDOR) --all-targets -- -D warnings -D clippy::perf

build:
	cargo build --release --workspace

# The explicit AVX2/AVX-512 kernel paths must stay buildable when the
# compiler is handed the host's full ISA (own target dir, so the default
# build is not invalidated).
bench-check:
	RUSTFLAGS="-Ctarget-cpu=native" CARGO_TARGET_DIR=target/native cargo build --release -p unintt-ntt -p unintt-fri

# The whole workspace, then the root's default members (every crate, no
# vendored stub) again on a one-thread pool and on an oversubscribed
# eight-thread one (which is what exercises steal, linger and park): every
# oracle, pinned digest, cross-backend equality and telemetry capture must
# hold on both — what a session records must not depend on the pool:
# forked work records as its opener would (unintt_telemetry::adopt).
# E16's determinism test also runs at two threads, where a record dropped
# on a worker shows first.
test:
	cargo test -q --release --workspace
	UNINTT_THREADS=1 cargo test -q --release
	UNINTT_THREADS=2 cargo test -q --release -p unintt-bench --lib e16_observability::tests::output_is_deterministic_run_to_run
	UNINTT_THREADS=8 cargo test -q --release

e13:
	cargo run --release -p unintt-bench --bin harness -- --quick e13

e14:
	cargo run --release -p unintt-bench --bin harness -- --quick e14

# Communication-overlap smoke: the chunked pipeline and its blocking
# escape hatch must both run end to end.
e15:
	cargo run --release -p unintt-bench --bin harness -- --quick e15
	cargo run --release -p unintt-bench --bin harness -- --quick --blocking-comm e15

# Proving-service smoke: run the example and the E14 quick sweep.
serve-smoke:
	cargo run --release --example proof_service
	cargo run --release -p unintt-bench --bin harness -- --quick e14

# Telemetry smoke: E16 writes trace.json/trace.folded/BENCH_obs.json and
# validates the Chrome/Perfetto JSON before writing; the trace subcommand
# exercises the generic per-experiment capture path.
trace-smoke:
	cargo run --release -p unintt-bench --bin harness -- --quick e16
	cargo run --release -p unintt-bench --bin harness -- --quick trace e12

# Kernel smoke: the bit-identity property suite (vector vs the radix-2
# oracle, portable lanes vs native, both fields, both directions), then a
# disassembly check that the AVX-512 Goldilocks stage driver, the
# geometric-scaling kernel and the AVX-512 sponge kernels contain no
# widening scalar multiply — LLVM has scalarised `gl_mul` once before.
NO_SCALAR_MUL := unintt_ntt::vector::x86::gl_stages_avx512 \
                 unintt_ntt::six_step::x86::gl_scale_by_powers \
                 unintt_fri::hash::x86::hash_rows unintt_fri::hash::x86::compress_pairs
kernel-smoke:
	cargo test --release -p unintt-ntt --test shoup_properties
	cargo build --release -p unintt-ntt -p unintt-fri
	bash scripts/no-scalar-mul.sh $(NO_SCALAR_MUL)

# Pipeline smoke: the DAG bit-identity proptests (DAG-scheduled proofs
# vs monolithic across seeds, sizes and injected stage faults), then the
# quick E19 cell — which itself asserts per-job digest identity between
# the DAG and monolithic runs and that pipelining wins at high load.
pipeline-smoke:
	cargo test --release -p unintt-pipeline
	cargo run --release -p unintt-bench --bin harness -- --quick e19

# Stream smoke: the intra-lease overlap suite (bit-identity across queue
# counts and fault injection), then the quick E20 cell, which sweeps one
# to four queues per lease and asserts per-job digest identity against
# the monolithic reference in every cell.
stream-smoke:
	cargo test --release -p unintt-serve --test stream_overlap
	cargo run --release -p unintt-bench --bin harness -- --quick e20

# Chaos smoke: the fleet example plus the E17 quick sweep. E17 asserts
# zero accepted-job failures and bit-identical outputs vs the fault-free
# baseline in every cell, so this target fails if resilience regresses.
chaos-smoke:
	cargo run --release --example fleet_chaos
	cargo run --release -p unintt-bench --bin harness -- --quick e17

# SLO smoke: the quick E21 cell — burn-rate alerts must fire inside
# every injected degradation window and never on the clean baseline
# (asserted inside the experiment), streaming quantiles must track the
# exact percentiles, and the attribution verdicts must match the known
# workload classes. Also prints the attribution report.
slo-smoke:
	cargo run --release -p unintt-bench --bin harness -- --quick e21
	cargo run --release -p unintt-bench --bin harness -- attribute all

# Perf-regression gate: rerun the experiment behind every committed
# BENCH_*.json in its committed mode and byte-compare. Fails on any diff.
perf-gate:
	cargo run --release -p unintt-bench --bin harness -- perf-gate

# Repo-benchmark smoke: one checked op per BENCHMARK.json workload (every
# digest pin and independent check) plus one traced run; exits non-zero
# if any op is not correct. Builds into target/benchmark.
bench-smoke:
	bash benchmark/run.sh --quick
