# The one list of checks: every step of .github/workflows/ci.yml runs one
# of these targets, and `make verify` runs them all.

# Whole workspace except the vendored offline stubs under vendor/.
EXCLUDE_VENDOR := --exclude proptest --exclude rand --exclude serde --exclude serde_derive

.PHONY: verify fmt clippy build bench-check test test-workspace test-one-thread test-e16-two-threads test-eight-threads e13 e14 e15 serve-smoke trace-smoke chaos-smoke kernel-smoke pipeline-smoke stream-smoke slo-smoke perf-gate bench-smoke serve-profile msm-profile loc

verify: fmt clippy build bench-check test kernel-smoke e13 serve-smoke e15 trace-smoke chaos-smoke pipeline-smoke stream-smoke slo-smoke perf-gate bench-smoke

fmt:
	cargo fmt --all --check

# Perf lints are warnings-as-errors on the hot paths.
clippy:
	cargo clippy --release --workspace $(EXCLUDE_VENDOR) --all-targets -- -D warnings -D clippy::perf -D unreachable_pub

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
test: test-workspace test-one-thread test-e16-two-threads test-eight-threads

test-workspace:
	cargo test -q --release --workspace

test-one-thread:
	UNINTT_THREADS=1 cargo test -q --release

test-e16-two-threads:
	UNINTT_THREADS=2 cargo test -q --release -p unintt-bench --lib e16_observability::tests::output_is_deterministic_run_to_run

test-eight-threads:
	UNINTT_THREADS=8 cargo test -q --release

# Paper-tables smoke: the quick E1-E13 run (E13's fault sweep among
# them), written through the one artifact writer.
e13:
	cargo run --release -p unintt-bench --bin harness -- --quick paper
	test -s target/quick/BENCH_paper.json

e14:
	cargo run --release -p unintt-bench --bin harness -- --quick e14

# Communication-overlap smoke: E15 runs the chunked pipeline and the
# blocking schedule side by side, end to end.
e15:
	cargo run --release -p unintt-bench --bin harness -- --quick e15

# Proving-service smoke: run the example and the E14 quick sweep, then
# the front-door proptest (any JobSpec: one outcome per job, no panic)
# and the one-cluster fleet held to the deleted service loop's pins.
serve-smoke:
	cargo run --release --example proof_service
	cargo run --release -p unintt-bench --bin harness -- --quick e14
	cargo test --release -p unintt-serve --test front_door --test one_scheduler

# Telemetry smoke: E16 writes trace.json/trace.folded/BENCH_obs.json and
# validates the Chrome/Perfetto JSON before writing; the trace subcommand
# exercises the generic per-experiment capture path. Trace artifacts land
# in target/traces/ and a quick run's BENCH_*.json in target/quick/, so
# the committed full-mode captures at the root stay untouched.
trace-smoke:
	cargo run --release -p unintt-bench --bin harness -- --quick e16
	test -s target/traces/trace.json && test -s target/traces/trace.folded
	test -s target/quick/BENCH_obs.json
	cargo run --release -p unintt-bench --bin harness -- --quick trace e12
	test -s target/traces/trace_e12.json

# Kernel smoke: the bit-identity property suite (vector vs the radix-2
# oracle, both fields, both directions); the portable-lanes-vs-native
# proptest, the tests that call each native NTT driver and bit-reversal
# register kernel directly, and the MSM's and the SRS's IFMA lanes against
# their scalar paths, with their output shown, since they print which tiers ran and
# which the CPU lacked; then a disassembly check that the AVX-512
# Goldilocks stage and column drivers, the IFMA `Bn254Fr` stage driver,
# both lane geometric-scaling
# kernels, the AVX-512 sponge kernels, the MSM's lane bucket pass and
# running sum and the SRS's lane fixed-base multiply contain no widening
# scalar multiply — LLVM has scalarised `gl_mul` once before.
NO_SCALAR_MUL := unintt_ntt::vector::x86::gl_stages_avx512 \
                 unintt_ntt::vector::x86::gl_columns_avx512 \
                 unintt_ntt::vector::x86::fr_stages_ifma \
                 unintt_ntt::six_step::x86::gl_scale_by_powers \
                 unintt_ntt::six_step::x86::fr_scale_by_powers \
                 unintt_fri::hash::x86::hash_rows unintt_fri::hash::x86::compress_pairs \
                 unintt_msm::pippenger::lanes::bucket_pass \
                 unintt_msm::pippenger::lanes::running_sum \
                 unintt_msm::fixed_base::lanes::mul_generator
kernel-smoke:
	cargo test --release -p unintt-ntt --test shoup_properties
	cargo test --release -p unintt-ntt --lib -- --nocapture portable_backend_matches_native \
		goldilocks_native_tiers_match_oracle bn254_ifma_tier_matches_oracle \
		register_kernels_match_bit_reversed goldilocks_columns_match_radix2_oracle \
		narrow_transpose_matches_naive transpose_blocked_matches_reference \
		transpose_in_place_square_matches_reference
	cargo test --release -p unintt-ff --lib -- --nocapture ifma_vs_scalar
	cargo test --release -p unintt-msm --lib -- --nocapture lane_groups_of_every_width \
		lanes_and_scalar_formulas_give_the_same_triples
	cargo test --release -p unintt-zkp --lib -- --nocapture srs_powers_equal_double_and_add_ladders
	cargo test --release --test msm_kernel -- --nocapture
	cargo build --release -p unintt-ntt -p unintt-fri -p unintt-msm
	bash scripts/no-scalar-mul.sh $(NO_SCALAR_MUL)

# Pipeline smoke: the DAG bit-identity proptests (DAG-scheduled proofs
# vs monolithic across seeds, sizes and injected stage faults), then the
# quick E19 cell — which itself asserts per-job digest identity between
# the DAG and monolithic runs and that pipelining wins at high load —
# then the STARK example, which asserts verify_trace, verify_opening and
# verify_stark on the CPU and simulated backends.
pipeline-smoke:
	cargo test --release -p unintt-pipeline
	cargo run --release -p unintt-bench --bin harness -- --quick e19
	test -s target/quick/BENCH_pipeline.json
	cargo run --release --example stark_commitment

# Stream smoke: the stream set's extra-instant property (advancing at
# any instant between events moves no completion), the intra-lease
# overlap suite (bit-identity across queue counts and fault injection),
# then the quick E20 cell, which sweeps one
# to four queues per lease and asserts per-job digest identity against
# the monolithic reference in every cell. Rerunning E19 around it and
# diffing proves the multi-queue runs left the one-queue experiment
# byte-identical.
stream-smoke:
	cargo test --release -p unintt-gpu-sim --test stream_extra_instants
	cargo test --release -p unintt-serve --test stream_overlap
	cargo run --release -p unintt-bench --bin harness -- --quick e19
	cp target/quick/BENCH_pipeline.json target/quick/BENCH_pipeline.before.json
	cargo run --release -p unintt-bench --bin harness -- --quick e20
	test -s target/quick/BENCH_streams.json
	cargo run --release -p unintt-bench --bin harness -- --quick e19
	cmp target/quick/BENCH_pipeline.json target/quick/BENCH_pipeline.before.json

# Chaos smoke: the fleet failover suite (kills under every policy, stage
# DAGs over two queues per lease, lost devices), the fleet example, then
# the E17 quick sweep. E17 asserts zero accepted-job failures and
# bit-identical outputs vs the fault-free baseline in every cell, so this
# target fails if resilience regresses.
chaos-smoke:
	cargo test --release -p unintt-serve --test fleet_failover
	cargo run --release --example fleet_chaos
	cargo run --release -p unintt-bench --bin harness -- --quick e17
	test -s target/quick/BENCH_resilience.json

# SLO smoke: the quick E21 cell — burn-rate alerts must fire inside
# every injected degradation window and never on the clean baseline
# (asserted inside the experiment), streaming quantiles must track the
# exact percentiles, and the attribution verdicts must match the known
# workload classes. Also prints the attribution report.
slo-smoke:
	cargo run --release -p unintt-bench --bin harness -- --quick e21
	test -s target/quick/BENCH_slo.json
	cargo run --release -p unintt-bench --bin harness -- attribute all

# Serving-path profile (wall clock, not part of verify): one serve-raw
# op split into cluster forwards, batch selection, reference transforms,
# payloads and per-dispatch cluster setup, then one raw job's cluster
# forward split into its pieces; then one serve-proofs op split into the
# PLONK fixture, PLONK stages by kind (simulated against CPU backend),
# PLONK verify, STARK commit and verify, raw jobs and the event loop.
serve-profile:
	cargo test --release -p unintt-serve --lib raw_op_profile -- --ignored --nocapture
	cargo test --release -p unintt-core --lib raw_job_profile -- --ignored --nocapture
	cargo test --release -p unintt-serve --lib proofs_op_profile -- --ignored --nocapture

# MSM profile (wall clock, not part of verify): one thread, the default
# window, n = 16, 64, 512 and 1533, split into recoding, bucket pass,
# running sum and stitch for the scalar path and, where the CPU has
# avx512ifma, the lanes.
msm-profile:
	cargo test --release -p unintt-msm --lib msm_profile -- --ignored --nocapture

# Perf-regression gate: rerun the experiment behind every committed
# BENCH_*.json in its committed mode and byte-compare. Fails on any diff.
perf-gate:
	cargo run --release -p unintt-bench --bin harness -- perf-gate

# Line count (informational, not part of verify): non-test lines per
# crate under crates/*/src, the figure simplicity changes quote.
loc:
	bash scripts/loc.sh

# Repo-benchmark smoke: one checked op per BENCHMARK.json workload (every
# digest pin and independent check) plus one traced run; exits non-zero
# if any op is not correct. Builds into target/benchmark.
bench-smoke:
	bash benchmark/run.sh --quick
