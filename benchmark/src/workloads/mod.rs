//! The eight workloads. An *op* is the timed unit; everything that checks
//! an op's output runs outside the timed section.
//!
//! Each workload is built from the run's seed alone and calls only public
//! functions of the layer crates. No process-wide override
//! (`set_kernel_mode`, `set_*_override`) is ever called from here, and the
//! `exec` pool keeps its default size.

mod engine;
mod kernels;
mod proofs;
mod serving;

pub use engine::{e1_sweep, EngineSim};
pub use kernels::{NttBatch, NttLarge};
pub use proofs::{PlonkProve, StarkCommit};
pub use serving::{FleetChaos, ServeProofs, ServeRaw};

use rand::rngs::StdRng;
use unintt_ff::{Field, PrimeField};

use crate::spans::Recorder;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 8] = [
    "ntt-large",
    "ntt-batch",
    "plonk-prove",
    "stark-commit",
    "serve-raw",
    "serve-proofs",
    "fleet-chaos",
    "engine-sim",
];

/// Simulated-clock results of one op. Deterministic per seed: every op of
/// a run must reproduce the first op's values bit for bit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimClock {
    /// Simulated time to drain the op's job stream (serving workloads) or
    /// the UniNTT 2^18 forward's `max_clock_ns` (`engine-sim`), µs.
    pub horizon_us: f64,
    /// Exact nearest-rank p95 of `completed_ns − arrival_ns` over the
    /// op's completed jobs, µs (serving workloads only).
    pub latency_p95_us: Option<f64>,
    /// Geometric mean over the E1 sweep of single-GPU ÷ UniNTT-8
    /// simulated forward time (`engine-sim` only).
    pub speedup_x: Option<f64>,
}

/// What one op produced, as far as repeatability is concerned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Output {
    /// FNV-1a fingerprint of every output bit of the op.
    pub digest: u64,
    /// Simulated-clock results, for the workloads that have a simulated
    /// clock.
    pub sim: Option<SimClock>,
}

/// One benchmark workload, set up and ready to run ops.
pub trait Workload {
    /// Untimed: restores pristine inputs before the next op.
    fn prepare(&mut self) {}

    /// The timed unit. With a recording `rec` the same work runs with a
    /// child span around every call into a layer (for the two proof
    /// workloads that means the staged prover APIs, one span per stage).
    fn op(&mut self, rec: &mut Recorder);

    /// Untimed: checks the outputs of the op that just ran and returns
    /// their fingerprint, or says which check failed.
    fn check(&mut self, op_index: usize) -> Result<Output, String>;
}

/// Sets up workload `name` from `seed`: inputs, keys, fixtures, reference
/// runs, cold plan and twiddle caches, and one checked warm-up op.
///
/// # Errors
///
/// An unknown name, or a warm-up op that fails its check.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match name {
        "ntt-large" => Box::new(NttLarge::setup(seed)),
        "ntt-batch" => Box::new(NttBatch::setup(seed)),
        "plonk-prove" => Box::new(PlonkProve::setup(seed)),
        "stark-commit" => Box::new(StarkCommit::setup(seed)),
        "serve-raw" => Box::new(ServeRaw::setup(seed)),
        "serve-proofs" => Box::new(ServeProofs::setup(seed)),
        "fleet-chaos" => Box::new(FleetChaos::setup(seed)),
        "engine-sim" => Box::new(EngineSim::setup(seed)),
        _ => return Err(format!("unknown workload {name:?}")),
    };
    w.prepare();
    w.op(&mut Recorder::off());
    w.check(0)?;
    Ok(w)
}

/// FNV-1a over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs one word.
    pub fn mix(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Absorbs the canonical value of every element (fields of ≤ 64 bits).
    pub fn mix_field<F: PrimeField>(&mut self, xs: &[F]) {
        for x in xs {
            self.mix(x.to_canonical_u64());
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// `n` seeded random field elements.
pub fn random_vec<F: Field>(n: usize, rng: &mut StdRng) -> Vec<F> {
    (0..n).map(|_| F::random(rng)).collect()
}
