//! The two host-kernel workloads: one large transform, many small ones.

use rand::{rngs::StdRng, SeedableRng};
use unintt_ff::{BabyBear, Goldilocks};
use unintt_ntt::{batch_transform_parallel, Direction, Ntt};

use super::{random_vec, Fnv, Output, Workload};
use crate::spans::Recorder;

/// `ntt-large`: one `Ntt::<Goldilocks>::forward` at 2^22 (32 MiB, the
/// six-step path, single-threaded today). `ntt` and `ff::packed` do all
/// the work and it streams memory; every other layer is idle. Tiling,
/// transpose, twiddle-row and single-transform threading work shows here.
pub struct NttLarge {
    ntt: Ntt<Goldilocks>,
    input: Vec<Goldilocks>,
    data: Vec<Goldilocks>,
}

impl NttLarge {
    /// Transform size exponent.
    pub const LOG_N: u32 = 22;
    /// The untimed round trip `inverse(forward(x)) == x` runs on every
    /// this-many-th op (it costs a second transform).
    const ROUND_TRIP_EVERY: usize = 16;

    /// Seeded input, cold twiddle table.
    pub fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let input: Vec<Goldilocks> = random_vec(1 << Self::LOG_N, &mut rng);
        Self {
            ntt: Ntt::new(Self::LOG_N),
            data: input.clone(),
            input,
        }
    }
}

impl Workload for NttLarge {
    fn prepare(&mut self) {
        self.data.copy_from_slice(&self.input);
    }

    fn op(&mut self, rec: &mut Recorder) {
        rec.span("ntt", "Ntt::forward 2^22 goldilocks", |_| {
            self.ntt.forward(&mut self.data)
        });
    }

    fn check(&mut self, op_index: usize) -> Result<Output, String> {
        let mut fnv = Fnv::new();
        fnv.mix_field(&self.data);
        if op_index.is_multiple_of(Self::ROUND_TRIP_EVERY) {
            self.ntt.inverse(&mut self.data);
            if self.data != self.input {
                return Err("inverse(forward(x)) != x".into());
            }
        }
        Ok(Output {
            digest: fnv.finish(),
            sim: None,
        })
    }
}

/// One batch shape of `ntt-batch`: pristine rows, the working copy, and
/// row 0 transformed by a single `Ntt` call in set-up.
struct Batch<F: unintt_ff::TwoAdicField> {
    ntt: Ntt<F>,
    direction: Direction,
    input: Vec<F>,
    data: Vec<F>,
    row0: Vec<F>,
    label: &'static str,
}

impl<F: unintt_ff::TwoAdicField> Batch<F> {
    fn new(
        log_n: u32,
        rows: usize,
        direction: Direction,
        label: &'static str,
        rng: &mut StdRng,
    ) -> Self {
        let ntt = Ntt::<F>::new(log_n);
        let input: Vec<F> = random_vec(rows << log_n, rng);
        let mut row0 = input[..1 << log_n].to_vec();
        match direction {
            Direction::Forward => ntt.forward(&mut row0),
            Direction::Inverse => ntt.inverse(&mut row0),
        }
        Self {
            ntt,
            direction,
            data: input.clone(),
            input,
            row0,
            label,
        }
    }

    fn run(&mut self, threads: usize, rec: &mut Recorder) {
        rec.span("ntt", self.label, |_| {
            batch_transform_parallel(&self.ntt, &mut self.data, self.direction, threads)
        });
    }

    fn check(&self, fnv: &mut Fnv) -> Result<(), String> {
        if self.data[..self.row0.len()] != self.row0[..] {
            return Err(format!(
                "{}: row 0 differs from a single Ntt call",
                self.label
            ));
        }
        fnv.mix_field(&self.data);
        Ok(())
    }
}

/// `ntt-batch`: `batch_transform_parallel` over 1024×2^12 Goldilocks
/// forward, 64×2^16 Goldilocks inverse and 1024×2^12 BabyBear forward,
/// each as one chunk. The same `ntt` layer as `ntt-large` used the other
/// way: cache-resident direct vector kernels and bit-reversal, both
/// fields, both directions. A butterfly micro-optimisation moves both NTT
/// workloads, six-step tiling only `ntt-large`.
pub struct NttBatch {
    gold_fwd: Batch<Goldilocks>,
    gold_inv: Batch<Goldilocks>,
    bb_fwd: Batch<BabyBear>,
}

impl NttBatch {
    /// One chunk per batch, on purpose. Fanned out over `nproc` chunks the
    /// op keeps every vCPU busy and takes as long as the slower one: on
    /// the 2-vCPU shared reference host its p10 then sat at 61 ms or at
    /// 80 ms for ten minutes at a time, whichever vCPU had a busy
    /// neighbour, three times the swing of any single-threaded op. The
    /// fan-out is measured per layer instead (`ntt.*x1024_ms`,
    /// `exec.ntt_batch_scaling_x`).
    const CHUNKS: usize = 1;

    /// Seeded rows, cold plans, row-0 references.
    pub fn setup(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            gold_fwd: Batch::new(
                12,
                1024,
                Direction::Forward,
                "batch_transform_parallel 1024x2^12 goldilocks fwd",
                &mut rng,
            ),
            gold_inv: Batch::new(
                16,
                64,
                Direction::Inverse,
                "batch_transform_parallel 64x2^16 goldilocks inv",
                &mut rng,
            ),
            bb_fwd: Batch::new(
                12,
                1024,
                Direction::Forward,
                "batch_transform_parallel 1024x2^12 babybear fwd",
                &mut rng,
            ),
        }
    }
}

impl Workload for NttBatch {
    fn prepare(&mut self) {
        self.gold_fwd.data.copy_from_slice(&self.gold_fwd.input);
        self.gold_inv.data.copy_from_slice(&self.gold_inv.input);
        self.bb_fwd.data.copy_from_slice(&self.bb_fwd.input);
    }

    fn op(&mut self, rec: &mut Recorder) {
        self.gold_fwd.run(Self::CHUNKS, rec);
        self.gold_inv.run(Self::CHUNKS, rec);
        self.bb_fwd.run(Self::CHUNKS, rec);
    }

    fn check(&mut self, _op_index: usize) -> Result<Output, String> {
        let mut fnv = Fnv::new();
        self.gold_fwd.check(&mut fnv)?;
        self.gold_inv.check(&mut fnv)?;
        self.bb_fwd.check(&mut fnv)?;
        Ok(Output {
            digest: fnv.finish(),
            sim: None,
        })
    }
}
