//! The UniNTT hierarchical execution engine.
//!
//! ## Algebra
//!
//! With `N = G·M` (`G` GPUs) and input distributed **cyclically**
//! (`x[i2·G + i1]` on GPU `i1`), the DFT factors as
//!
//! ```text
//! X[k1·M + k2] = Σ_{i1} ω_G^{i1·k1} · ω_N^{i1·k2} · Inner(i1, k2)
//! Inner(i1, k2) = Σ_{i2} x[i2·G + i1] · ω_M^{i2·k2}
//! ```
//!
//! which the engine executes as the three steps of the recursion:
//!
//! 1. **Local phase** (every GPU, no communication): a size-`M` NTT over
//!    the local shard — itself executed as the planned hierarchy of fused
//!    global-memory passes, shared-memory tiles, and warp shuffles — with
//!    the boundary twiddle `ω_N^{i1·k2}` fused into the final pass (O1).
//! 2. **Exchange**: exactly one all-to-all. The pack/unpack is fused into
//!    the neighboring kernels' addressing (O4) — the "overhead-free" part:
//!    no standalone transpose pass ever touches memory.
//! 3. **Outer phase**: `M/G` independent size-`G` NTTs per GPU, now fully
//!    local.
//!
//! The forward output is left in the documented
//! [`ShardLayout::BlockCyclic`] order (evaluation-domain consumers are
//! order-oblivious); [`UniNttOptions::natural_output`] adds the extra
//! all-to-all that restores natural blocks.
//!
//! ## One schedule, two planes
//!
//! Those steps are a [`Schedule`] derived per transform and walked by
//! [`crate::schedule::walk`] — front to back for a forward transform, back
//! to front for an inverse one, so `inverse(forward(x)) == x` by
//! construction; a coset transform is a scale phase on the list. This
//! file holds the body of each phase, once, written against a [`Plane`]:
//! `simulate_*` is the functional transform's walk on the plane that
//! holds no elements. Both planes exchange through the one all-to-all,
//! [`Machine::exchange_all_to_all`], so under a fault plan they take the
//! same fault decisions and charge the same drops, retries and repairs.
//!
//! ## Communication–compute overlap
//!
//! Under [`CommMode::Overlapped`] (the default) the exchange is charged as
//! a software pipeline instead of a blocking transfer: the exchange-
//! adjacent kernels — the final (twiddle-fused) local pass on one side and
//! the outer stage on the other — are sliced across
//! [`UniNttOptions::comm_chunks`] pipeline chunks and interleaved with the
//! chunked all-to-all, so wire time hides behind butterfly work. The data
//! movement, fault injection points, and verify-and-repair semantics are
//! bit-identical to [`CommMode::Blocking`]; only the charged schedule
//! changes. The `natural_output` reordering exchange stays blocking in
//! both modes (it has no adjacent compute to hide behind).
//!
//! Functional correctness is independent of every optimization switch:
//! options change only the charged [`unintt_gpu_sim::KernelProfile`]s.

use std::sync::OnceLock;

use unintt_ff::TwoAdicField;
use unintt_gpu_sim::{
    DeviceCtx, FabricError, FieldSpec, KernelProfile, Machine, MachineConfig, OverlapCompute,
    SimTime, Stats,
};
use unintt_ntt::{interleave, scale_by_powers, Direction, Ntt};
use unintt_telemetry::SpanLevel;

use crate::profiles;
use crate::schedule::{walk, Attrs, Level, Phase, Plane, Schedule};
use crate::{CommMode, DecompositionPlan, RecoveryPolicy, ShardLayout, Sharded, UniNttOptions};

/// The fabric level: spans on the machine's track, against its makespan.
const FABRIC: Level<Machine> = Level {
    span_level: SpanLevel::Fabric,
    clock: Machine::max_clock,
    track: |machine| machine.label().to_string(),
};

/// Raw-vs-exposed-vs-hidden interconnect annotations for an exchange
/// span, from the stats delta across the exchange.
fn exchange_attrs(pre: &Stats<SimTime>, post: &Stats<SimTime>, overlapped: bool) -> Attrs {
    let mode = if overlapped { "overlapped" } else { "blocking" };
    let raw = post.raw_time_ns.interconnect - pre.raw_time_ns.interconnect;
    let exposed = post.time_ns.interconnect - pre.time_ns.interconnect;
    let hidden = post.comm_hidden_ns - pre.comm_hidden_ns;
    vec![
        ("mode", mode.into()),
        ("raw_comm_ns", raw.as_ns().into()),
        ("exposed_comm_ns", exposed.as_ns().into()),
        ("hidden_comm_ns", hidden.as_ns().into()),
    ]
}

/// One list of mutable shard references per device, across the batch:
/// the shape [`Machine::parallel_phase`] hands to its per-device tasks.
fn per_device_shards<F: TwoAdicField>(batch: &mut [Sharded<F>]) -> Vec<Vec<&mut Vec<F>>> {
    let mut per_device: Vec<_> = (0..batch[0].num_gpus()).map(|_| Vec::new()).collect();
    for item in batch.iter_mut() {
        for (dev, shard) in item.shards_mut().iter_mut().enumerate() {
            per_device[dev].push(shard);
        }
    }
    per_device
}

/// Regroups a shard by residue: the elements at `first, first + stride, …`
/// for `first = 0, 1, …` in turn — the narrow transpose of its rows of
/// `stride` ([`interleave`]). With `stride = G` this is the four-step
/// bucket pack (bucket `d` collects `j ≡ d (mod G)`, so the chunk
/// transpose that follows delivers the cyclic shard); with
/// `stride = M / G` it is the unpack that undoes it.
fn regroup<F: Copy + 'static>(shard: &mut Vec<F>, stride: usize) {
    *shard = interleave(&shard.chunks_exact(stride).collect::<Vec<_>>());
}

/// The UniNTT multi-GPU NTT engine.
#[derive(Clone, Debug)]
pub struct UniNttEngine<F: TwoAdicField> {
    plan: DecompositionPlan,
    opts: UniNttOptions,
    field_spec: FieldSpec,
    // Twiddle tables are built lazily: cost-only simulations
    // (`simulate_forward`) never pay for them, and a 2^28 engine stays
    // cheap to construct.
    local: OnceLock<Ntt<F>>,
    outer: OnceLock<Ntt<F>>,
    /// `[ω_N, ω_N⁻¹]`, the boundary twiddles' roots.
    roots: OnceLock<[F; 2]>,
}

impl<F: TwoAdicField> UniNttEngine<F> {
    /// Plans and precomputes an engine for size `2^log_n` on `machine_cfg`.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_new`] returns an error, or (when its
    /// twiddles are first built) if `log_n` exceeds the field's
    /// two-adicity.
    pub fn new(
        log_n: u32,
        machine_cfg: &MachineConfig,
        opts: UniNttOptions,
        field_spec: FieldSpec,
    ) -> Self {
        Self::try_new(log_n, machine_cfg, opts, field_spec).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Plans an engine for size `2^log_n` on `machine_cfg`, or says why
    /// it cannot: the plan fails ([`DecompositionPlan::try_plan`]) or the
    /// shard would be smaller than the GPU count (needed by the
    /// block-cyclic output layout).
    pub fn try_new(
        log_n: u32,
        machine_cfg: &MachineConfig,
        opts: UniNttOptions,
        field_spec: FieldSpec,
    ) -> Result<Self, String> {
        let plan = DecompositionPlan::try_plan(log_n, machine_cfg, field_spec.elem_bytes)?;
        if plan.log_m < plan.log_g {
            return Err(format!(
                "shard of 2^{} elements is smaller than the 2^{} GPUs (block-cyclic layout needs log_m >= log_g)",
                plan.log_m, plan.log_g
            ));
        }
        Ok(Self {
            local: OnceLock::new(),
            outer: OnceLock::new(),
            roots: OnceLock::new(),
            plan,
            opts,
            field_spec,
        })
    }

    /// The decomposition plan in force.
    pub fn plan(&self) -> &DecompositionPlan {
        &self.plan
    }

    /// The optimization switches in force.
    pub fn options(&self) -> &UniNttOptions {
        &self.opts
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// Whether the multi-GPU exchange runs as a software pipeline.
    fn overlapped(&self) -> bool {
        self.plan.num_gpus() > 1 && self.opts.comm_mode == CommMode::Overlapped
    }

    /// Pipeline depth for the overlapped exchange: the explicit
    /// [`UniNttOptions::comm_chunks`] if set, else the planner's choice.
    fn comm_chunks(&self) -> u32 {
        match self.opts.comm_chunks {
            0 => self.plan.default_comm_chunks(),
            chunks => chunks,
        }
    }

    /// `(launches, vectors per launch)` for a batch of `b`: with
    /// [`UniNttOptions::batching`] the batch shares each kernel and
    /// collective, without it every vector pays its own.
    fn launches(&self, b: u64) -> (u64, u64) {
        if self.opts.batching {
            (1, b)
        } else {
            (b, 1)
        }
    }

    /// The lazily-built local (size-M) NTT context.
    fn local(&self) -> &Ntt<F> {
        self.local.get_or_init(|| Ntt::new(self.plan.log_m))
    }

    /// The lazily-built outer (size-G) NTT context.
    fn outer(&self) -> &Ntt<F> {
        self.outer.get_or_init(|| Ntt::new(self.plan.log_g))
    }

    /// Applies device `dev`'s boundary twiddle `ω_N^{±dev·k2}` to its
    /// shard, by a running product of the step `ω_N^{±dev}` (the
    /// on-the-fly generation the O2 optimization models).
    fn boundary_twiddle(&self, dev: usize, shard: &mut [F], direction: Direction) {
        let [forward, inverse] = *self.roots.get_or_init(|| {
            let omega = F::two_adic_generator(self.plan.log_n);
            [omega, omega.inverse().expect("roots of unity are nonzero")]
        });
        let root = match direction {
            Direction::Forward => forward,
            Direction::Inverse => inverse,
        };
        scale_by_powers(shard, F::ONE, root.pow(dev as u64));
    }

    /// Forward NTT of a single vector. See the module docs for layout
    /// semantics: input [`ShardLayout::Cyclic`], output
    /// [`ShardLayout::BlockCyclic`] (or natural blocks when requested).
    ///
    /// # Panics
    ///
    /// Panics if the input layout or size does not match, or if
    /// `machine.num_devices()` differs from the plan.
    pub fn forward(&self, machine: &mut Machine, data: &mut Sharded<F>) {
        self.forward_batch(machine, std::slice::from_mut(data));
    }

    /// Inverse NTT of a single vector (exact inverse of [`Self::forward`]).
    pub fn inverse(&self, machine: &mut Machine, data: &mut Sharded<F>) {
        self.inverse_batch(machine, std::slice::from_mut(data));
    }

    /// Forward NTT of a batch of equally-sized vectors.
    ///
    /// With [`UniNttOptions::batching`] the batch shares each pass and a
    /// single (larger) all-to-all; without it every vector pays its own
    /// kernels and collectives.
    pub fn forward_batch(&self, machine: &mut Machine, batch: &mut [Sharded<F>]) {
        let plane = Plane::Elements(batch);
        self.drive(machine, Direction::Forward, &[], F::ONE, plane);
    }

    /// Fault-tolerant [`Self::forward_batch`]: dropped collectives are
    /// retried up to `policy.max_retries` times with exponential backoff
    /// (charged as simulated fault time), and with
    /// [`RecoveryPolicy::verify_checksums`] corrupted chunks are detected
    /// and re-requested. Permanent failures (device loss, retry budget
    /// exhausted) surface as [`FabricError`]s — multi-machine callers
    /// re-plan around them ([`crate::ClusterNttEngine`]).
    ///
    /// # Errors
    ///
    /// [`FabricError::CollectiveDropped`] once retries are exhausted;
    /// [`FabricError::DeviceLost`] on device loss. On error the vectors'
    /// contents are unspecified (mid-transform); re-run from the caller's
    /// checkpoint.
    pub fn try_forward_batch(
        &self,
        machine: &mut Machine,
        batch: &mut [Sharded<F>],
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let plane = &mut Plane::Elements(batch);
        self.run(machine, Direction::Forward, &[], F::ONE, plane, policy)
    }

    /// Inverse NTT of a batch (exact inverse of [`Self::forward_batch`]).
    pub fn inverse_batch(&self, machine: &mut Machine, batch: &mut [Sharded<F>]) {
        let plane = Plane::Elements(batch);
        self.drive(machine, Direction::Inverse, &[], F::ONE, plane);
    }

    /// Fault-tolerant [`Self::inverse_batch`]; errors as
    /// [`Self::try_forward_batch`].
    pub fn try_inverse_batch(
        &self,
        machine: &mut Machine,
        batch: &mut [Sharded<F>],
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let plane = &mut Plane::Elements(batch);
        self.run(machine, Direction::Inverse, &[], F::ONE, plane, policy)
    }

    /// Fault-tolerant [`Self::forward`] for a single vector; errors as
    /// [`Self::try_forward_batch`].
    pub fn try_forward(
        &self,
        machine: &mut Machine,
        data: &mut Sharded<F>,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        self.try_forward_batch(machine, std::slice::from_mut(data), policy)
    }

    /// Fault-tolerant [`Self::inverse`] for a single vector; errors as
    /// [`Self::try_forward_batch`].
    pub fn try_inverse(
        &self,
        machine: &mut Machine,
        data: &mut Sharded<F>,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        self.try_inverse_batch(machine, std::slice::from_mut(data), policy)
    }

    /// Coset forward NTT: evaluates the coefficient vector on `shift·H`
    /// instead of `H` — the low-degree-extension call every ZKP prover
    /// makes. The coefficient scaling `cᵢ ← cᵢ·shiftⁱ` is fused into the
    /// first local pass (pure ALU when O1 is on, a standalone pass when
    /// off). Layout semantics are identical to [`Self::forward`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::forward`], or if
    /// `shift` is zero.
    pub fn coset_forward(&self, machine: &mut Machine, data: &mut Sharded<F>, shift: F) {
        self.coset_forward_batch(machine, std::slice::from_mut(data), shift);
    }

    /// Inverse of [`Self::coset_forward`]: recovers coefficients from
    /// evaluations on `shift·H`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::inverse`], or if
    /// `shift` is zero.
    pub fn coset_inverse(&self, machine: &mut Machine, data: &mut Sharded<F>, shift: F) {
        let shift_inv = shift.inverse().expect("coset shift must be nonzero");
        let plane = Plane::Elements(std::slice::from_mut(data));
        self.drive(
            machine,
            Direction::Inverse,
            &[Phase::Scale],
            shift_inv,
            plane,
        );
    }

    /// Coset forward NTT of a batch: one fused scale phase plus one
    /// batched transform (shared passes and collectives under O5).
    pub fn coset_forward_batch(&self, machine: &mut Machine, batch: &mut [Sharded<F>], shift: F) {
        let plane = Plane::Elements(batch);
        self.drive(machine, Direction::Forward, &[Phase::Scale], shift, plane);
    }

    /// Fault-tolerant [`Self::coset_forward_batch`]: the scale phase is
    /// collective-free, the transform runs under `policy`. Errors as
    /// [`Self::try_forward_batch`], panics as [`Self::coset_forward`].
    pub fn try_coset_forward_batch(
        &self,
        machine: &mut Machine,
        batch: &mut [Sharded<F>],
        shift: F,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let (plane, lead) = (&mut Plane::Elements(batch), &[Phase::Scale]);
        self.run(machine, Direction::Forward, lead, shift, plane, policy)
    }

    /// Cost-only [`Self::coset_forward_batch`]: the same walk with nothing
    /// to move.
    pub fn simulate_coset_forward(&self, machine: &mut Machine, batch: u64) {
        let plane = Plane::Unit(batch);
        self.drive(machine, Direction::Forward, &[Phase::Scale], F::ONE, plane);
    }

    /// Cost-only forward transform: [`Self::forward_batch`]'s walk with
    /// nothing to move, so it charges the same kernels and collectives and
    /// records the same spans without touching data. For transform sizes
    /// whose functional execution would not fit in host memory or time.
    pub fn simulate_forward(&self, machine: &mut Machine, batch: u64) {
        self.drive(machine, Direction::Forward, &[], F::ONE, Plane::Unit(batch));
    }

    /// Cost-only inverse transform: [`Self::inverse_batch`]'s walk with
    /// nothing to move.
    pub fn simulate_inverse(&self, machine: &mut Machine, batch: u64) {
        self.drive(machine, Direction::Inverse, &[], F::ONE, Plane::Unit(batch));
    }

    /// [`Self::run`] with [`RecoveryPolicy::none`], for the entry points
    /// that treat a fabric error as a bug: with no fault plan installed
    /// nothing can fail.
    pub(crate) fn drive(
        &self,
        machine: &mut Machine,
        direction: Direction,
        lead: &[Phase],
        shift: F,
        mut plane: Plane<'_, Sharded<F>>,
    ) {
        let policy = &RecoveryPolicy::none();
        self.run(machine, direction, lead, shift, &mut plane, policy)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// The one path every transform takes: checks the plane against the
    /// plan (once, first, on both planes), derives the schedule from the
    /// plan, the options and the resolved communication mode, walks it,
    /// and stamps the output layout. `lead` is what precedes the transform
    /// in the forward direction and follows it in the inverse one: a
    /// [`Phase::Scale`] by the powers of `shift` for a coset transform,
    /// the four-step baseline's pack and [`Phase::Convert`]. Transient
    /// collective faults are absorbed under `policy`, on either plane.
    ///
    /// # Errors
    ///
    /// The [`FabricError`] of a collective that outlived `policy` — the
    /// same error on both planes.
    pub(crate) fn run(
        &self,
        machine: &mut Machine,
        direction: Direction,
        lead: &[Phase],
        shift: F,
        plane: &mut Plane<'_, Sharded<F>>,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let g = self.plan.num_gpus();
        let natural_if = |natural: bool, otherwise| match natural {
            true => ShardLayout::NaturalBlocks,
            false => otherwise,
        };
        let front = natural_if(lead.contains(&Phase::Convert), ShardLayout::Cyclic);
        let back = natural_if(self.opts.natural_output, ShardLayout::BlockCyclic);
        let (expected, produced, name) = match direction {
            Direction::Forward => (front, back, "unintt-forward"),
            Direction::Inverse => (back, front, "unintt-inverse"),
        };
        let b = plane.len();
        let path = match plane {
            Plane::Elements(..) => "functional",
            Plane::Unit(_) => "simulate",
        };
        assert!(!shift.is_zero(), "coset shift must be nonzero");
        assert!(b > 0, "batch must not be empty");
        assert_eq!(
            machine.num_devices(),
            g,
            "machine does not match the engine's plan"
        );
        if let Plane::Elements(batch) = plane {
            for item in batch.iter() {
                assert_eq!(item.len(), self.n(), "vector size does not match engine");
                assert_eq!(item.num_gpus(), g, "vector sharded over wrong GPU count");
                assert_eq!(item.layout(), expected, "unexpected input layout");
            }
        }

        let pipelined = self.overlapped();
        let schedule = Schedule::derive(lead, g > 1, self.opts.natural_output);
        walk(
            &FABRIC,
            machine,
            &schedule,
            direction,
            || (name, vec![("batch", b.into()), ("path", path.into())]),
            |machine, phase, observed| {
                let overlap = match phase {
                    Phase::Exchange => pipelined.then_some(direction),
                    Phase::Convert | Phase::NaturalReorder => None,
                    compute => {
                        self.compute(machine, plane, compute, direction, pipelined, shift);
                        return Ok(Vec::new());
                    }
                };
                let pre = observed.then(|| machine.ledger());
                self.exchange(machine, plane, overlap, policy)?;
                Ok(pre.map_or_else(Vec::new, |pre| {
                    exchange_attrs(&pre, &machine.ledger(), overlap.is_some())
                }))
            },
        )?;
        if let Plane::Elements(batch) = plane {
            for item in batch.iter_mut() {
                item.set_layout(produced);
            }
        }
        Ok(())
    }

    /// Hands `launch` the kernels of one local-phase launch, in launch
    /// order: the inner passes (`adjacent = false`), or the
    /// *exchange-adjacent* tail (`adjacent = true`) — the final
    /// (twiddle-fused) pass, plus the standalone twiddle and pack kernels
    /// when O1/O4 are off. A pipelined exchange interleaves exactly the
    /// tail with its chunk transfers, and the local phase then leaves it
    /// out, so the totals never double-charge.
    fn local_kernels(
        &self,
        per_launch: u64,
        adjacent: bool,
        mut launch: impl FnMut(&KernelProfile),
    ) {
        let (plan, opts, fs) = (&self.plan, &self.opts, self.field_spec);
        let multi = plan.num_gpus() > 1;
        for (i, &radix) in plan.device_passes.iter().enumerate() {
            let last = i + 1 == plan.num_device_passes();
            if last == adjacent {
                let fused = last && multi && opts.fuse_twiddle;
                let pass = profiles::local_pass_profile(plan, opts, fs, radix, per_launch, fused);
                launch(&pass);
            }
        }
        if adjacent && multi && !opts.fuse_twiddle {
            launch(&profiles::twiddle_kernel_profile(
                plan, opts, fs, per_launch,
            ));
        }
        if adjacent && multi && !opts.fuse_exchange {
            // Standalone pack (forward) / unpack (inverse) pass.
            launch(&profiles::pack_kernel_profile(plan, fs, per_launch));
        }
    }

    /// Hands `launch` the kernels of one outer-phase launch — all of them
    /// exchange-adjacent, on the far side of the exchange from
    /// [`Self::local_kernels`]' tail.
    fn outer_kernels(&self, per_launch: u64, mut launch: impl FnMut(&KernelProfile)) {
        let (plan, opts, fs) = (&self.plan, &self.opts, self.field_spec);
        if !opts.fuse_exchange {
            launch(&profiles::pack_kernel_profile(plan, fs, per_launch));
        }
        launch(&profiles::outer_stage_profile(plan, opts, fs, per_launch));
    }

    /// One compute phase on every device: the host arithmetic on each
    /// shard the plane holds (none on the unit plane), then the phase's
    /// kernel launches, once per device.
    fn compute(
        &self,
        machine: &mut Machine,
        plane: &mut Plane<'_, Sharded<F>>,
        phase: Phase,
        direction: Direction,
        pipelined: bool,
        shift: F,
    ) {
        let (plan, opts, fs) = (&self.plan, &self.opts, self.field_spec);
        let g = plan.num_gpus();
        let (launches, per_launch) = self.launches(plane.len());
        let work = |dev: usize, shard: &mut Vec<F>| match (phase, direction) {
            // Device `dev` holds the elements `j·G + dev`, so its factors
            // `shift^i` are the geometric sequence `shift^dev·(shift^G)^j`.
            (Phase::Scale, _) => {
                scale_by_powers(shard, shift.pow(dev as u64), shift.pow(g as u64));
            }
            (Phase::Pack, Direction::Forward) => regroup(shard, g),
            (Phase::Pack, Direction::Inverse) => regroup(shard, plan.shard_len() / g),
            // The size-M transform, then the boundary twiddle; backwards,
            // the twiddle undone first.
            (Phase::Local, Direction::Forward) => {
                self.local().forward(shard);
                if g > 1 {
                    self.boundary_twiddle(dev, shard, direction);
                }
            }
            (Phase::Local, Direction::Inverse) => {
                if g > 1 {
                    self.boundary_twiddle(dev, shard, direction);
                }
                self.local().inverse(shard);
            }
            // A shard is the row-major `G × C` matrix of received chunks.
            (Phase::Outer, Direction::Forward) => self.outer().forward_columns(shard),
            (Phase::Outer, Direction::Inverse) => self.outer().inverse_columns(shard),
            _ => unreachable!("{phase:?} is an exchange"),
        };
        let charge = |ctx: &mut DeviceCtx<'_>| {
            let mut launch = |kernel: &KernelProfile| {
                ctx.launch(kernel);
            };
            for _ in 0..launches {
                match phase {
                    // Pure ALU inside the first pass when O1 is on.
                    Phase::Scale if opts.fuse_twiddle => {
                        launch(&profiles::fused_scale_profile(plan, fs, per_launch));
                    }
                    Phase::Scale => launch(&profiles::scale_kernel_profile(plan, fs, per_launch)),
                    Phase::Pack => launch(&profiles::pack_kernel_profile(plan, fs, per_launch)),
                    Phase::Local => {
                        self.local_kernels(per_launch, false, &mut launch);
                        if !pipelined {
                            self.local_kernels(per_launch, true, &mut launch);
                        }
                        // 1/N: fused into the last pass with O1, otherwise
                        // a standalone kernel.
                        if direction == Direction::Inverse && !opts.fuse_twiddle {
                            launch(&profiles::scale_kernel_profile(plan, fs, per_launch));
                        }
                    }
                    // A pipelined exchange charged these, and the local tail.
                    Phase::Outer if pipelined => {}
                    Phase::Outer => self.outer_kernels(per_launch, &mut launch),
                    _ => unreachable!("{phase:?} is an exchange"),
                }
            }
        };
        match plane {
            Plane::Elements(batch) => {
                machine.parallel_phase(&mut per_device_shards(batch), |ctx, dev, shards| {
                    shards.iter_mut().for_each(|shard| work(dev, shard));
                    charge(ctx);
                });
            }
            Plane::Unit(_) => machine.parallel_phase(&mut vec![(); g], |ctx, _, _| charge(ctx)),
        }
    }

    /// One all-to-all of `len` elements per device under the recovery
    /// policy — moving `shards`, or on the unit plane (`None`) nothing:
    /// transient drops are retried with exponential backoff (charged as
    /// simulated fault time); with verification on, a corrupted chunk is
    /// repaired inside the collective. Drops are atomic — no data moves on
    /// a failed attempt — so retrying the same buffers is always safe;
    /// under overlap a retry re-runs the whole pipeline (the failed
    /// attempt only charged the detection timeout).
    fn transfer(
        &self,
        machine: &mut Machine,
        mut shards: Option<&mut [Vec<F>]>,
        len: usize,
        policy: &RecoveryPolicy,
        compute: Option<&OverlapCompute<'_>>,
    ) -> Result<(), FabricError> {
        let (elem_bytes, verify) = (self.field_spec.elem_bytes, policy.verify_checksums);
        let mut attempt = 0;
        loop {
            let shards = shards.as_deref_mut();
            match machine.exchange_all_to_all(shards, len, elem_bytes, verify, compute) {
                Ok(_) => return Ok(()),
                Err(e) if e.is_transient() && attempt < policy.max_retries => {
                    let backoff = SimTime::from_ns(policy.backoff_ns(attempt));
                    machine.charge_fault("retry-backoff", backoff);
                    machine.count_retry();
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One exchange among the GPUs: one all-to-all carrying the whole
    /// batch (batching on) or one per vector (batching off), on either
    /// plane. With `overlap = Some(direction)` it is charged as a software
    /// pipeline interleaved with the exchange-adjacent kernels — forward
    /// streams local → fabric → outer, inverse streams outer → fabric →
    /// local; with `None` it blocks (the reordering and layout-conversion
    /// exchanges have no compute to hide behind).
    fn exchange(
        &self,
        machine: &mut Machine,
        plane: &mut Plane<'_, Sharded<F>>,
        overlap: Option<Direction>,
        policy: &RecoveryPolicy,
    ) -> Result<(), FabricError> {
        let g = self.plan.num_gpus();
        let m = self.plan.shard_len();
        let (transfers, per_launch) = self.launches(plane.len());
        let len = per_launch as usize * m;
        let lists = overlap.map(|direction| {
            let (mut local, mut outer) = (Vec::new(), Vec::new());
            self.local_kernels(per_launch, true, |kernel| local.push(*kernel));
            self.outer_kernels(per_launch, |kernel| outer.push(*kernel));
            match direction {
                Direction::Forward => (local, outer),
                Direction::Inverse => (outer, local),
            }
        });
        let compute = lists.as_ref().map(|(producers, consumers)| OverlapCompute {
            producers,
            consumers,
            chunks: self.comm_chunks(),
        });
        let compute = compute.as_ref();

        match plane {
            Plane::Elements(batch) if per_launch > 1 => {
                // Pack chunk-major so one all-to-all carries every vector:
                // combined chunk c = [item0 chunk c | item1 chunk c | …].
                let chunk = m / g;
                let mut combined: Vec<Vec<F>> = (0..g)
                    .map(|dev| {
                        let mut buf = Vec::with_capacity(batch.len() * m);
                        for c in 0..g {
                            for item in batch.iter() {
                                buf.extend_from_slice(
                                    &item.shards()[dev][c * chunk..(c + 1) * chunk],
                                );
                            }
                        }
                        buf
                    })
                    .collect();
                self.transfer(machine, Some(&mut combined[..]), len, policy, compute)?;
                for (dev, buf) in combined.into_iter().enumerate() {
                    // Received layout: for src in 0..g, for item, chunk data.
                    let mut received = buf.chunks_exact(chunk);
                    for src in 0..g {
                        for item in batch.iter_mut() {
                            item.shards_mut()[dev][src * chunk..(src + 1) * chunk]
                                .copy_from_slice(received.next().expect("g·b chunks"));
                        }
                    }
                }
            }
            Plane::Elements(batch) => {
                for item in batch.iter_mut() {
                    let shards = Some(&mut item.shards_mut()[..]);
                    self.transfer(machine, shards, len, policy, compute)?;
                }
            }
            Plane::Unit(_) => {
                for _ in 0..transfers {
                    self.transfer(machine, None, len, policy, compute)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{BabyBear, Bn254Fr, Field, Goldilocks};
    use unintt_gpu_sim::presets;

    fn random_vec<F: Field>(n: usize, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| F::random(&mut rng)).collect()
    }

    fn reference_forward<F: TwoAdicField>(input: &[F]) -> Vec<F> {
        let ntt = Ntt::<F>::new(input.len().trailing_zeros());
        let mut out = input.to_vec();
        ntt.forward(&mut out);
        out
    }

    fn run_forward<F: TwoAdicField>(
        log_n: u32,
        gpus: usize,
        opts: UniNttOptions,
        field_spec: FieldSpec,
        input: &[F],
    ) -> (Vec<F>, Machine) {
        let cfg = presets::a100_nvlink(gpus);
        let engine = UniNttEngine::<F>::new(log_n, &cfg, opts, field_spec);
        let mut machine = Machine::new(cfg, field_spec);
        let mut data = Sharded::distribute(input, gpus, ShardLayout::Cyclic);
        engine.forward(&mut machine, &mut data);
        (data.collect(), machine)
    }

    /// The four-step pack (`stride = G`) against its definition, then the
    /// unpack (`stride = M/G`) back to the shard: `G` up to 16, 8-, 4- and
    /// 32-byte fields.
    #[test]
    fn regroup_pack_then_unpack_round_trips() {
        fn check<F: Field>() {
            for (g, m) in [
                (1usize, 8usize),
                (2, 16),
                (4, 64),
                (8, 64),
                (8, 4096),
                (16, 256),
            ] {
                let shard = random_vec::<F>(m, m as u64);
                let mut moved = shard.clone();
                regroup(&mut moved, g);
                let buckets = (0..g).flat_map(|d| shard.iter().skip(d).step_by(g).copied());
                assert!(moved.iter().copied().eq(buckets), "pack g={g} m={m}");
                regroup(&mut moved, m / g);
                assert!(moved == shard, "unpack g={g} m={m}");
            }
        }
        check::<Goldilocks>();
        check::<BabyBear>();
        check::<Bn254Fr>();
    }

    #[test]
    fn forward_matches_reference_goldilocks() {
        for gpus in [1usize, 2, 4, 8] {
            for log_n in [6u32, 8, 10, 12] {
                let input = random_vec::<Goldilocks>(1 << log_n, log_n as u64);
                let expected = reference_forward(&input);
                let (actual, _) = run_forward(
                    log_n,
                    gpus,
                    UniNttOptions::full(),
                    FieldSpec::goldilocks(),
                    &input,
                );
                assert_eq!(actual, expected, "gpus={gpus} log_n={log_n}");
            }
        }
    }

    #[test]
    fn forward_matches_reference_bn254() {
        let log_n = 10u32;
        let input = random_vec::<Bn254Fr>(1 << log_n, 3);
        let expected = reference_forward(&input);
        for gpus in [2usize, 8] {
            let (actual, _) = run_forward(
                log_n,
                gpus,
                UniNttOptions::full(),
                FieldSpec::bn254_fr(),
                &input,
            );
            assert_eq!(actual, expected, "gpus={gpus}");
        }
    }

    #[test]
    fn natural_output_matches_reference_too() {
        let log_n = 10u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 7);
        let expected = reference_forward(&input);
        let mut opts = UniNttOptions::full();
        opts.natural_output = true;
        let (actual, _) = run_forward(log_n, 4, opts, FieldSpec::goldilocks(), &input);
        assert_eq!(actual, expected);
    }

    #[test]
    fn options_never_change_results() {
        let log_n = 9u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 11);
        let expected = reference_forward(&input);
        let mut all = vec![UniNttOptions::full(), UniNttOptions::none()];
        all.extend((1..=5).map(UniNttOptions::ablate));
        for opts in all {
            let (actual, _) = run_forward(log_n, 4, opts, FieldSpec::goldilocks(), &input);
            assert_eq!(actual, expected, "opts={opts:?}");
        }
    }

    #[test]
    fn roundtrip_exact() {
        for gpus in [1usize, 4] {
            let log_n = 11u32;
            let input = random_vec::<Goldilocks>(1 << log_n, 13);
            let cfg = presets::a100_nvlink(gpus);
            let fs = FieldSpec::goldilocks();
            let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
            let mut machine = Machine::new(cfg, fs);
            let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
            engine.forward(&mut machine, &mut data);
            engine.inverse(&mut machine, &mut data);
            assert_eq!(data.layout(), ShardLayout::Cyclic);
            assert_eq!(data.collect(), input, "gpus={gpus}");
        }
    }

    #[test]
    fn roundtrip_with_natural_output() {
        let log_n = 10u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 17);
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::goldilocks();
        let mut opts = UniNttOptions::full();
        opts.natural_output = true;
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, opts, fs);
        let mut machine = Machine::new(cfg, fs);
        let mut data = Sharded::distribute(&input, 8, ShardLayout::Cyclic);
        engine.forward(&mut machine, &mut data);
        assert_eq!(data.layout(), ShardLayout::NaturalBlocks);
        engine.inverse(&mut machine, &mut data);
        assert_eq!(data.collect(), input);
    }

    #[test]
    fn batch_matches_individual() {
        let log_n = 8u32;
        let gpus = 4usize;
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);

        let inputs: Vec<Vec<Goldilocks>> =
            (0..5).map(|i| random_vec(1 << log_n, 100 + i)).collect();

        let mut machine = Machine::new(cfg, fs);
        let mut batch: Vec<Sharded<Goldilocks>> = inputs
            .iter()
            .map(|x| Sharded::distribute(x, gpus, ShardLayout::Cyclic))
            .collect();
        engine.forward_batch(&mut machine, &mut batch);

        for (input, out) in inputs.iter().zip(&batch) {
            assert_eq!(out.collect(), reference_forward(input));
        }
    }

    #[test]
    fn batch_roundtrip() {
        let log_n = 8u32;
        let gpus = 4usize;
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        let inputs: Vec<Vec<Goldilocks>> =
            (0..3).map(|i| random_vec(1 << log_n, 200 + i)).collect();
        let mut machine = Machine::new(cfg, fs);
        let mut batch: Vec<Sharded<Goldilocks>> = inputs
            .iter()
            .map(|x| Sharded::distribute(x, gpus, ShardLayout::Cyclic))
            .collect();
        engine.forward_batch(&mut machine, &mut batch);
        engine.inverse_batch(&mut machine, &mut batch);
        for (input, out) in inputs.iter().zip(&batch) {
            assert_eq!(&out.collect(), input);
        }
    }

    #[test]
    fn ablations_cost_more_than_full() {
        let log_n = 20u32;
        let gpus = 8usize;
        let input = random_vec::<Goldilocks>(1 << log_n, 23);
        let (_, full_machine) = run_forward(
            log_n,
            gpus,
            UniNttOptions::full(),
            FieldSpec::goldilocks(),
            &input,
        );
        let full_time = full_machine.max_clock_ns();
        for which in [1u32, 2, 3, 4] {
            let (_, m) = run_forward(
                log_n,
                gpus,
                UniNttOptions::ablate(which),
                FieldSpec::goldilocks(),
                &input,
            );
            assert!(
                m.max_clock_ns() > full_time,
                "ablation {which} should slow the engine: full={full_time} ablated={}",
                m.max_clock_ns()
            );
        }
    }

    #[test]
    fn single_all_to_all_in_default_mode() {
        let log_n = 16u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 29);
        let (_, machine) = run_forward(
            log_n,
            8,
            UniNttOptions::full(),
            FieldSpec::goldilocks(),
            &input,
        );
        // One collective per device.
        assert_eq!(machine.stats().collectives, 8);
    }

    #[test]
    fn overlapped_and_blocking_outputs_bit_identical() {
        let log_n = 12u32;
        let gpus = 8usize;
        let input = random_vec::<Goldilocks>(1 << log_n, 31);
        let mut blocking = UniNttOptions::full();
        blocking.comm_mode = CommMode::Blocking;
        let (b_out, b_machine) =
            run_forward(log_n, gpus, blocking, FieldSpec::goldilocks(), &input);
        let (o_out, o_machine) = run_forward(
            log_n,
            gpus,
            UniNttOptions::full(),
            FieldSpec::goldilocks(),
            &input,
        );
        assert_eq!(o_out, b_out, "overlap must not change any output bit");
        // Overlap reschedules work, it never adds or removes any: same
        // kernels, same bytes on the wire.
        assert_eq!(
            b_machine.stats().kernels_launched,
            o_machine.stats().kernels_launched
        );
        assert_eq!(
            b_machine.stats().interconnect_bytes_sent,
            o_machine.stats().interconnect_bytes_sent
        );
    }

    #[test]
    fn overlapped_roundtrip_exact() {
        let log_n = 11u32;
        let input = random_vec::<Goldilocks>(1 << log_n, 33);
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        assert!(engine.overlapped(), "full() must default to overlap");
        let mut machine = Machine::new(cfg, fs);
        let mut data = Sharded::distribute(&input, 8, ShardLayout::Cyclic);
        engine.forward(&mut machine, &mut data);
        engine.inverse(&mut machine, &mut data);
        assert_eq!(data.collect(), input);
        assert!(machine.stats().comm_hidden_ns >= 0.0);
    }

    #[test]
    fn overlap_hides_exchange_time_at_scale() {
        let log_n = 24u32;
        let gpus = 8;
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let mut blocking_opts = UniNttOptions::full();
        blocking_opts.comm_mode = CommMode::Blocking;
        let eb = UniNttEngine::<Goldilocks>::new(log_n, &cfg, blocking_opts, fs);
        let mut mb = Machine::new(cfg.clone(), fs);
        eb.simulate_forward(&mut mb, 1);
        let eo = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        let mut mo = Machine::new(cfg, fs);
        eo.simulate_forward(&mut mo, 1);
        assert!(
            mo.max_clock_ns() < mb.max_clock_ns(),
            "overlap must beat blocking at 2^24: {} vs {}",
            mo.max_clock_ns(),
            mb.max_clock_ns()
        );
        assert!(mo.stats().comm_hidden_ns > 0.0);
        // The raw (overlap-blind) interconnect charge is unchanged — only
        // the exposed time shrinks.
        assert!(
            (mb.stats().raw_time_ns.interconnect - mo.stats().raw_time_ns.interconnect).abs()
                < 1e-6
        );
        assert_eq!(mb.stats().kernels_launched, mo.stats().kernels_launched);
    }

    #[test]
    fn single_chunk_overlap_matches_blocking_clock() {
        // chunks = 1 degenerates to the blocking schedule exactly, so the
        // two modes must charge the same makespan.
        let log_n = 20u32;
        let cfg = presets::a100_nvlink(8);
        let fs = FieldSpec::goldilocks();
        let mut blocking_opts = UniNttOptions::full();
        blocking_opts.comm_mode = CommMode::Blocking;
        let mut one_chunk = UniNttOptions::full();
        one_chunk.comm_chunks = 1;
        let eb = UniNttEngine::<Goldilocks>::new(log_n, &cfg, blocking_opts, fs);
        let eo = UniNttEngine::<Goldilocks>::new(log_n, &cfg, one_chunk, fs);
        let mut mb = Machine::new(cfg.clone(), fs);
        eb.simulate_forward(&mut mb, 1);
        eb.simulate_inverse(&mut mb, 1);
        let mut mo = Machine::new(cfg, fs);
        eo.simulate_forward(&mut mo, 1);
        eo.simulate_inverse(&mut mo, 1);
        let (b, o) = (mb.max_clock_ns(), mo.max_clock_ns());
        assert!((b - o).abs() < 1e-6 * b, "blocking {b} vs one-chunk {o}");
    }

    #[test]
    fn overlapped_recovery_matches_clean_run() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let log_n = 10u32;
        let gpus = 4usize;
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::full(), fs);
        let input = random_vec::<Goldilocks>(1 << log_n, 37);

        let mut clean = Machine::new(cfg.clone(), fs);
        let mut expected = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.forward(&mut clean, &mut expected);

        // A dropped then a corrupted exchange, both under overlap: the
        // retry and the checksum repair must compose with the pipeline.
        let mut m = Machine::new(cfg, fs);
        m.set_fault_plan(FaultPlan::scripted(vec![
            FaultEvent {
                seq: 0,
                kind: FaultKind::Drop,
            },
            FaultEvent {
                seq: 1,
                kind: FaultKind::Corrupt { src: 2, dst: 1 },
            },
        ]));
        let mut data = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine
            .try_forward(&mut m, &mut data, &RecoveryPolicy::default())
            .unwrap();
        assert_eq!(data.collect(), expected.collect());
        assert!(m.stats().retries > 0, "the drop must have been retried");
        assert!(
            m.stats().interconnect_bytes_retransmitted > 0,
            "the corruption must have been repaired by retransmission"
        );
    }

    #[test]
    fn run_takes_the_same_faults_on_both_planes() {
        use unintt_gpu_sim::{FaultEvent, FaultKind, FaultPlan};
        let (log_n, gpus) = (10u32, 4usize);
        let cfg = presets::a100_nvlink(gpus);
        let fs = FieldSpec::goldilocks();
        let at = |seq, kind| FaultEvent { seq, kind };
        let plans = [
            (
                "drop-and-retry",
                vec![at(0, FaultKind::Drop), at(1, FaultKind::Drop)],
            ),
            (
                "verified-corrupt",
                vec![at(0, FaultKind::Corrupt { src: 2, dst: 1 })],
            ),
            (
                "device-loss",
                vec![at(0, FaultKind::DeviceLoss { device: 3 })],
            ),
        ];
        let blocking = UniNttOptions {
            comm_mode: CommMode::Blocking,
            ..UniNttOptions::full()
        };
        let unbatched = UniNttOptions {
            batching: false,
            natural_output: true,
            ..UniNttOptions::full()
        };
        for opts in [UniNttOptions::full(), blocking, unbatched] {
            let engine = UniNttEngine::<Goldilocks>::new(log_n, &cfg, opts, fs);
            for (name, events) in &plans {
                for policy in [RecoveryPolicy::default(), RecoveryPolicy::none()] {
                    let [elements, unit] = [true, false].map(|elements| {
                        let mut m = Machine::new(cfg.clone(), fs);
                        m.set_fault_plan(FaultPlan::scripted(events.clone()));
                        let mut batch: Vec<_> = (0..2)
                            .map(|i| {
                                let input = random_vec::<Goldilocks>(1 << log_n, i);
                                Sharded::distribute(&input, gpus, ShardLayout::Cyclic)
                            })
                            .collect();
                        let mut plane = match elements {
                            true => Plane::Elements(&mut batch[..]),
                            false => Plane::Unit(2),
                        };
                        let one = Goldilocks::ONE;
                        let result =
                            engine.run(&mut m, Direction::Forward, &[], one, &mut plane, &policy);
                        let log = m.fault_log().to_vec();
                        (result, m.max_clock_ns().to_bits(), m.stats(), log)
                    });
                    let case = format!("{opts:?} {name} {policy:?}");
                    let fails = match *name {
                        "drop-and-retry" => policy.max_retries == 0,
                        "device-loss" => true,
                        _ => false,
                    };
                    assert_eq!(elements.0.is_err(), fails, "{case}: {:?}", elements.0);
                    if *name == "verified-corrupt" && policy.verify_checksums {
                        assert!(elements.2.interconnect_bytes_retransmitted > 0, "{case}");
                    }
                    assert_eq!(elements, unit, "{case}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unexpected input layout")]
    fn wrong_layout_rejected() {
        let cfg = presets::a100_nvlink(4);
        let fs = FieldSpec::goldilocks();
        let engine = UniNttEngine::<Goldilocks>::new(8, &cfg, UniNttOptions::full(), fs);
        let mut machine = Machine::new(cfg, fs);
        let input = random_vec::<Goldilocks>(256, 1);
        let mut data = Sharded::distribute(&input, 4, ShardLayout::NaturalBlocks);
        engine.forward(&mut machine, &mut data);
    }
}

#[cfg(test)]
mod coset_tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use unintt_ff::{Field, Goldilocks, PrimeField};
    use unintt_gpu_sim::presets;

    fn random_vec(n: usize, seed: u64) -> Vec<Goldilocks> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Goldilocks::random(&mut rng)).collect()
    }

    #[test]
    fn coset_forward_matches_cpu_library() {
        let log_n = 10u32;
        let gpus = 4usize;
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(gpus);
        let engine =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let mut machine = Machine::new(cfg, fs);

        let coeffs = random_vec(1 << log_n, 1);
        let shift = Goldilocks::GENERATOR;

        let expected = {
            let ntt = Ntt::<Goldilocks>::new(log_n);
            let mut v = coeffs.clone();
            unintt_ntt::coset_ntt(&ntt, &mut v, shift);
            v
        };

        let mut data = Sharded::distribute(&coeffs, gpus, ShardLayout::Cyclic);
        engine.coset_forward(&mut machine, &mut data, shift);
        assert_eq!(data.collect(), expected);

        engine.coset_inverse(&mut machine, &mut data, shift);
        assert_eq!(data.collect(), coeffs);
    }

    #[test]
    fn coset_with_unit_shift_is_plain_forward() {
        let log_n = 8u32;
        let gpus = 8usize;
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(gpus);
        let engine =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);

        let input = random_vec(1 << log_n, 2);
        let mut m1 = Machine::new(cfg.clone(), fs);
        let mut d1 = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.coset_forward(&mut m1, &mut d1, Goldilocks::ONE);

        let mut m2 = Machine::new(cfg, fs);
        let mut d2 = Sharded::distribute(&input, gpus, ShardLayout::Cyclic);
        engine.forward(&mut m2, &mut d2);

        assert_eq!(d1.collect(), d2.collect());
        // The coset path costs strictly more (the fused scale).
        assert!(m1.max_clock_ns() > m2.max_clock_ns());
    }

    #[test]
    fn coset_batch_matches_individual() {
        let log_n = 10u32;
        let gpus = 4usize;
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(gpus);
        let engine =
            UniNttEngine::<Goldilocks>::new(log_n, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let shift = Goldilocks::GENERATOR;
        let inputs: Vec<Vec<Goldilocks>> = (0..5).map(|i| random_vec(1 << log_n, i)).collect();

        // Individual transforms (separate machine) as the reference.
        let mut expected = Vec::new();
        for input in &inputs {
            let mut m = Machine::new(cfg.clone(), fs);
            let mut d = Sharded::distribute(input, gpus, ShardLayout::Cyclic);
            engine.coset_forward(&mut m, &mut d, shift);
            expected.push(d.collect());
        }

        // Batched.
        let mut real = Machine::new(cfg, fs);
        let mut batch: Vec<Sharded<Goldilocks>> = inputs
            .iter()
            .map(|x| Sharded::distribute(x, gpus, ShardLayout::Cyclic))
            .collect();
        engine.coset_forward_batch(&mut real, &mut batch, shift);
        for (out, exp) in batch.iter().zip(&expected) {
            assert_eq!(&out.collect(), exp);
        }
    }

    #[test]
    fn empty_cost_only_batch_is_rejected_before_anything_is_charged() {
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(2);
        let engine = UniNttEngine::<Goldilocks>::new(6, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let mut machine = Machine::new(cfg, fs);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.simulate_coset_forward(&mut machine, 0);
        }));
        assert!(caught.is_err(), "an empty batch must be rejected");
        assert_eq!(machine.stats().kernels_launched, 0);
        assert_eq!(machine.max_clock_ns(), 0.0);
    }

    #[test]
    #[should_panic(expected = "batch must not be empty")]
    fn empty_cost_only_batch_rejected() {
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(2);
        let engine = UniNttEngine::<Goldilocks>::new(6, &cfg, UniNttOptions::tuned_for(&fs), fs);
        engine.simulate_coset_forward(&mut Machine::new(cfg, fs), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_shift_rejected() {
        let fs = FieldSpec::goldilocks();
        let cfg = presets::a100_nvlink(2);
        let engine = UniNttEngine::<Goldilocks>::new(6, &cfg, UniNttOptions::tuned_for(&fs), fs);
        let mut machine = Machine::new(cfg, fs);
        let input = random_vec(64, 4);
        let mut data = Sharded::distribute(&input, 2, ShardLayout::Cyclic);
        engine.coset_forward(&mut machine, &mut data, Goldilocks::ZERO);
    }
}
