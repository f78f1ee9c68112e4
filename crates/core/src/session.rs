//! The DarKnight session: the §3.1 execution flow.
//!
//! One session owns the (simulated) enclave and an execution backend
//! over the GPU fleet, and drives a [`dk_nn::Sequential`] model through
//! private forward/backward passes:
//!
//! 1. activations are max-abs normalized and quantized into the field
//!    (Algorithm 1) **inside the TEE**;
//! 2. the virtual batch of `K` activations plus `M` fresh noise vectors
//!    is masked by the current [`EncodingScheme`] and shipped to GPUs,
//!    which also *store* the encodings for backward reuse (§6);
//! 3. GPUs run the bilinear op; the TEE decodes with `A^{-1}`, checks
//!    the redundant equation, dequantizes, adds bias and runs the
//!    non-linear layers on plaintext floats;
//! 4. backward: bias gradients and non-linear backprop stay in the TEE;
//!    data gradients are offloaded unencoded (they carry no input
//!    information, §4.2); weight gradients come back only as the
//!    aggregate `∇W = (1/K)·Σ_j γ_j Eq_j`.
//!
//! Because the encoding mixes the `K` samples linearly, all samples of a
//! virtual batch share one quantization scale per layer — otherwise the
//! γ-weighted aggregate would blend incompatible fixed-point scales.
//!
//! Backward integrity: the paper dedicates the spare worker to
//! "redundant computation to verify the results" (§4.5). Here the spare
//! recomputes one TEE-chosen `Eq_{j*}` (the TEE regenerates `x̄_{j*}`
//! from its retained quantized inputs and noise) and the session
//! compares; it also recomputes the unencoded data-gradient job. A
//! mismatch aborts the step.
//!
//! # Execution backends and determinism
//!
//! The session is generic over a [`GpuExec`] backend. With the default
//! [`GpuCluster`] it is the **sequential reference**: one virtual batch
//! in flight, blocking dispatch. The pipelined engine
//! ([`crate::engine`]) runs the *same* session code over a
//! [`dk_gpu::DispatchClient`], with several numbered batches in flight
//! on different TEE lanes.
//!
//! What makes the two modes bit-for-bit identical is that **all
//! per-batch randomness is derived statelessly**: batch `b` of a session
//! seeded `s` draws its scheme from `derive(s, b)` and its layer-`l`
//! noise from `derive(derive(s, b), l)` — never from a shared mutable
//! RNG stream whose position would depend on execution order. The same
//! derivation also makes recovery/replay deterministic.
//!
//! # Virtual-batch lifecycle
//!
//! [`DarknightSession::begin_virtual_batch`] is the *single owner* of
//! batch state: it retires the previous batch (contexts, stored
//! encodings, retained enclave bytes) and installs the next numbered
//! batch. Every public pass entry point routes through it — a pass on a
//! batch that already ran one auto-begins the next batch, so stale
//! contexts can never be reused across entry points.
//!
//! # Buffer ownership
//!
//! Every buffer a pass takes from the session pool, and every enclave
//! byte it charges, has exactly one owner and one way back:
//!
//! * An offload call's transient buffers — quantized rows, noise,
//!   encodings, jobs, worker outputs, decoded rows — and its working-set
//!   charge live in one per-call `Scratch`. The call's single exit hands
//!   it to `reclaim`: worker outputs go back to the backend's pools,
//!   everything else to the session pool, the charge to the enclave.
//! * A training forward moves its quantized inputs and noise (and their
//!   charge) into the layer's `LinearCtx`. The context is retired once,
//!   by that layer's backward offload or by the batch's retirement.
//! * An activation belongs to the layer walk until the next layer has
//!   consumed it; the pass output belongs to the caller
//!   ([`DarknightSession::recycle_output`] hands it back).
//!
//! Abort paths therefore need no code of their own: an error leaves
//! through the same exit as success.

use crate::config::DarknightConfig;
use crate::engine::StepPlan;
use crate::error::DarknightError;
use crate::scheme::EncodingScheme;
use dk_field::{derive_seed, F25, FieldRng, P25};
use dk_gpu::{GpuCluster, GpuExec, LinearJob, WorkerId};
use dk_linalg::{ops, Tensor, Workspace};
use dk_nn::layers::{Conv2d, Dense, Layer, Residual};
use dk_nn::loss::softmax_cross_entropy;
use dk_nn::optim::Sgd;
use dk_nn::Sequential;
use dk_tee::{Enclave, EpcConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Domain separators for the stateless per-batch seed derivation.
const DOMAIN_SCHEME: u64 = 0x5343_4845;
const DOMAIN_NOISE: u64 = 0x4e4f_4953;
const DOMAIN_JSTAR: u64 = 0x4a53_5441;

/// Counters describing one session's offload traffic and work.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Linear jobs dispatched to GPUs.
    pub linear_jobs: u64,
    /// Field elements produced by TEE encoding.
    pub encoded_elems: u64,
    /// Field elements consumed by TEE decoding.
    pub decoded_elems: u64,
    /// Bytes of masked data sent TEE→GPU.
    pub bytes_to_gpus: u64,
    /// Bytes of results received GPU→TEE.
    pub bytes_from_gpus: u64,
    /// Redundant-equation / spot checks performed.
    pub integrity_checks: u64,
    /// Elements processed by non-linear TEE ops.
    pub nonlinear_elems: u64,
    /// Layers repaired by TEE-side fault localization (recovery mode).
    pub recoveries: u64,
}

impl SessionStats {
    /// Adds another session's counters into this one (the pipelined
    /// engine aggregates its lanes this way).
    pub fn merge(&mut self, o: &SessionStats) {
        self.linear_jobs += o.linear_jobs;
        self.encoded_elems += o.encoded_elems;
        self.decoded_elems += o.decoded_elems;
        self.bytes_to_gpus += o.bytes_to_gpus;
        self.bytes_from_gpus += o.bytes_from_gpus;
        self.integrity_checks += o.integrity_checks;
        self.nonlinear_elems += o.nonlinear_elems;
        self.recoveries += o.recoveries;
    }
}

/// Result of one private training step.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Mean softmax cross-entropy of the virtual batch.
    pub loss: f32,
    /// Training accuracy of the virtual batch.
    pub accuracy: f32,
}

/// Per-linear-layer state the TEE keeps between forward and backward.
#[derive(Debug, Clone)]
struct LinearCtx {
    norm_x: f32,
    norm_w: f32,
    input_shape: Vec<usize>,
    weights_q: Arc<Tensor<F25>>,
    /// Noise vectors used at this layer (needed to regenerate `x̄_{j*}`
    /// for the backward spot check).
    noise: Vec<Vec<F25>>,
    /// Quantized inputs, kept for the same check.
    inputs_q: Vec<Vec<F25>>,
    enclave_bytes: usize,
}

/// Everything one offload call holds: its pool-backed buffers and its
/// enclave working-set charge. The call body fills it and returns early
/// with plain `?`; the call's single exit hands it to
/// [`DarknightSession::reclaim`], on success and on every abort alike.
/// Buffers moved into a retained [`LinearCtx`] are no longer held here.
#[derive(Default)]
struct Scratch {
    /// Enclave bytes charged by this call and not handed to a context.
    work_bytes: usize,
    inputs_q: Vec<Vec<F25>>,
    noise: Vec<Vec<F25>>,
    /// Decoded forward output rows.
    rows: Vec<Vec<F25>>,
    /// The shared-scale quantization row, or the decoded weight gradient.
    flat: Vec<F25>,
    norms: Vec<f32>,
    /// Offloaded and TEE-checked jobs; their encoded inputs are recovered
    /// with [`LinearJob::into_input`].
    jobs: Vec<LinearJob>,
    results: Vec<dk_gpu::WorkerResult>,
    /// Worker outputs; they go back to the backend's pools.
    outputs: Vec<Tensor<F25>>,
}

/// A bilinear layer as the offload cycle sees it. Conv and dense differ
/// only in the jobs they build and in their bias ops; the rest of the
/// cycle is shared.
enum Bilinear<'a> {
    Conv(&'a mut Conv2d),
    Dense(&'a mut Dense),
}

impl Bilinear<'_> {
    fn weights(&self) -> &Tensor<f32> {
        match self {
            Bilinear::Conv(l) => l.weights(),
            Bilinear::Dense(l) => l.weights(),
        }
    }

    fn add_bias(&self, y: &mut Tensor<f32>) {
        match self {
            Bilinear::Conv(l) => ops::add_bias_nchw(y, l.bias().as_slice()),
            Bilinear::Dense(l) => ops::add_bias_rows(y, l.bias().as_slice()),
        }
    }

    /// Bias gradient: a cheap float reduction inside the TEE.
    fn accumulate_bias_grad(&mut self, dy: &Tensor<f32>) {
        match self {
            Bilinear::Conv(l) => {
                let bg = ops::bias_grad_nchw(dy);
                l.accumulate_bias_grad(&Tensor::from_vec(&[bg.len()], bg));
            }
            Bilinear::Dense(l) => {
                let bg = ops::bias_grad_rows(dy);
                l.accumulate_bias_grad(&Tensor::from_vec(&[bg.len()], bg));
            }
        }
    }

    fn accumulate_weight_grad(&mut self, gw: &Tensor<f32>) {
        match self {
            Bilinear::Conv(l) => l.accumulate_weight_grad(gw),
            Bilinear::Dense(l) => l.accumulate_weight_grad(gw),
        }
    }

    fn forward_job(&self, weights: Arc<Tensor<F25>>, x: Tensor<F25>) -> LinearJob {
        match self {
            Bilinear::Conv(l) => LinearJob::ConvForward { weights, x, shape: *l.shape() },
            Bilinear::Dense(_) => LinearJob::DenseForward { weights, x },
        }
    }

    /// The weight-gradient job a worker runs against the encoding it
    /// stored for `layer_id`.
    fn stored_wgrad_job(
        &self,
        layer_id: u64,
        delta_batch: Arc<Tensor<F25>>,
        beta: Vec<F25>,
    ) -> LinearJob {
        match self {
            Bilinear::Conv(l) => {
                LinearJob::ConvWeightGradStored { delta_batch, beta, layer_id, shape: *l.shape() }
            }
            Bilinear::Dense(_) => LinearJob::DenseWeightGradStored { delta_batch, beta, layer_id },
        }
    }

    /// The same weight-gradient job with the encoding supplied explicitly.
    fn wgrad_job(&self, delta: Tensor<F25>, x: Tensor<F25>) -> LinearJob {
        match self {
            Bilinear::Conv(l) => LinearJob::ConvWeightGrad { delta, x, shape: *l.shape() },
            Bilinear::Dense(_) => LinearJob::DenseWeightGrad { delta, x },
        }
    }

    fn data_grad_job(
        &self,
        weights: Arc<Tensor<F25>>,
        delta: Tensor<F25>,
        input_shape: &[usize],
    ) -> LinearJob {
        match self {
            Bilinear::Conv(l) => LinearJob::ConvBackwardData {
                weights,
                delta,
                shape: *l.shape(),
                input_hw: (input_shape[2], input_shape[3]),
            },
            Bilinear::Dense(_) => LinearJob::DenseBackwardData { weights, delta },
        }
    }
}

/// Number of differing elements between a result and its recomputation.
fn mismatches(a: &Tensor<F25>, b: &Tensor<F25>) -> usize {
    a.as_slice().iter().zip(b.as_slice()).filter(|(x, y)| x != y).count()
}

/// A DarKnight execution session (see module docs). Generic over the
/// [`GpuExec`] backend; `DarknightSession` (the default) is the blocking
/// sequential reference over a [`GpuCluster`].
#[derive(Debug)]
pub struct DarknightSession<X: GpuExec = GpuCluster> {
    cfg: DarknightConfig,
    enclave: Enclave,
    cluster: X,
    scheme: EncodingScheme,
    ctxs: HashMap<u64, LinearCtx>,
    stats: SessionStats,
    /// Number of the installed virtual batch; batch `b`'s randomness is
    /// derived from `(cfg.seed, b)` alone.
    batch_index: u64,
    batch_seed: u64,
    /// Context ids of the installed batch start here (`batch << 32`),
    /// so concurrently in-flight batches never collide on a worker.
    ctx_base: u64,
    next_id: u64,
    /// True once a pass ran on the installed batch: the next pass entry
    /// auto-begins a fresh batch instead of reusing stale contexts.
    pass_started: bool,
    /// Context ids whose encodings the backend currently stores for this
    /// batch (released when the batch retires).
    stored_ctxs: Vec<u64>,
    /// Optional pre-quantized weights for the current step (weights are
    /// frozen within a step, so the engine extracts them once).
    plan: Option<Arc<StepPlan>>,
    quarantined: Vec<WorkerId>,
    /// The session's TEE-side buffer pool: quantization rows, noise
    /// vectors, stacking buffers, decoded rows and float activations
    /// all cycle through it across virtual batches, so the steady state
    /// stops re-allocating per layer per batch. Each pipelined lane
    /// owns one session and therefore one workspace — no sharing.
    ws: Workspace,
}

impl DarknightSession<GpuCluster> {
    /// Creates a session over the given cluster with the default SGXv1
    /// enclave budget.
    ///
    /// # Errors
    ///
    /// [`DarknightError::InsufficientWorkers`] if the cluster is smaller
    /// than `K + M (+1)`.
    pub fn new(cfg: DarknightConfig, cluster: GpuCluster) -> Result<Self, DarknightError> {
        Self::with_enclave(cfg, cluster, EpcConfig::default())
    }

    /// Creates a session with a custom enclave memory budget (memory
    /// experiments shrink it to force paging).
    ///
    /// # Errors
    ///
    /// [`DarknightError::InsufficientWorkers`] if the cluster is smaller
    /// than `K + M (+1)`.
    pub fn with_enclave(
        cfg: DarknightConfig,
        cluster: GpuCluster,
        epc: EpcConfig,
    ) -> Result<Self, DarknightError> {
        Self::with_backend(cfg, cluster, epc)
    }
}

impl<X: GpuExec> DarknightSession<X> {
    /// Creates a session over an arbitrary execution backend (the
    /// pipelined engine builds its TEE lanes this way, sharing one
    /// [`dk_gpu::GpuDispatcher`] across lanes).
    ///
    /// # Errors
    ///
    /// [`DarknightError::InsufficientWorkers`] if the backend exposes
    /// fewer workers than `K + M (+1)`.
    pub fn with_backend(
        cfg: DarknightConfig,
        cluster: X,
        epc: EpcConfig,
    ) -> Result<Self, DarknightError> {
        if cluster.num_workers() < cfg.workers_required() {
            return Err(DarknightError::InsufficientWorkers {
                required: cfg.workers_required(),
                available: cluster.num_workers(),
            });
        }
        // Batch-0 state, built once (identical to `install_batch(0)`).
        let batch_seed = derive_seed(cfg.seed(), 0);
        let scheme = EncodingScheme::generate(
            cfg.k(),
            cfg.m(),
            cfg.integrity(),
            &mut FieldRng::derived(batch_seed, DOMAIN_SCHEME),
        );
        Ok(Self {
            cfg,
            enclave: Enclave::new(epc, b"darknight-enclave-v1"),
            cluster,
            scheme,
            ctxs: HashMap::new(),
            stats: SessionStats::default(),
            batch_index: 0,
            batch_seed,
            ctx_base: 0,
            next_id: 0,
            // A fresh session's first pass must open batch 1, not run
            // on the constructor's batch-0 state.
            pass_started: true,
            stored_ctxs: Vec::new(),
            plan: None,
            quarantined: Vec::new(),
            ws: Workspace::new(),
        })
    }

    /// Allocation counters of the session's TEE-side buffer pool.
    pub fn workspace_stats(&self) -> dk_linalg::WorkspaceStats {
        self.ws.stats()
    }

    /// The single reclaim point: gives back everything a [`Scratch`]
    /// still holds — worker outputs to the backend's pools, encoded job
    /// inputs and every other buffer to the session pool, the charge to
    /// the enclave.
    fn reclaim(&mut self, mut s: Scratch) {
        let released = self.enclave.release(s.work_bytes);
        debug_assert!(released.is_ok(), "reclaimed more enclave bytes than were charged");
        for mut rows in [s.inputs_q, s.noise, s.rows] {
            for r in rows.drain(..) {
                self.ws.give(r);
            }
            self.ws.give(rows);
        }
        for job in s.jobs.drain(..) {
            if let Some(x) = job.into_input() {
                self.ws.give_tensor(x);
            }
        }
        self.cluster.recycle_outputs(&mut s.outputs);
        self.ws.give(s.jobs);
        self.ws.give(s.results);
        self.ws.give(s.outputs);
        self.ws.give(s.flat);
        self.ws.give(s.norms);
    }

    /// Retires a context: its rows and its enclave charge go back.
    fn recycle_ctx(&mut self, ctx: LinearCtx) {
        self.reclaim(Scratch {
            work_bytes: ctx.enclave_bytes,
            inputs_q: ctx.inputs_q,
            noise: ctx.noise,
            ..Scratch::default()
        });
    }

    /// Returns a pass output (from [`DarknightSession::private_forward`]
    /// and friends) to the session pool once the caller is done with it,
    /// so the next pass's activations reuse the buffer. Purely an
    /// optimization — dropping the tensor is always correct.
    pub fn recycle_output(&mut self, t: Tensor<f32>) {
        self.ws.give_tensor(t);
    }

    /// The session configuration.
    pub fn config(&self) -> &DarknightConfig {
        &self.cfg
    }

    /// Offload/work counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Enclave memory statistics so far.
    pub fn enclave_stats(&self) -> dk_tee::MemoryStats {
        self.enclave.stats()
    }

    /// Mutable enclave access, used by the Algorithm 2 large-batch
    /// trainer to seal/unseal gradient shards with the session's keys.
    pub fn enclave_mut(&mut self) -> &mut Enclave {
        &mut self.enclave
    }

    /// The execution backend (e.g. to inspect worker observations in
    /// privacy experiments).
    pub fn cluster(&self) -> &X {
        &self.cluster
    }

    /// Mutable backend access (e.g. to flip a worker malicious
    /// mid-session — the paper's dynamic adversary).
    pub fn cluster_mut(&mut self) -> &mut X {
        &mut self.cluster
    }

    /// The active encoding scheme (white-box privacy audits).
    pub fn scheme(&self) -> &EncodingScheme {
        &self.scheme
    }

    /// The number of the currently installed virtual batch.
    pub fn batch_index(&self) -> u64 {
        self.batch_index
    }

    /// Workers caught lying by the recovery extension, in detection
    /// order (duplicates removed). Empty unless recovery is enabled and
    /// a violation occurred.
    pub fn quarantined(&self) -> &[WorkerId] {
        &self.quarantined
    }

    /// Installs (or clears, with `None`) a pre-quantized weight plan for
    /// the current step. The plan must have been extracted from the
    /// exact weights the passes will run with; callers are responsible
    /// for clearing it when weights change (e.g. after an SGD step).
    pub fn set_step_plan(&mut self, plan: Option<Arc<StepPlan>>) {
        self.plan = plan;
    }

    /// Starts the next virtual batch: derives the fresh `A`, `B`, `Γ`
    /// (§4.1) for batch number `batch_index + 1` and retires the
    /// previous batch's contexts, stored encodings and retained enclave
    /// bytes. This is the single owner of batch lifecycle — every public
    /// pass entry point routes through it.
    pub fn begin_virtual_batch(&mut self) {
        let next = self.batch_index + 1;
        self.begin_numbered_batch(next);
    }

    /// Starts a specific numbered virtual batch. The pipelined engine
    /// assigns numbers in stream order so lane scheduling cannot change
    /// any batch's masks.
    pub(crate) fn begin_numbered_batch(&mut self, index: u64) {
        self.retire_batch();
        self.install_batch(index);
    }

    /// Fast-forwards the batch cursor to `index` as if that batch had
    /// just completed: the scheme for batch `index` is installed and
    /// marked used, so the next pass begins batch `index + 1` with masks
    /// bit-identical to an uninterrupted run (checkpoint resume). Any
    /// in-flight batch state is retired first.
    pub fn resume_at_batch(&mut self, index: u64) {
        self.begin_numbered_batch(index);
        self.pass_started = true;
    }

    /// Retires the installed batch: recycles the contexts no backward
    /// pass consumed (an aborted or forward-only batch) and releases the
    /// backend-stored encodings. Also runs on drop — a pipelined lane's
    /// backend (the shared dispatcher with its persistent workers)
    /// outlives the lane session, so the final batch's encodings must
    /// not be left behind.
    fn retire_batch(&mut self) {
        // The map is moved out so each context can retire through
        // `&mut self`; it goes back empty with its capacity intact.
        let mut ctxs = std::mem::take(&mut self.ctxs);
        for (_, ctx) in ctxs.drain() {
            self.recycle_ctx(ctx);
        }
        self.ctxs = ctxs;
        if !self.stored_ctxs.is_empty() {
            // Split-borrow so the id list can be passed by reference and
            // cleared in place instead of `mem::take`-ing a fresh Vec
            // every batch.
            let Self { stored_ctxs, cluster, .. } = self;
            cluster.release_contexts(stored_ctxs);
            stored_ctxs.clear();
        }
        self.publish_workspace_gauges();
    }

    /// Publishes the TEE-side buffer-pool counters as gauges, so fleet
    /// dashboards can watch the steady state settle (misses flat = the
    /// round-trip is closed). Batch-boundary cadence keeps the hot path
    /// untouched.
    fn publish_workspace_gauges(&self) {
        if !dk_obs::enabled() {
            return;
        }
        let s = self.ws.stats();
        let m = dk_obs::global();
        m.gauge("dk_session_ws_takes").set(s.takes as i64);
        m.gauge("dk_session_ws_misses").set(s.misses as i64);
        m.gauge("dk_session_ws_live_bytes").set(s.live_bytes as i64);
        m.gauge("dk_session_ws_peak_bytes").set(s.peak_bytes as i64);
    }

    fn install_batch(&mut self, index: u64) {
        self.batch_index = index;
        self.batch_seed = derive_seed(self.cfg.seed(), index);
        let mut srng = FieldRng::derived(self.batch_seed, DOMAIN_SCHEME);
        // In-place regeneration: same draws, same matrices, bit for bit
        // — but every `A`/`B`/`Γ` buffer of the previous batch is
        // rewritten instead of reallocated.
        self.scheme.regenerate(&mut srng);
        self.ctx_base = index << 32;
        self.next_id = self.ctx_base;
        self.pass_started = false;
    }

    /// Checks that `x` is one virtual batch, then marks a pass as running
    /// on the installed batch, auto-beginning a fresh batch first if one
    /// already ran (so no entry point can reuse stale contexts).
    fn start_pass(&mut self, x: &Tensor<f32>) -> Result<(), DarknightError> {
        let (expected, actual) = (self.cfg.k(), x.shape()[0]);
        if actual != expected {
            return Err(DarknightError::BatchShape { expected, actual });
        }
        if self.pass_started {
            self.begin_virtual_batch();
        }
        self.pass_started = true;
        Ok(())
    }

    /// A deterministic per-(batch, layer) stream: independent of
    /// execution order by construction.
    fn layer_rng(&self, domain: u64, ordinal: u64) -> FieldRng {
        FieldRng::derived(derive_seed(self.batch_seed, domain), ordinal)
    }

    /// Private forward pass over one virtual batch (`x: [K, ...]`).
    ///
    /// Runs on the installed virtual batch if no pass has used it yet
    /// (e.g. right after [`DarknightSession::begin_virtual_batch`]);
    /// otherwise begins the next batch first.
    ///
    /// # Errors
    ///
    /// Batch-shape mismatch, quantization failure, or an integrity
    /// violation detected by the redundant equation.
    pub fn private_forward(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        train: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        self.start_pass(x)?;
        self.forward_layers(model.layers_mut(), x, train, false)
    }

    /// Private backward pass from the loss gradient; accumulates all
    /// parameter gradients (aggregate `∇W` for linear layers).
    ///
    /// # Errors
    ///
    /// Quantization failure or a backward integrity violation.
    pub fn private_backward(
        &mut self,
        model: &mut Sequential,
        dloss: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        self.backward_layers(model.layers_mut(), dloss)
    }

    /// Full private training step on one virtual batch: forward, loss,
    /// backward, SGD update.
    ///
    /// # Errors
    ///
    /// Any forward/backward error; on error no weight update happens.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != K`.
    pub fn train_step(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
        sgd: &mut Sgd,
    ) -> Result<StepReport, DarknightError> {
        let report = self.accumulate_gradients_zeroing(model, x, labels, true)?;
        sgd.step(model);
        Ok(report)
    }

    /// Accumulates gradients for one virtual batch without updating
    /// weights (used by the Algorithm 2 large-batch trainer, which
    /// aggregates across virtual batches before stepping). Does *not*
    /// zero existing gradients.
    ///
    /// # Errors
    ///
    /// Any forward/backward error.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != K`.
    pub fn accumulate_gradients(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
    ) -> Result<StepReport, DarknightError> {
        self.accumulate_gradients_zeroing(model, x, labels, false)
    }

    fn accumulate_gradients_zeroing(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
        labels: &[usize],
        zero_first: bool,
    ) -> Result<StepReport, DarknightError> {
        assert_eq!(labels.len(), self.cfg.k(), "one label per virtual-batch sample");
        if zero_first {
            model.zero_grad();
        }
        let logits = self.private_forward(model, x, true)?;
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        let accuracy = dk_nn::loss::accuracy(&logits, labels);
        self.ws.give_tensor(logits);
        let dx = self.private_backward(model, &dlogits)?;
        self.ws.give_tensor(dx);
        Ok(StepReport { loss, accuracy })
    }

    /// Private inference over one virtual batch.
    ///
    /// # Errors
    ///
    /// Any forward error.
    pub fn private_inference(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        self.private_forward(model, x, false)
    }

    // -----------------------------------------------------------------
    // Forward internals
    // -----------------------------------------------------------------

    /// One pass over the layer list. `per_sample` selects the
    /// quantization-scale policy of the linear layers: shared scale
    /// (training; the backward γ-aggregate needs it) vs one scale per
    /// row (serving inference; rows stay numerically independent).
    ///
    /// The walk borrows its input — only layer outputs are materialized,
    /// no defensive clones of the activations travelling through.
    fn forward_layers(
        &mut self,
        layers: &mut [Layer],
        x: &Tensor<f32>,
        train: bool,
        per_sample: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        // Only a shared-scale training pass has a backward half that
        // revisits its linear layers.
        let retain = train && !per_sample;
        let mut cur: Option<Tensor<f32>> = None;
        for layer in layers.iter_mut() {
            let input = cur.as_ref().unwrap_or(x);
            let next = match layer {
                Layer::Conv2d(l) => {
                    self.offload_forward(&Bilinear::Conv(l), input, per_sample, retain)
                }
                Layer::Dense(l) => {
                    self.offload_forward(&Bilinear::Dense(l), input, per_sample, retain)
                }
                Layer::Residual(res) => self.forward_residual(res, input, train, per_sample),
                other => {
                    self.stats.nonlinear_elems += input.len() as u64;
                    Ok(other.forward_ws(input, train, &mut self.ws))
                }
            };
            // The consumed activation goes back whether or not the layer
            // succeeded.
            if let Some(prev) = cur.take() {
                self.ws.give_tensor(prev);
            }
            cur = Some(next?);
        }
        Ok(cur.unwrap_or_else(|| x.clone()))
    }

    /// The residual-block arm of [`DarknightSession::forward_layers`]:
    /// `y = main(x) + shortcut(x)`, with the shortcut sum folded in
    /// place.
    fn forward_residual(
        &mut self,
        res: &mut Residual,
        input: &Tensor<f32>,
        train: bool,
        per_sample: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        let mut main = self.forward_layers(res.main_mut(), input, train, per_sample)?;
        self.stats.nonlinear_elems += main.len() as u64;
        if res.shortcut().is_empty() {
            main.add_assign(input);
            return Ok(main);
        }
        let shortcut = self.forward_layers(res.shortcut_mut(), input, train, per_sample);
        self.join_branches(main, shortcut)
    }

    /// Sums a residual block's second branch into `acc`. The buffer that
    /// is not returned — the second branch's, or `acc` when that branch
    /// failed — goes back to the pool.
    fn join_branches(
        &mut self,
        mut acc: Tensor<f32>,
        other: Result<Tensor<f32>, DarknightError>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let (out, spent) = match other {
            Ok(o) => {
                acc.add_assign(&o);
                (Ok(acc), o)
            }
            Err(e) => (Err(e), acc),
        };
        self.ws.give_tensor(spent);
        out
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Max-abs normalization (the paper's §5 VGG strategy, applied
    /// uniformly) followed by Algorithm 1 quantization. Shared with
    /// [`crate::reference::QuantizedReference`] so the private path and
    /// the clear-text oracle can never drift numerically.
    fn normalize_quantize(&self, vals: &[f32]) -> Result<(Vec<F25>, f32), DarknightError> {
        crate::reference::normalize_quantize(self.cfg.quant(), vals)
    }

    /// Quantized weights for the layer: from the step plan when one is
    /// installed (weights are frozen within a step, so the engine
    /// quantizes them once), freshly computed otherwise. Identical bits
    /// either way — same floats, same pipeline.
    fn layer_weights(
        &self,
        ordinal: u64,
        weights: &Tensor<f32>,
    ) -> Result<(Arc<Tensor<F25>>, f32), DarknightError> {
        if let Some(planned) = self.plan.as_ref().and_then(|p| p.linear(ordinal)) {
            return Ok((planned.weights_q.clone(), planned.norm_w));
        }
        let (wq_flat, norm_w) = self.normalize_quantize(weights.as_slice())?;
        Ok((Arc::new(Tensor::from_vec(weights.shape(), wq_flat)), norm_w))
    }

    /// One linear layer's forward cycle: quantize, mask, dispatch,
    /// decode, verify, dequantize, add bias.
    ///
    /// `per_sample` selects the quantization policy for the inputs —
    /// one shared max-abs scale (training; the backward γ-aggregate
    /// needs it) vs one scale per row (serving inference). `retain`
    /// selects whether a backward pass will revisit this layer: when
    /// set, the encodings are stored on the workers and the quantized
    /// inputs and noise move into the layer's [`LinearCtx`]. Everything
    /// else the cycle takes goes back at this function's single exit.
    fn offload_forward(
        &mut self,
        layer: &Bilinear<'_>,
        x: &Tensor<f32>,
        per_sample: bool,
        retain: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        let layer_id = self.take_id();
        let mut s = Scratch::default();
        let y = self.forward_cycle(&mut s, layer_id, layer, x, per_sample, retain);
        self.reclaim(s);
        y
    }

    /// The body of [`DarknightSession::offload_forward`]; every buffer
    /// it takes is held in `s`.
    fn forward_cycle(
        &mut self,
        s: &mut Scratch,
        layer_id: u64,
        layer: &Bilinear<'_>,
        x: &Tensor<f32>,
        per_sample: bool,
        retain: bool,
    ) -> Result<Tensor<f32>, DarknightError> {
        let k = self.cfg.k();
        let m = self.cfg.m();
        let ordinal = layer_id - self.ctx_base;
        let batch = self.batch_index;
        let quant = self.cfg.quant();
        let sp = dk_obs::span(dk_obs::Stage::Quantize, batch, ordinal);
        let (weights_q, norm_w) = self.layer_weights(ordinal, layer.weights())?;
        let rest: usize = x.shape()[1..].iter().product();
        s.inputs_q = self.ws.take_cleared(k);
        s.norms = self.ws.take_cleared(k);
        if per_sample {
            for i in 0..k {
                let mut row = self.ws.take_cleared::<F25>(rest);
                let norm_x = crate::reference::normalize_quantize_into(
                    quant,
                    &x.as_slice()[i * rest..(i + 1) * rest],
                    &mut row,
                );
                s.inputs_q.push(row);
                s.norms.push(norm_x?);
            }
        } else {
            s.flat = self.ws.take_cleared(x.len());
            let norm_x =
                crate::reference::normalize_quantize_into(quant, x.as_slice(), &mut s.flat)?;
            for i in 0..k {
                s.inputs_q.push(self.ws.take_copy(&s.flat[i * rest..(i + 1) * rest]));
                s.norms.push(norm_x);
            }
            // Done with the stacked row: back before the encode peak.
            self.ws.give(std::mem::take(&mut s.flat));
        }
        drop(sp);
        let sp = dk_obs::span(dk_obs::Stage::Encode, batch, ordinal);
        // Per-(batch, layer) derived noise: the masks of batch `b`,
        // layer `l` are a pure function of (seed, b, l), so pipelined
        // lanes draw exactly the masks sequential execution would.
        let mut nrng = self.layer_rng(DOMAIN_NOISE, ordinal);
        // Enclave working set: float input + quantized copies + noise +
        // encodings. The fused path never materializes the noise rows,
        // but the charge is kept identical in both branches so paging
        // accounting stays a pure function of shape, not of mode.
        let s_cols = self.scheme.num_encodings();
        s.work_bytes = x.len() * 4 + k * rest * 8 + (m + s_cols) * rest * 8;
        let _paged = self.enclave.alloc_paged(s.work_bytes);
        let mut enc_rows = if retain {
            // The backward spot check replays encodings from the stored
            // noise rows, so a training pass still materializes them.
            s.noise = self.ws.take_cleared(m);
            for _ in 0..m {
                let mut v = self.ws.take_cleared::<F25>(rest);
                nrng.uniform_extend::<P25>(rest, &mut v);
                s.noise.push(v);
            }
            self.scheme.encode_ws(&s.inputs_q, &s.noise, &mut self.ws)
        } else {
            // Inference never revisits the noise: draw it in cache-sized
            // chunks fused straight into the encodings. Identical draw
            // order and count, so bits and RNG stream position match the
            // materialized branch exactly.
            self.scheme.encode_fused_ws(&s.inputs_q, &mut nrng, &mut self.ws)
        };
        self.stats.encoded_elems += (s_cols * rest) as u64;
        // The encoded rows (and their outer Vec) are pool-backed; pair
        // each with a pooled `[1, ...]` shape so the whole encoding set
        // becomes tensors without a fresh allocation.
        let mut enc_tensors: Vec<Tensor<F25>> = self.ws.take_cleared(s_cols);
        for row in enc_rows.drain(..) {
            let mut shape = self.ws.take_shape(x.shape());
            shape[0] = 1;
            enc_tensors.push(Tensor::from_parts(shape, row));
        }
        self.ws.give(enc_rows);
        self.stats.bytes_to_gpus += (s_cols * rest * 8) as u64;
        drop(sp);
        let sp = dk_obs::span(dk_obs::Stage::Dispatch, batch, ordinal);
        if retain {
            // Only a pass with a backward half needs the workers to hold
            // the encodings (§6 stored-input reuse); inference skips the
            // store — and its clone — entirely.
            self.cluster.store_encodings(layer_id, enc_tensors.clone());
            self.stored_ctxs.push(layer_id);
        }
        s.jobs = self.ws.take_cleared(s_cols);
        for t in enc_tensors.drain(..) {
            s.jobs.push(layer.forward_job(weights_q.clone(), t));
        }
        self.ws.give(enc_tensors);
        self.stats.linear_jobs += s_cols as u64;
        s.results = self.ws.take_cleared(s_cols);
        s.outputs = self.ws.take_cleared(s_cols);
        self.cluster
            .execute_into(layer_id, &s.jobs, &mut s.results)
            .map_err(|fault| DarknightError::GpuFault { layer_id, phase: "forward", fault })?;
        let jobs = &s.jobs;
        self.absorb_worker_faults(layer_id, "forward", &mut s.results, &mut s.outputs, |_, j| {
            jobs[j].execute()
        })?;
        drop(sp);
        let out_rest = s.outputs[0].len();
        self.stats.bytes_from_gpus += (s_cols * out_rest * 8) as u64;
        if self.scheme.has_integrity() {
            self.stats.integrity_checks += 1;
        }
        let sp = dk_obs::span(dk_obs::Stage::Decode, batch, ordinal);
        s.rows = self.decode_forward_repairing(&s.jobs, &mut s.outputs, layer_id)?;
        drop(sp);
        self.stats.decoded_elems += (s.rows.len() * out_rest) as u64;
        // Dequantize row `i` with its scale `norm_w · norm_x_i` (all
        // equal in shared mode) into `y: [K, ...]`, then add the bias.
        let mut y_shape = self.ws.take_shape(s.outputs[0].shape());
        y_shape[0] = k;
        let mut y = Tensor::from_parts(y_shape, self.ws.take_zeroed::<f32>(k * out_rest));
        for (i, (dec, &norm_x)) in s.rows.iter().zip(&s.norms).enumerate() {
            let scale = norm_w * norm_x;
            for (dst, &v) in y.batch_item_mut(i).iter_mut().zip(dec) {
                *dst = quant.dequantize_product(v) as f32 * scale;
            }
        }
        layer.add_bias(&mut y);
        self.stats.nonlinear_elems += y.len() as u64;
        if retain {
            // The transient working set goes back at exit; the retained
            // context (noise + quantized inputs for the backward spot
            // check) stays charged until it retires.
            let retained = (m + k) * rest * 8;
            s.work_bytes -= retained;
            let ctx = LinearCtx {
                norm_x: s.norms[0],
                norm_w,
                input_shape: x.shape().to_vec(),
                weights_q,
                noise: std::mem::take(&mut s.noise),
                inputs_q: std::mem::take(&mut s.inputs_q),
                enclave_bytes: retained,
            };
            self.ctxs.insert(layer_id, ctx);
        }
        Ok(y)
    }

    /// Folds per-worker faults (loss, timeout, remote refusal) out of an
    /// execution round. With recovery enabled, a faulty worker is
    /// treated exactly like a tampering one: quarantined, and its output
    /// slot filled by the TEE's own `recompute` of that job, so the
    /// decode downstream sees a complete, honest result set. Without
    /// recovery the fault is surfaced as a fail-closed
    /// [`DarknightError::GpuFault`].
    fn absorb_worker_faults(
        &mut self,
        layer_id: u64,
        phase: &'static str,
        results: &mut Vec<dk_gpu::WorkerResult>,
        outputs: &mut Vec<Tensor<F25>>,
        mut recompute: impl FnMut(&mut Self, usize) -> Tensor<F25>,
    ) -> Result<(), DarknightError> {
        let mut repaired = false;
        for (j, r) in results.drain(..).enumerate() {
            match r {
                Ok(t) => outputs.push(t),
                Err(fault) => {
                    if !self.cfg.recovery() {
                        return Err(DarknightError::GpuFault { layer_id, phase, fault });
                    }
                    self.quarantine(fault.worker().unwrap_or(WorkerId(j)));
                    outputs.push(recompute(self, j));
                    repaired = true;
                }
            }
        }
        if repaired {
            self.stats.recoveries += 1;
        }
        Ok(())
    }

    /// Decodes forward outputs, routing integrity violations through the
    /// recovery extension (localize the liars by TEE recomputation,
    /// repair, re-decode) when it is enabled.
    fn decode_forward_repairing(
        &mut self,
        jobs: &[LinearJob],
        outputs: &mut Vec<Tensor<F25>>,
        layer_id: u64,
    ) -> Result<Vec<Vec<F25>>, DarknightError> {
        match self.scheme.decode_forward_ws(outputs, layer_id, &mut self.ws) {
            Ok(d) => Ok(d),
            Err(violation @ DarknightError::IntegrityViolation { .. }) if self.cfg.recovery() => {
                let _sp =
                    dk_obs::span(dk_obs::Stage::Repair, self.batch_index, layer_id - self.ctx_base);
                let outcome = crate::recovery::localize_and_repair(jobs, outputs);
                if outcome.faulty.is_empty() {
                    // Detection without a localizable fault should not
                    // happen with explicit jobs; surface the original.
                    return Err(violation);
                }
                for w in outcome.faulty {
                    self.quarantine(w);
                }
                self.stats.recoveries += 1;
                self.scheme.decode_forward_ws(outputs, layer_id, &mut self.ws)
            }
            Err(e) => Err(e),
        }
    }

    // -----------------------------------------------------------------
    // Per-sample-scale inference (serving mode)
    // -----------------------------------------------------------------

    /// Private inference where every sample of the virtual batch is
    /// quantized with its **own** max-abs scale instead of one scale
    /// shared across the batch.
    ///
    /// The shared scale of [`DarknightSession::private_forward`] exists
    /// for the backward pass — the γ-weighted aggregate of Eq. 4–6
    /// cannot blend per-sample fixed-point scales — but it couples
    /// samples numerically: row `i`'s quantization step depends on the
    /// other rows' magnitudes. Forward-only execution has no such
    /// constraint. The decode separates the `K` results exactly in the
    /// field, so each row can be dequantized with its own scale, and
    /// output row `i` is **bit-for-bit** identical to running that
    /// sample alone through [`crate::reference::QuantizedReference`]
    /// with `k = 1`, no matter what else shares the virtual batch.
    /// `dk_serve` builds on exactly this property to aggregate
    /// independent requests (including padded all-zero rows) into full
    /// virtual batches without perturbing anyone's answer.
    ///
    /// Privacy and integrity are unchanged: the GPUs still see only
    /// masked field vectors, and the redundant equation still covers
    /// every offloaded layer.
    ///
    /// # Errors
    ///
    /// Batch-shape mismatch, quantization failure, or an integrity
    /// violation detected by the redundant equation.
    pub fn private_inference_per_sample(
        &mut self,
        model: &mut Sequential,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        self.start_pass(x)?;
        self.forward_layers(model.layers_mut(), x, false, true)
    }

    // -----------------------------------------------------------------
    // Backward internals
    // -----------------------------------------------------------------

    fn backward_layers(
        &mut self,
        layers: &mut [Layer],
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let mut cur: Option<Tensor<f32>> = None;
        for layer in layers.iter_mut().rev() {
            let grad = cur.as_ref().unwrap_or(dy);
            let next = match layer {
                Layer::Conv2d(l) => self.offload_backward(&mut Bilinear::Conv(l), grad),
                Layer::Dense(l) => self.offload_backward(&mut Bilinear::Dense(l), grad),
                Layer::Residual(res) => self.backward_residual(res, grad),
                other => {
                    self.stats.nonlinear_elems += grad.len() as u64;
                    Ok(other.backward_ws(grad, &mut self.ws))
                }
            };
            if let Some(prev) = cur.take() {
                self.ws.give_tensor(prev);
            }
            cur = Some(next?);
        }
        Ok(cur.unwrap_or_else(|| dy.clone()))
    }

    /// The residual-block arm of
    /// [`DarknightSession::backward_layers`]. Exact mirror of forward
    /// id assignment: forward visited main then shortcut, so backward
    /// visits shortcut then main.
    fn backward_residual(
        &mut self,
        res: &mut Residual,
        grad: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let dx = if res.shortcut().is_empty() {
            let mut dm = self.backward_layers(res.main_mut(), grad)?;
            dm.add_assign(grad);
            dm
        } else {
            let ds = self.backward_layers(res.shortcut_mut(), grad)?;
            let dm = self.backward_layers(res.main_mut(), grad);
            self.join_branches(ds, dm)?
        };
        self.stats.nonlinear_elems += dx.len() as u64;
        Ok(dx)
    }

    fn quarantine(&mut self, w: WorkerId) {
        if !self.quarantined.contains(&w) {
            self.quarantined.push(w);
            if dk_obs::enabled() {
                dk_obs::fleet().worker(w.0).quarantined();
            }
        }
    }

    fn untake_id(&mut self) -> u64 {
        debug_assert!(
            self.next_id > self.ctx_base,
            "backward pass saw more linear layers than forward"
        );
        self.next_id -= 1;
        self.next_id
    }

    /// One linear layer's backward cycle: the bias gradient in the TEE,
    /// the aggregate weight gradient and the data gradient offloaded and
    /// verified. The layer's retained context leaves the map here and
    /// retires exactly once after the offload, whatever its outcome.
    fn offload_backward(
        &mut self,
        layer: &mut Bilinear<'_>,
        dy: &Tensor<f32>,
    ) -> Result<Tensor<f32>, DarknightError> {
        let layer_id = self.untake_id();
        layer.accumulate_bias_grad(dy);
        self.stats.nonlinear_elems += dy.len() as u64;
        let Some(ctx) = self.ctxs.remove(&layer_id) else {
            return Err(DarknightError::MissingForwardContext { layer_id });
        };
        let mut s = Scratch::default();
        let dx = self.backward_cycle(&mut s, layer_id, layer, dy, &ctx);
        self.reclaim(s);
        self.recycle_ctx(ctx);
        dx
    }

    /// The weight-gradient job for encoding `j` with `x̄_j` regenerated
    /// inside the TEE from the retained context — encodings are
    /// row-independent, so one coefficient row reproduces it bit for bit
    /// at 1/S of a whole-batch re-encode. Its input is pool-backed: the
    /// job belongs in the call's [`Scratch`] once run.
    fn explicit_wgrad_job(
        &mut self,
        layer: &Bilinear<'_>,
        ctx: &LinearCtx,
        delta_q: &Tensor<F25>,
        j: usize,
    ) -> LinearJob {
        let row = self.scheme.encode_row_ws(j, &ctx.inputs_q, &ctx.noise, &mut self.ws);
        let mut shape = self.ws.take_shape(&ctx.input_shape);
        shape[0] = 1;
        let dtilde = dk_gpu::job::beta_combine(delta_q, &self.scheme.beta_row(j));
        layer.wgrad_job(dtilde, Tensor::from_parts(shape, row))
    }

    /// The body of [`DarknightSession::offload_backward`]; every buffer
    /// it takes is held in `s`.
    fn backward_cycle(
        &mut self,
        s: &mut Scratch,
        layer_id: u64,
        layer: &mut Bilinear<'_>,
        dy: &Tensor<f32>,
        ctx: &LinearCtx,
    ) -> Result<Tensor<f32>, DarknightError> {
        let k = self.cfg.k();
        let m = self.cfg.m();
        let s_sq = k + m;
        let batch = self.batch_index;
        let ordinal = layer_id - self.ctx_base;
        let sp = dk_obs::span(dk_obs::Stage::Quantize, batch, ordinal);
        let (dq_flat, norm_d) = self.normalize_quantize(dy.as_slice())?;
        let delta_q = Arc::new(Tensor::from_vec(dy.shape(), dq_flat));
        drop(sp);
        let sp = dk_obs::span(dk_obs::Stage::Dispatch, batch, ordinal);
        // 1) Aggregate weight gradient via the encoded scheme. The job
        //    list has room for one TEE-checked job per encoding for
        //    repair and one for verification, so it never regrows.
        s.jobs = self.ws.take_cleared(3 * s_sq);
        for j in 0..s_sq {
            s.jobs.push(layer.stored_wgrad_job(layer_id, delta_q.clone(), self.scheme.beta_row(j)));
        }
        self.stats.linear_jobs += s_sq as u64;
        self.stats.bytes_to_gpus += (s_sq * delta_q.len() * 8) as u64;
        s.results = self.ws.take_cleared(s_sq);
        s.outputs = self.ws.take_cleared(s_sq);
        self.cluster
            .execute_into(layer_id, &s.jobs, &mut s.results)
            .map_err(|fault| DarknightError::GpuFault { layer_id, phase: "backward", fault })?;
        // Fold out lost/refusing workers. Backward jobs are `*Stored`
        // (they run against state the worker holds), so the TEE cannot
        // replay the job itself — instead it reconstructs the worker's
        // encoding x̄_j from the retained context (determinism by
        // derivation) and computes Eq_j explicitly.
        let jobs = &mut s.jobs;
        self.absorb_worker_faults(
            layer_id,
            "backward",
            &mut s.results,
            &mut s.outputs,
            |this, j| {
                let job = this.explicit_wgrad_job(layer, ctx, &delta_q, j);
                let eq = job.execute();
                jobs.push(job);
                eq
            },
        )?;
        drop(sp);
        let sp = dk_obs::span(dk_obs::Stage::Verify, batch, ordinal);
        let eqs = &mut s.outputs;
        self.stats.bytes_from_gpus += (s_sq * eqs[0].len() * 8) as u64;
        // 2) Backward integrity. `j*` is derived per (batch, layer), so
        //    it is identical whether the batch runs sequentially or on a
        //    pipeline lane — and whether or not recovery is enabled.
        let jstar = self.layer_rng(DOMAIN_JSTAR, ordinal).index(s_sq);
        if self.cfg.recovery() && self.scheme.has_integrity() {
            // Deterministic duplicate-dispatch verification (recovery
            // extension): every Eq_j is recomputed by the *next* worker
            // from the TEE-regenerated x̄_j; any pairwise mismatch is
            // resolved by a TEE ground-truth recomputation. Note the
            // privacy accounting: each worker additionally observes one
            // neighbouring encoding, so an M-tolerant configuration
            // effectively tolerates ⌊M/2⌋ colluders in this mode.
            self.stats.integrity_checks += 1;
            for (j, eq) in eqs.iter_mut().enumerate() {
                let job = self.explicit_wgrad_job(layer, ctx, &delta_q, j);
                let verifier = WorkerId((j + 1) % s_sq);
                match self.cluster.execute_on(verifier, &job) {
                    Ok(dup) => {
                        if dup != *eq {
                            // TEE ground truth identifies the liar(s).
                            let truth = job.execute();
                            if truth != *eq {
                                self.quarantine(WorkerId(j));
                            }
                            if truth != dup {
                                self.quarantine(verifier);
                            }
                            *eq = truth;
                            self.stats.recoveries += 1;
                        }
                    }
                    Err(fault) => {
                        // The duplicate checker died; the TEE takes over
                        // its verification duty directly.
                        self.quarantine(fault.worker().unwrap_or(verifier));
                        let truth = job.execute();
                        if truth != *eq {
                            self.quarantine(WorkerId(j));
                            *eq = truth;
                        }
                        self.stats.recoveries += 1;
                    }
                }
                s.jobs.push(job);
            }
        } else if self.scheme.has_integrity() {
            // Spare-worker spot check (probabilistic, the base mode):
            // only x̄_{j*} is regenerated.
            self.stats.integrity_checks += 1;
            let job = self.explicit_wgrad_job(layer, ctx, &delta_q, jstar);
            let spare = WorkerId(self.cluster.num_workers() - 1);
            let check = self.cluster.execute_on(spare, &job);
            s.jobs.push(job);
            // Recovery is off in this branch, so a lost spot-checker
            // fails closed: without the check the batch is unverified.
            let check = check.map_err(|fault| DarknightError::GpuFault {
                layer_id,
                phase: "backward",
                fault,
            })?;
            if check != eqs[jstar] {
                return Err(DarknightError::IntegrityViolation {
                    layer_id,
                    phase: "backward",
                    mismatches: mismatches(&check, &eqs[jstar]),
                });
            }
        }
        drop(sp);
        let sp = dk_obs::span(dk_obs::Stage::Decode, batch, ordinal);
        // The decode reads the Eq tensors in place; afterwards their
        // buffers go straight back to the worker pools that produced
        // them, ahead of the data-gradient job.
        s.flat = self.scheme.decode_backward_ws(&s.outputs, &mut self.ws);
        self.stats.decoded_elems += s.flat.len() as u64;
        self.cluster.recycle_outputs(&mut s.outputs);
        drop(sp);
        // 3) Data gradient: unencoded offload (worker 0), redundantly
        //    recomputed on the spare when integrity is on.
        let dj = layer.data_grad_job(ctx.weights_q.clone(), (*delta_q).clone(), &ctx.input_shape);
        self.stats.linear_jobs += 1;
        let mut dx_field = match self.cluster.execute_on(WorkerId(0), &dj) {
            Ok(t) => t,
            Err(fault) => {
                if !self.cfg.recovery() {
                    return Err(DarknightError::GpuFault { layer_id, phase: "backward", fault });
                }
                // The data-gradient job carries no secret state; the TEE
                // simply recomputes it and sidelines the dead worker.
                self.quarantine(fault.worker().unwrap_or(WorkerId(0)));
                self.stats.recoveries += 1;
                dj.execute()
            }
        };
        if self.scheme.has_integrity() {
            let spare = WorkerId(self.cluster.num_workers() - 1);
            match self.cluster.execute_on(spare, &dj) {
                Ok(check) => {
                    if check != dx_field {
                        if !self.cfg.recovery() {
                            return Err(DarknightError::IntegrityViolation {
                                layer_id,
                                phase: "backward",
                                mismatches: mismatches(&check, &dx_field),
                            });
                        }
                        let truth = dj.execute();
                        if truth != dx_field {
                            self.quarantine(WorkerId(0));
                        }
                        if truth != check {
                            self.quarantine(spare);
                        }
                        dx_field = truth;
                        self.stats.recoveries += 1;
                    }
                }
                Err(fault) => {
                    if !self.cfg.recovery() {
                        return Err(DarknightError::GpuFault {
                            layer_id,
                            phase: "backward",
                            fault,
                        });
                    }
                    // Lost the redundant checker: the TEE verifies the
                    // primary answer itself.
                    self.quarantine(fault.worker().unwrap_or(spare));
                    let truth = dj.execute();
                    if truth != dx_field {
                        self.quarantine(WorkerId(0));
                        dx_field = truth;
                    }
                    self.stats.recoveries += 1;
                }
            }
        }
        self.stats.bytes_from_gpus += (dx_field.len() * 8) as u64;
        let q = self.cfg.quant();
        // Aggregate ∇W: dequantize and unscale. The 1/K of Eq. 3 is
        // already folded into the mean-reduced loss gradients, so no
        // extra averaging happens here.
        let wscale = norm_d * ctx.norm_x;
        let mut gw = self.ws.take_tensor::<f32>(ctx.weights_q.shape());
        assert_eq!(s.flat.len(), gw.len(), "decoded weight-gradient length mismatch");
        for (dst, &v) in gw.as_mut_slice().iter_mut().zip(&s.flat) {
            *dst = q.dequantize_product(v) as f32 * wscale;
        }
        layer.accumulate_weight_grad(&gw);
        self.ws.give_tensor(gw);
        // dx: dequantize, unscale by norm_d · norm_w.
        let dscale = norm_d * ctx.norm_w;
        let mut dx = self.ws.take_tensor::<f32>(dx_field.shape());
        for (dst, &v) in dx.as_mut_slice().iter_mut().zip(dx_field.as_slice()) {
            *dst = q.dequantize_product(v) as f32 * dscale;
        }
        Ok(dx)
    }
}

impl<X: GpuExec> Drop for DarknightSession<X> {
    fn drop(&mut self) {
        self.retire_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_gpu::Behavior;
    use dk_nn::arch::{mini_mobilenet, mini_resnet, mini_vgg};
    use dk_nn::layers::{Flatten, Relu};

    fn small_model(seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(dk_linalg::Conv2dShape::simple(2, 4, 3, 1, 1), seed)),
            Layer::Relu(Relu::new()),
            Layer::Flatten(Flatten::new()),
            Layer::Dense(Dense::new(4 * 6 * 6, 3, seed ^ 1)),
        ])
    }

    fn input(k: usize) -> Tensor<f32> {
        Tensor::from_fn(&[k, 2, 6, 6], |i| ((i % 13) as f32 - 6.0) * 0.07)
    }

    #[test]
    fn private_forward_matches_plaintext() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 5);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut private_model = small_model(3);
        let mut plain_model = small_model(3);
        let x = input(2);
        let y_priv = session.private_inference(&mut private_model, &x).unwrap();
        let y_plain = plain_model.forward(&x, false);
        let diff = y_priv.max_abs_diff(&y_plain);
        // l=6 quantization at two linear layers: generous tolerance.
        assert!(diff < 0.05, "diff={diff}");
    }

    #[test]
    fn private_gradients_match_plaintext() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 6);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut private_model = small_model(4);
        let mut plain_model = small_model(4);
        let x = input(2);
        let labels = [0usize, 2];

        // Plaintext reference step gradients.
        plain_model.zero_grad();
        let logits = plain_model.forward(&x, true);
        let (_, dl) = softmax_cross_entropy(&logits, &labels);
        plain_model.backward(&dl);
        let mut plain_grads = Vec::new();
        plain_model.visit_params(&mut |_, g| plain_grads.push(g.clone()));

        // Private step gradients.
        private_model.zero_grad();
        session.begin_virtual_batch();
        let logits_p = session.private_forward(&mut private_model, &x, true).unwrap();
        let (_, dlp) = softmax_cross_entropy(&logits_p, &labels);
        session.private_backward(&mut private_model, &dlp).unwrap();
        let mut priv_grads = Vec::new();
        private_model.visit_params(&mut |_, g| priv_grads.push(g.clone()));

        assert_eq!(plain_grads.len(), priv_grads.len());
        for (i, (pg, qg)) in plain_grads.iter().zip(&priv_grads).enumerate() {
            let scale = pg.max_abs().max(1e-3);
            let rel = pg.max_abs_diff(qg) / scale;
            assert!(rel < 0.08, "param {i}: relative grad diff {rel}");
        }
    }

    #[test]
    fn train_step_reduces_loss() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 7);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(5);
        let mut sgd = Sgd::new(0.05);
        let x = input(2);
        let labels = [1usize, 2];
        let first = session.train_step(&mut model, &x, &labels, &mut sgd).unwrap();
        let mut last = first;
        for _ in 0..15 {
            last = session.train_step(&mut model, &x, &labels, &mut sgd).unwrap();
        }
        assert!(last.loss < first.loss * 0.7, "first={} last={}", first.loss, last.loss);
    }

    #[test]
    fn integrity_catches_malicious_forward() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[1] = Behavior::SingleElement;
        let cluster = GpuCluster::with_behaviors(&behaviors, 8);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(6);
        let err = session.private_inference(&mut model, &input(2)).unwrap_err();
        assert!(matches!(err, DarknightError::IntegrityViolation { phase: "forward", .. }));
    }

    #[test]
    fn no_integrity_mode_is_silently_wrong_under_attack() {
        // Demonstrates why the redundant equation matters: without it a
        // malicious worker corrupts results undetected.
        let cfg = DarknightConfig::new(2, 1).with_integrity(false);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[0] = Behavior::AdditiveNoise;
        let cluster = GpuCluster::with_behaviors(&behaviors, 9);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(7);
        let mut clean_model = small_model(7);
        let y_bad = session.private_inference(&mut model, &input(2)).unwrap();
        let y_good = clean_model.forward(&input(2), false);
        assert!(y_bad.max_abs_diff(&y_good) > 0.1, "corruption should distort outputs");
    }

    #[test]
    fn insufficient_workers_rejected() {
        let cfg = DarknightConfig::new(4, 2).with_integrity(true); // needs 7
        let cluster = GpuCluster::honest(5, 1);
        assert!(matches!(
            DarknightSession::new(cfg, cluster),
            Err(DarknightError::InsufficientWorkers { required: 7, available: 5 })
        ));
    }

    #[test]
    fn wrong_batch_size_rejected() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 2);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(8);
        let err = session.private_inference(&mut model, &input(3)).unwrap_err();
        assert!(matches!(err, DarknightError::BatchShape { expected: 2, actual: 3 }));
    }

    #[test]
    fn mini_models_run_privately() {
        for (mut model, name) in [
            (mini_vgg(8, 4, 11), "vgg"),
            (mini_resnet(8, 4, 12), "resnet"),
            (mini_mobilenet(8, 4, 13), "mobilenet"),
        ] {
            let cfg = DarknightConfig::new(2, 1).with_integrity(true);
            let cluster = GpuCluster::honest(cfg.workers_required(), 14);
            let mut session = DarknightSession::new(cfg, cluster).unwrap();
            let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 9) as f32 - 4.0) * 0.1);
            let mut plain = model.clone();
            let y_priv = session.private_inference(&mut model, &x).unwrap();
            let y_plain = plain.forward(&x, false);
            let diff = y_priv.max_abs_diff(&y_plain);
            assert!(diff < 0.2, "{name}: diff={diff}");
        }
    }

    #[test]
    fn residual_model_trains_privately() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 15);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = mini_resnet(8, 4, 16);
        let mut sgd = Sgd::new(0.02);
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 7) as f32 - 3.0) * 0.1);
        let labels = [0usize, 3];
        for _ in 0..3 {
            session.train_step(&mut model, &x, &labels, &mut sgd).unwrap();
        }
    }

    /// The serving-mode guarantee: with per-sample scales, each output
    /// row is bit-identical to running that sample *alone* through the
    /// quantized reference — even when the rows differ in magnitude by
    /// orders of magnitude (which couples rows under the shared scale).
    #[test]
    fn per_sample_inference_matches_solo_reference_bitwise() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 19);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(20);
        let mut x = input(2);
        for v in x.batch_item_mut(1) {
            *v *= 931.0; // magnitude skew between rows
        }
        let y = session.private_inference_per_sample(&mut model, &x).unwrap();
        for i in 0..2 {
            let xi = Tensor::from_vec(&[1, 2, 6, 6], x.batch_item(i).to_vec());
            let mut reference =
                crate::reference::QuantizedReference::new(1, session.config().quant());
            let mut ref_model = small_model(20);
            let yi = reference.forward(&mut ref_model, &xi, false).unwrap();
            assert_eq!(y.batch_item(i), yi.as_slice(), "row {i} diverged from solo reference");
        }
    }

    /// The shared-scale path does *not* have the solo-equality property
    /// (row 0's quantization step is set by row 1's magnitude) — the
    /// contrast that motivates the per-sample mode.
    #[test]
    fn shared_scale_inference_couples_rows() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 21);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(22);
        let mut x = input(2);
        for v in x.batch_item_mut(1) {
            *v *= 931.0;
        }
        let y = session.private_inference(&mut model, &x).unwrap();
        let x0 = Tensor::from_vec(&[1, 2, 6, 6], x.batch_item(0).to_vec());
        let mut reference = crate::reference::QuantizedReference::new(1, session.config().quant());
        let mut ref_model = small_model(22);
        let y0 = reference.forward(&mut ref_model, &x0, false).unwrap();
        assert_ne!(y.batch_item(0), y0.as_slice(), "shared scale unexpectedly decoupled rows");
    }

    #[test]
    fn per_sample_inference_integrity_catches_tampering() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[2] = Behavior::SingleElement;
        let cluster = GpuCluster::with_behaviors(&behaviors, 23);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(24);
        let err = session.private_inference_per_sample(&mut model, &input(2)).unwrap_err();
        assert!(matches!(err, DarknightError::IntegrityViolation { phase: "forward", .. }));
    }

    /// Regression: an aborted batch must not leak its charged enclave
    /// working set. A serving worker reuses one session across
    /// unboundedly many batches, so a per-failure leak would grow
    /// `current_bytes` monotonically under attack and corrupt every
    /// later batch's paging accounting.
    #[test]
    fn aborted_batches_release_enclave_working_set() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let mut behaviors = vec![Behavior::Honest; cfg.workers_required()];
        behaviors[1] = Behavior::SingleElement;
        let cluster = GpuCluster::with_behaviors(&behaviors, 27);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(28);
        for _ in 0..3 {
            let _ = session.private_inference_per_sample(&mut model, &input(2)).unwrap_err();
            session.begin_virtual_batch();
            assert_eq!(
                session.enclave_stats().current_bytes,
                0,
                "failed batch leaked enclave bytes"
            );
        }
        // The session recovers fully once the fleet behaves.
        session.cluster_mut().worker_mut(WorkerId(1)).set_behavior(Behavior::Honest);
        session.private_inference_per_sample(&mut model, &input(2)).unwrap();
    }

    /// A warm training session (integrity on, recovery off) and the
    /// session-pool bytes it holds between steps: the model's forward
    /// caches ping-pong through the pool, so this level is steady.
    fn warm_training_session(model: &mut Sequential, seed: u64) -> (DarknightSession, usize) {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), seed);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut sgd = Sgd::new(0.01);
        for _ in 0..2 {
            session.train_step(model, &input(2), &[0, 2], &mut sgd).unwrap();
        }
        let live = session.workspace_stats().live_bytes;
        (session, live)
    }

    /// Runs a training forward on honest workers, then a backward with
    /// worker 0 switched to `turn(jobs it has run so far)`, and returns
    /// the backward's error.
    fn backward_abort(
        session: &mut DarknightSession,
        model: &mut Sequential,
        turn: impl FnOnce(u64) -> Behavior,
    ) -> DarknightError {
        session.begin_virtual_batch();
        let logits = session.private_forward(model, &input(2), true).unwrap();
        let (_, dl) = softmax_cross_entropy(&logits, &[0, 2]);
        session.recycle_output(logits);
        let done = session.cluster().worker(WorkerId(0)).jobs_executed();
        session.cluster_mut().worker_mut(WorkerId(0)).set_behavior(turn(done));
        let err = session.private_backward(model, &dl).unwrap_err();
        session.cluster_mut().worker_mut(WorkerId(0)).set_behavior(Behavior::Honest);
        err
    }

    /// After the batch retires, the enclave holds nothing and every
    /// session-pool buffer the pass took is back.
    fn assert_reclaimed(session: &mut DarknightSession, live_before: usize, what: &str) {
        session.begin_virtual_batch();
        assert_eq!(session.enclave_stats().current_bytes, 0, "{what}: enclave bytes leaked");
        assert_eq!(
            session.workspace_stats().live_bytes,
            live_before,
            "{what}: session-pool buffers left checked out"
        );
    }

    #[test]
    fn backward_spot_check_abort_returns_every_buffer() {
        let mut model = small_model(60);
        let (mut session, live) = warm_training_session(&mut model, 61);
        let err = backward_abort(&mut session, &mut model, |_| Behavior::AdditiveNoise);
        assert!(matches!(err, DarknightError::IntegrityViolation { phase: "backward", .. }));
        assert_reclaimed(&mut session, live, "spot-check abort");
    }

    /// Worker 0 dies at its weight-gradient job, or one job later at the
    /// data-gradient job (after the weight gradient was decoded).
    #[test]
    fn backward_gpu_fault_abort_returns_every_buffer() {
        for honest_jobs in [0, 1] {
            let mut model = small_model(62);
            let (mut session, live) = warm_training_session(&mut model, 63);
            let err = backward_abort(&mut session, &mut model, |done| Behavior::Crash {
                after: done + honest_jobs,
            });
            assert!(matches!(err, DarknightError::GpuFault { phase: "backward", .. }));
            assert_reclaimed(&mut session, live, "backward GPU-fault abort");
        }
    }

    #[test]
    fn successful_train_step_returns_every_buffer() {
        let mobile_x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 7) as f32 - 3.0) * 0.1);
        for (mut model, x, name) in [
            (small_model(64), input(2), "small"),
            (mini_mobilenet(8, 4, 65), mobile_x, "mobilenet"),
        ] {
            let cfg = DarknightConfig::new(2, 1).with_integrity(true);
            let cluster = GpuCluster::honest(cfg.workers_required(), 66);
            let mut session = DarknightSession::new(cfg, cluster).unwrap();
            let mut sgd = Sgd::new(0.01);
            for _ in 0..2 {
                session.train_step(&mut model, &x, &[0, 2], &mut sgd).unwrap();
            }
            let live = session.workspace_stats().live_bytes;
            session.train_step(&mut model, &x, &[0, 2], &mut sgd).unwrap();
            assert_reclaimed(&mut session, live, name);
        }
    }

    #[test]
    fn per_sample_inference_rejects_wrong_batch() {
        let cfg = DarknightConfig::new(2, 1);
        let cluster = GpuCluster::honest(cfg.workers_required(), 25);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(26);
        let err = session.private_inference_per_sample(&mut model, &input(3)).unwrap_err();
        assert!(matches!(err, DarknightError::BatchShape { expected: 2, actual: 3 }));
    }

    #[test]
    fn stats_are_populated() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 17);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(18);
        let _ = session.private_inference(&mut model, &input(2)).unwrap();
        let s = session.stats();
        assert!(s.linear_jobs >= 8); // 2 linear layers x 4 encodings
        assert!(s.encoded_elems > 0);
        assert!(s.decoded_elems > 0);
        assert!(s.bytes_to_gpus > 0);
        assert_eq!(s.integrity_checks, 2);
        assert!(session.enclave_stats().peak_bytes > 0);
    }

    /// Satellite regression: consecutive passes through *any* mix of
    /// entry points get fresh batches — no entry point can replay
    /// context ids against a stale `ctxs` map.
    #[test]
    fn consecutive_passes_never_reuse_batch_state() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 31);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(32);
        let x = input(2);
        // Forward in train mode retains contexts for a backward pass...
        session.begin_virtual_batch();
        let b1 = session.batch_index();
        let _ = session.private_forward(&mut model, &x, true).unwrap();
        // ...but a second forward without backward must not reuse them.
        let _ = session.private_forward(&mut model, &x, true).unwrap();
        assert_eq!(session.batch_index(), b1 + 1, "second pass must open a fresh batch");
        // Mixing entry points keeps advancing the batch number.
        let _ = session.private_inference(&mut model, &x).unwrap();
        assert_eq!(session.batch_index(), b1 + 2);
        let _ = session.private_inference_per_sample(&mut model, &x).unwrap();
        assert_eq!(session.batch_index(), b1 + 3);
        // And an explicit begin is honoured by the next pass (no double
        // begin).
        session.begin_virtual_batch();
        let fresh = session.batch_index();
        let _ = session.private_inference(&mut model, &x).unwrap();
        assert_eq!(session.batch_index(), fresh);
    }

    /// Steady-state invariant: after warm-up batches, the session's
    /// workspace pool stops missing — every per-batch buffer (quantized
    /// rows, noise, stacking, decoded rows, activations) is recycled
    /// rather than re-allocated. This is the session-side half of the
    /// zero-allocation hot path (the counting-allocator test in `dk_nn`
    /// enforces the model-side half down to literal zero).
    #[test]
    fn warm_session_workspace_stops_missing() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let cluster = GpuCluster::honest(cfg.workers_required(), 51);
        let mut session = DarknightSession::new(cfg, cluster).unwrap();
        let mut model = small_model(52);
        let x = input(2);
        for _ in 0..3 {
            let _ = session.private_inference(&mut model, &x).unwrap();
        }
        let misses = session.workspace_stats().misses;
        for _ in 0..5 {
            let _ = session.private_inference(&mut model, &x).unwrap();
        }
        let after = session.workspace_stats();
        // The dropped per-batch output tensor is the only buffer that
        // leaves the pool each batch (callers may recycle it; this test
        // deliberately drops it), so allow exactly that many misses.
        assert!(
            after.misses - misses <= 5 * 2,
            "session workspace kept allocating: {} new misses over 5 warm batches",
            after.misses - misses
        );
        assert!(after.takes > 0);
    }

    /// A step plan (weights quantized once, up front) must be invisible
    /// to the results: same bits as quantizing per batch.
    #[test]
    fn step_plan_is_bit_transparent() {
        let cfg = DarknightConfig::new(2, 1).with_integrity(true);
        let x = input(2);
        let mut model_a = small_model(40);
        let mut model_b = small_model(40);
        let mut plain = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 41))
            .unwrap();
        let mut planned = DarknightSession::new(cfg, GpuCluster::honest(cfg.workers_required(), 41))
            .unwrap();
        let plan = crate::engine::StepPlan::extract(&model_b, cfg.quant()).unwrap();
        planned.set_step_plan(Some(Arc::new(plan)));
        let ya = plain.private_inference(&mut model_a, &x).unwrap();
        let yb = planned.private_inference(&mut model_b, &x).unwrap();
        assert_eq!(ya.as_slice(), yb.as_slice());
    }
}
