//! A single simulated GPU worker.

use crate::behavior::Behavior;
use crate::job::{JobOutput, LinearJob};
use dk_field::{F25, FieldRng};
use dk_linalg::{Tensor, Workspace};
use std::collections::HashMap;

/// Worker identity within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub usize);

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gpu{}", self.0)
    }
}

/// Cap on the retained adversary-view record, per worker. Every stored
/// encoding is copied into the record, so the cap alone bounds its
/// memory over a training run (one encoding per linear layer per
/// virtual batch). The largest consumer, the multi-round chi-square
/// uniformity audit, reads 60 observations per worker (12 train-mode
/// forwards of a 5-layer model), so 128 keeps its whole view. Beyond
/// the cap the record wraps and overwrites the oldest entries — the
/// retained view is a window of recent traffic. The backing `Vec` is
/// reserved up front so the record never reallocates, keeping warm
/// steps allocation-steady.
const OBSERVATION_CAP: usize = 128;

/// A simulated accelerator.
///
/// Besides executing jobs, the worker does two things a real deployment
/// does:
///
/// * it **stores the forward encodings** it receives, keyed by layer, so
///   the backward pass can reuse them without re-transmission (§6 of the
///   paper: "our current implementation of DarKnight stores these
///   encoded inputs within the GPU memory");
/// * it **records every masked vector it observes** (up to
///   [`OBSERVATION_CAP`], then a wrapping window), which is exactly
///   the adversary's view — the collusion analyzer consumes this.
#[derive(Debug, Clone)]
pub struct GpuWorker {
    id: WorkerId,
    behavior: Behavior,
    rng: FieldRng,
    stored_encodings: HashMap<u64, Tensor<F25>>,
    observations: Vec<Vec<F25>>,
    /// Ring cursor into `observations` once the record is at capacity.
    obs_next: usize,
    jobs_executed: u64,
    macs_executed: u64,
    latency: Option<crate::LatencyModel>,
    /// Kernel scratch pool (im2col columns, packed panels): one per
    /// worker, reused across the job stream. Cloned/forked workers
    /// start with a fresh pool — scratch carries no state.
    ws: Workspace,
}

impl GpuWorker {
    /// Creates a worker with the given behaviour.
    pub fn new(id: WorkerId, behavior: Behavior, seed: u64) -> Self {
        Self {
            id,
            behavior,
            rng: FieldRng::seed_from(seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9)),
            stored_encodings: HashMap::new(),
            observations: Vec::with_capacity(OBSERVATION_CAP),
            obs_next: 0,
            jobs_executed: 0,
            macs_executed: 0,
            latency: None,
            ws: Workspace::new(),
        }
    }

    /// Attaches (or clears) a modeled execution-latency profile. When
    /// set, [`GpuWorker::execute`] sleeps for the modeled accelerator
    /// time after computing the (host-CPU-simulated) result, so
    /// wall-clock measurements reflect device latency rather than the
    /// speed of the simulation itself.
    pub fn set_latency(&mut self, latency: Option<crate::LatencyModel>) {
        self.latency = latency;
    }

    /// The modeled latency profile, if any.
    pub fn latency(&self) -> Option<crate::LatencyModel> {
        self.latency
    }

    /// The worker id.
    pub fn id(&self) -> WorkerId {
        self.id
    }

    /// The configured behaviour.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// Reconfigures the behaviour (tests flip workers malicious
    /// mid-session: the paper's *dynamic* adversary).
    pub fn set_behavior(&mut self, b: Behavior) {
        self.behavior = b;
    }

    /// Stores a forward encoding for later backward reuse and records it
    /// as an observation.
    pub fn store_encoding(&mut self, layer_id: u64, encoding: Tensor<F25>) {
        if self.observations.len() < OBSERVATION_CAP {
            self.observations.push(encoding.as_slice().to_vec());
        } else {
            // At capacity: overwrite the oldest slot in place, reusing
            // its allocation when the new observation fits.
            let slot = &mut self.observations[self.obs_next];
            slot.clear();
            slot.extend_from_slice(encoding.as_slice());
            self.obs_next = (self.obs_next + 1) % OBSERVATION_CAP;
        }
        self.stored_encodings.insert(layer_id, encoding);
    }

    /// Retrieves the stored encoding for a layer.
    pub fn stored_encoding(&self, layer_id: u64) -> Option<&Tensor<F25>> {
        self.stored_encodings.get(&layer_id)
    }

    /// Clears stored encodings (between virtual batches).
    pub fn clear_encodings(&mut self) {
        self.stored_encodings.clear();
    }

    /// Removes one stored encoding by context id. Pipelined execution
    /// keys contexts per `(virtual batch, layer)` and releases them
    /// individually, since several batches share the worker at once.
    pub fn remove_encoding(&mut self, ctx_id: u64) {
        self.stored_encodings.remove(&ctx_id);
    }

    /// True once a [`Behavior::Crash`] worker has spent its honest-job
    /// budget: the execution backends consult this before running a job
    /// and simulate the worker's death instead (thread exit / typed
    /// [`crate::GpuError::WorkerLost`]).
    pub fn crash_pending(&self) -> bool {
        matches!(self.behavior, Behavior::Crash { after } if self.jobs_executed >= after)
    }

    /// True if this worker holds every stored encoding the job needs —
    /// i.e. [`GpuWorker::execute`] would not panic on it. Remote worker
    /// processes check this up front so a replay gap becomes a typed
    /// wire error instead of a process abort.
    pub fn can_execute(&self, job: &LinearJob) -> bool {
        match job {
            LinearJob::ConvWeightGradStored { layer_id, .. }
            | LinearJob::DenseWeightGradStored { layer_id, .. } => {
                self.stored_encodings.contains_key(layer_id)
            }
            _ => true,
        }
    }

    /// Executes a job, applying the adversarial behaviour to the result.
    ///
    /// # Panics
    ///
    /// Panics if a `*Stored` job references a layer this worker has no
    /// stored encoding for (a protocol violation by the dispatcher).
    pub fn execute(&mut self, job: &LinearJob) -> JobOutput {
        self.jobs_executed += 1;
        self.macs_executed += job.macs();
        // Record what the job reveals: the masked input (forward) or the
        // stored encoding is already recorded; backward-data inputs are
        // deltas, which the threat model treats as non-sensitive.
        let honest = match (self.behavior, job) {
            (Behavior::StaleInput, LinearJob::ConvForward { weights, x, shape }) => {
                let zero = Tensor::zeros(x.shape());
                LinearJob::ConvForward { weights: weights.clone(), x: zero, shape: *shape }
                    .execute_ws(&mut self.ws)
            }
            (_, LinearJob::ConvWeightGradStored { delta_batch, beta, layer_id, shape }) => {
                let x = self
                    .stored_encodings
                    .get(layer_id)
                    .unwrap_or_else(|| panic!("{} has no stored encoding for layer {layer_id}", self.id))
                    .clone();
                let delta = crate::job::beta_combine(delta_batch, beta);
                LinearJob::ConvWeightGrad { delta, x, shape: *shape }.execute_ws(&mut self.ws)
            }
            (_, LinearJob::DenseWeightGradStored { delta_batch, beta, layer_id }) => {
                let x = self
                    .stored_encodings
                    .get(layer_id)
                    .unwrap_or_else(|| panic!("{} has no stored encoding for layer {layer_id}", self.id))
                    .clone();
                let delta = crate::job::beta_combine(delta_batch, beta);
                LinearJob::DenseWeightGrad { delta, x }.execute_ws(&mut self.ws)
            }
            _ => job.execute_ws(&mut self.ws),
        };
        if let Some(l) = self.latency {
            std::thread::sleep(l.delay(job.macs()));
        }
        self.behavior.corrupt(honest, &mut self.rng)
    }

    /// Returns an output tensor this worker produced back to its
    /// scratch pool, so the next job's output reuses the buffer instead
    /// of allocating. Called by the TEE side once a batch is decoded.
    pub fn recycle_output(&mut self, t: Tensor<F25>) {
        self.ws.give_tensor(t);
    }

    /// Everything this worker has observed (the adversary's view).
    pub fn observations(&self) -> &[Vec<F25>] {
        &self.observations
    }

    /// Number of jobs executed.
    pub fn jobs_executed(&self) -> u64 {
        self.jobs_executed
    }

    /// Total MACs executed (perf accounting).
    pub fn macs_executed(&self) -> u64 {
        self.macs_executed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_linalg::Conv2dShape;
    use std::sync::Arc;

    fn conv_job() -> LinearJob {
        let shape = Conv2dShape::simple(1, 2, 3, 1, 1);
        LinearJob::ConvForward {
            weights: Arc::new(Tensor::from_fn(&shape.weight_shape(), |i| F25::new(i as u64))),
            x: Tensor::from_fn(&[1, 1, 4, 4], |i| F25::new(i as u64)),
            shape,
        }
    }

    #[test]
    fn honest_worker_matches_job() {
        let mut w = GpuWorker::new(WorkerId(0), Behavior::Honest, 1);
        let job = conv_job();
        assert_eq!(w.execute(&job), job.execute());
        assert_eq!(w.jobs_executed(), 1);
        assert!(w.macs_executed() > 0);
    }

    #[test]
    fn malicious_worker_corrupts() {
        let mut w = GpuWorker::new(WorkerId(1), Behavior::AdditiveNoise, 2);
        let job = conv_job();
        assert_ne!(w.execute(&job), job.execute());
    }

    #[test]
    fn stale_input_gives_zero_conv() {
        let mut w = GpuWorker::new(WorkerId(2), Behavior::StaleInput, 3);
        let job = conv_job();
        let out = w.execute(&job);
        assert!(out.as_slice().iter().all(|v| v.is_zero()));
    }

    #[test]
    fn encoding_storage_round_trip() {
        let mut w = GpuWorker::new(WorkerId(0), Behavior::Honest, 4);
        let enc = Tensor::from_fn(&[1, 2, 2, 2], |i| F25::new(i as u64 * 11));
        w.store_encoding(5, enc.clone());
        assert_eq!(w.stored_encoding(5), Some(&enc));
        assert!(w.stored_encoding(6).is_none());
        w.clear_encodings();
        assert!(w.stored_encoding(5).is_none());
        // Observation survives clearing (the adversary remembers).
        assert_eq!(w.observations().len(), 1);
    }

    #[test]
    fn observation_record_is_capped_and_wraps_oldest_first() {
        let mut w = GpuWorker::new(WorkerId(0), Behavior::Honest, 6);
        let extra = 5;
        for i in 0..OBSERVATION_CAP + extra {
            w.store_encoding(0, Tensor::from_vec(&[1], vec![F25::new(i as u64)]));
        }
        let seen = w.observations();
        assert_eq!(seen.len(), OBSERVATION_CAP);
        // The `extra` newest encodings overwrote the `extra` oldest, slot
        // by slot; every other slot still holds its first occupant.
        for (slot, obs) in seen.iter().enumerate() {
            let stored = if slot < extra { OBSERVATION_CAP + slot } else { slot };
            assert_eq!(obs, &[F25::new(stored as u64)], "slot {slot}");
        }
    }

    #[test]
    fn behavior_can_change_dynamically() {
        let mut w = GpuWorker::new(WorkerId(0), Behavior::Honest, 5);
        let job = conv_job();
        assert_eq!(w.execute(&job), job.execute());
        w.set_behavior(Behavior::ZeroOutput);
        assert!(w.execute(&job).as_slice().iter().all(|v| v.is_zero()));
    }
}
