//! A `GpuExec` timing wrapper: every call the session makes into its
//! accelerator backend is timed from outside the backend, counted, and
//! (when tracing) recorded as a span under the current step.

use crate::trace::{now_ns, Tracer};
use darknight::field::F25;
use darknight::gpu::{GpuError, GpuExec, LinearJob, WorkerId, WorkerResult};
use darknight::linalg::Tensor;

/// Totals over every backend call.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecTally {
    /// Wall time inside the backend.
    pub ns: u64,
    /// Backend calls (execute, single-worker execute, store, release).
    pub calls: u64,
    /// Per-worker results that came back as faults.
    pub failed: u64,
    /// Multiply-accumulates of the jobs handed to the backend.
    pub macs: u64,
}

impl ExecTally {
    pub fn since(&self, before: &ExecTally) -> ExecTally {
        ExecTally {
            ns: self.ns - before.ns,
            calls: self.calls - before.calls,
            failed: self.failed - before.failed,
            macs: self.macs - before.macs,
        }
    }
}

/// Wraps any backend; see the module docs.
#[derive(Debug)]
pub struct TimedExec<X> {
    inner: X,
    pub tally: ExecTally,
    pub tracer: Tracer,
    /// Step the next calls belong to (parent of their spans).
    pub step: u64,
    next_id: u64,
}

impl<X: GpuExec> TimedExec<X> {
    pub fn new(inner: X) -> Self {
        Self {
            inner,
            tally: ExecTally::default(),
            tracer: Tracer::default(),
            step: 0,
            next_id: 0,
        }
    }

    pub fn inner(&self) -> &X {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut X {
        &mut self.inner
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut X) -> R) -> R {
        let t0 = now_ns();
        let r = f(&mut self.inner);
        let t1 = now_ns();
        self.tally.ns += t1 - t0;
        self.tally.calls += 1;
        self.next_id += 1;
        self.tracer
            .record("gpu_exec", self.next_id, self.step, t0, t1);
        r
    }
}

impl<X: GpuExec> GpuExec for TimedExec<X> {
    fn num_workers(&self) -> usize {
        self.inner.num_workers()
    }

    fn execute(&mut self, tag: u64, jobs: &[LinearJob]) -> Result<Vec<WorkerResult>, GpuError> {
        self.tally.macs += jobs.iter().map(LinearJob::macs).sum::<u64>();
        let r = self.timed(|x| x.execute(tag, jobs));
        if let Ok(results) = &r {
            self.tally.failed += results.iter().filter(|w| w.is_err()).count() as u64;
        }
        r
    }

    fn execute_into(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        self.tally.macs += jobs.iter().map(LinearJob::macs).sum::<u64>();
        let before = out.len();
        let r = self.timed(|x| x.execute_into(tag, jobs, out));
        self.tally.failed += out[before..].iter().filter(|w| w.is_err()).count() as u64;
        r
    }

    fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
        self.inner.recycle_outputs(outputs);
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
        self.tally.macs += job.macs();
        let r = self.timed(|x| x.execute_on(id, job));
        self.tally.failed += u64::from(r.is_err());
        r
    }

    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        self.timed(|x| x.store_encodings(ctx_id, encodings));
    }

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        self.timed(|x| x.release_contexts(ctx_ids));
    }
}
