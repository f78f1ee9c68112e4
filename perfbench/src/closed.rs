//! The workloads: one caller issues the next step as soon as the
//! previous one returns.
//!
//! * `infer-vgg` — per-sample private inference with a sequential
//!   `DarknightSession` over an in-process `GpuCluster`. Its traced run
//!   also measures the wire (the same steps over a `TcpFleet`) and the
//!   serving layer (see `serving`).
//! * `train-mobilenet` — Algorithm-2 large-batch steps of a sequential
//!   `LargeBatchTrainer`; the pipelined trainer is checked against it.

use crate::common::{
    bits_equal, check, domain, measure_phase, median, ms, p99, rel_error, samples, set_up, stack,
    windowed, Fail, Outcome, Phase, Rng, SetupTime, Timeline, CLASSES, HW, K, M,
};
use crate::exec::{ExecTally, TimedExec};
use crate::host::{HostSpeed, Steal, StealSampler, PROBE_CALM_MS};
use crate::serving::serving_layer;
use crate::trace::{health_totals, now_ns, partition_ns, stage_self_ns, write_trace, Tracer};
use crate::{metric, Args};
use darknight::core::session::SessionStats;
use darknight::core::virtual_batch::{LargeBatchReport, LargeBatchTrainer};
use darknight::core::{
    DarknightConfig, DarknightSession, EngineOptions, PipelineEngine, QuantizedReference, StepPlan,
};
use darknight::gpu::{serve_fleet_worker, FleetManifest, GpuCluster, GpuExec, TcpFleet};
use darknight::linalg::Tensor;
use darknight::nn::arch::{mini_mobilenet, mini_vgg};
use darknight::nn::loss::softmax_cross_entropy;
use darknight::nn::optim::Sgd;
use darknight::nn::Sequential;
use darknight::obs;
use darknight::tee::EpcConfig;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Distinct inference batches a run cycles through.
const INFER_BATCHES: usize = 64;
/// Steps run inside each set-up (warm-up).
const INFER_WARMUP: usize = 40;
/// Measured steps after which `infer-vgg` reads `peak_rss_mb` (16 cycles
/// through the batches).
const INFER_RSS_STEPS: usize = 16 * INFER_BATCHES;
/// Largest accepted `|private − float| / max|float|` per inference row.
/// Per-sample quantization at the default `l` stays near 0.1; a wrapped
/// field reduction produces errors of the order of the output.
const INFER_FIDELITY: f32 = 0.3;

/// Large-batch size `N` (4 virtual batches of `K`).
const TRAIN_N: usize = 16;
/// Distinct large batches a run cycles through.
const TRAIN_BATCHES: usize = 8;
/// Steps in each set-up; also the prefix the pipelined trainer must
/// reproduce.
const TRAIN_PREFIX: usize = 2;
/// Measured steps after which `train-mobilenet` reads `peak_rss_mb`.
const TRAIN_RSS_STEPS: usize = 16 * TRAIN_BATCHES;
/// Algorithm-2 gradient shard size (elements).
const TRAIN_SHARD: usize = 4096;
const TRAIN_LR: f32 = 0.01;
const TRAIN_MOMENTUM: f32 = 0.9;
/// Largest accepted `|private loss − float loss| / max(1, float loss)`
/// per virtual batch of the first step.
const TRAIN_FIDELITY: f32 = 0.1;

/// dk_obs span ring size: the workloads record every stage span on the
/// caller's thread, and the traced part stays within it without wrapping.
const RING: usize = 1 << 17;

fn session_config(seed: u64) -> DarknightConfig {
    DarknightConfig::new(K, M)
        .with_integrity(true)
        .with_seed(Rng::new(seed, domain::MASKS).next_u64())
}

/// `start + dur`, with `Duration::MAX` meaning "no time limit".
fn deadline(start: Instant, dur: Duration) -> Instant {
    start
        .checked_add(dur)
        .unwrap_or_else(|| start + Duration::from_secs(86_400))
}

fn fleet_seed(seed: u64) -> u64 {
    Rng::new(seed, domain::FLEET).next_u64()
}

// ---------------------------------------------------------------------
// Private inference
// ---------------------------------------------------------------------

/// One loopback worker host: a thread in this process running the
/// `dk_gpu_worker` accept loop; every logical worker is one connection.
struct TcpHost(JoinHandle<std::io::Result<()>>);

impl TcpHost {
    fn open(workers: usize, seed: u64) -> Result<(Self, TcpFleet), Fail> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let host = std::thread::Builder::new()
            .name("perfbench-worker-host".into())
            .spawn(move || serve_fleet_worker(listener))?;
        let mut text = format!("seed {seed}\nio_timeout_ms 10000\n");
        for _ in 0..workers {
            text.push_str(&format!("worker {addr}\n"));
        }
        let fleet = TcpFleet::from_manifest(&FleetManifest::parse(&text).map_err(Fail)?);
        Ok((Self(host), fleet))
    }

    /// Shuts the host down through `fleet` and joins its thread.
    fn close(self, fleet: &mut TcpFleet) -> Result<(), Fail> {
        fleet.shutdown();
        self.0
            .join()
            .map_err(|_| Fail("worker host panicked".into()))??;
        Ok(())
    }
}

type Session<X> = DarknightSession<TimedExec<X>>;

fn open_session<X: GpuExec>(
    backend: X,
    cfg: DarknightConfig,
    model: &Sequential,
) -> Result<Session<X>, Fail> {
    let mut s = DarknightSession::with_backend(cfg, TimedExec::new(backend), EpcConfig::default())?;
    s.set_step_plan(Some(Arc::new(StepPlan::extract(model, cfg.quant())?)));
    Ok(s)
}

/// Runs closed-loop private inference steps for `dur` (or at most
/// `max_steps`), recording one `infer_step` span per step and ticking
/// `speed` between steps. Returns `(completion s, step ms)` per step.
fn infer_loop<X: GpuExec>(
    session: &mut Session<X>,
    model: &mut Sequential,
    batches: &[Tensor<f32>],
    dur: Duration,
    max_steps: usize,
    tracer: &mut Tracer,
    mut speed: Option<&mut HostSpeed>,
) -> Result<Timeline, Fail> {
    let mut steps = Vec::with_capacity(1 << 16);
    let start = Instant::now();
    let end = deadline(start, dur);
    let first = tracer.spans.len() as u64 + 1;
    while Instant::now() < end && steps.len() < max_steps {
        let id = first + steps.len() as u64;
        session.cluster_mut().step = id;
        let t0 = now_ns();
        let y =
            session.private_inference_per_sample(model, &batches[steps.len() % batches.len()])?;
        let t1 = now_ns();
        tracer.record("infer_step", id, 0, t0, t1);
        session.recycle_output(y);
        steps.push((start.elapsed().as_secs_f64(), (t1 - t0) as f64 / 1e6));
        if let Some(s) = speed.as_deref_mut() {
            s.tick();
        }
    }
    Ok(steps)
}

pub fn infer(args: Args) -> Result<Outcome, Fail> {
    let seed = args.seed;
    let model = mini_vgg(HW, CLASSES, Rng::new(seed, domain::MODEL).next_u64());
    let cfg = session_config(seed);
    let rows = samples(seed, INFER_BATCHES * K);
    let batches: Vec<Tensor<f32>> = rows.chunks(K).map(stack).collect();

    // Set-up: construction through warm-up, several times; the last
    // one is measured.
    let (setup, (mut session, mut m)) = set_up(|last| {
        let cluster = GpuCluster::honest(cfg.workers_required(), fleet_seed(seed));
        let mut s = open_session(cluster, cfg, &model)?;
        let mut m = model.clone();
        infer_loop(
            &mut s,
            &mut m,
            &batches,
            Duration::MAX,
            INFER_WARMUP,
            &mut Tracer::default(),
            None,
        )?;
        Ok(last.then_some((s, m)))
    })?;

    let mut out = Outcome::default();
    let mut no_trace = Tracer::default();
    if !args.trace {
        // The loop picks batch `i % INFER_BATCHES` for its `i`-th step;
        // INFER_RSS_STEPS is a whole number of cycles, so the second leg
        // continues the cycle where the first left it.
        let phase = measure_phase(args.seconds, INFER_RSS_STEPS, |_, dur, max, speed| {
            infer_loop(
                &mut session,
                &mut m,
                &batches,
                dur,
                max,
                &mut no_trace,
                Some(speed),
            )
        })?;
        out.attempted = phase.steps.len() as u64;
        out.failed = session.cluster().tally.failed;
        out.metrics = closed_e2e(setup, K, &phase, &mut out.notes);
    } else {
        // A quarter of the time untraced, a quarter traced; then the
        // wire, and the serving layer for the other half, on the same
        // model and inputs.
        let quarter = args.seconds / 4;
        let sampler = StealSampler::start(Instant::now());
        let tally_a = session.cluster().tally;
        let plain = infer_loop(
            &mut session,
            &mut m,
            &batches,
            quarter,
            usize::MAX,
            &mut no_trace,
            None,
        )?;
        let plain_exec = session.cluster().tally.since(&tally_a);
        let plain_steal = sampler.finish();

        obs::trace::set_ring_capacity(RING);
        obs::trace::clear();
        obs::fleet().reset();
        let stats0 = session.stats();
        let mem0 = session.enclave_stats();
        let tally0 = session.cluster().tally;
        session.cluster_mut().tracer = Tracer::new(true, 1 << 18);
        let mut bench = Tracer::new(true, 1 << 16);
        obs::enable();
        let traced = infer_loop(
            &mut session,
            &mut m,
            &batches,
            quarter,
            RING / 40,
            &mut bench,
            None,
        )?;
        obs::disable();
        let spans = obs::trace::snapshot();
        let health = obs::fleet().snapshot();
        let n = traced.len() as f64;
        let stats = stats_since(&session.stats(), &stats0);
        let mem = session.enclave_stats();
        let tally = session.cluster().tally.since(&tally0);
        let windows: Vec<(u64, u64)> = bench.spans.iter().map(|s| (s.start_ns, s.end_ns)).collect();

        let wire = wire_twin(
            &mut session,
            &mut m,
            cfg,
            &model,
            seed,
            &batches,
            plain.len(),
        )?;
        let serve = serving_layer(seed, &model, cfg, &rows, args.seconds - 2 * quarter)?;

        let mut layer = LayerReport {
            steps: n,
            wall_ms: windows.iter().map(|w| (w.1 - w.0) as f64).sum::<f64>() / 1e6,
            p50_plain: windowed(&plain, &plain_steal, median),
            p50_traced: windowed(&traced, &Steal::none(), median),
            tail_p99: windowed(&plain, &plain_steal, p99),
            float_ms: float_infer_ms(&model, &batches),
            serve: serve.metrics,
            ..LayerReport::default()
        };
        layer.stages(&spans, &windows);
        // What the same steps add when their backend calls cross the
        // loopback wire: the communication bucket.
        let comm_ms = (wire.exec.ns as f64 / wire.steps as f64
            - plain_exec.ns as f64 / plain.len() as f64)
            / 1e6;
        layer.buckets[2] = comm_ms;
        let (_, busy_ns, _, _) = health_totals(&health);
        out.metrics = layer.metrics(LayerCounts {
            session: stats,
            exec: tally,
            worker_busy_ns: busy_ns,
            reconnects: wire.reconnects,
            comm_ms,
            peak_epc_bytes: mem.peak_bytes as u64,
            paging_events: mem.paging_events - mem0.paging_events,
            sealed_bytes: mem.sealed_out_bytes - mem0.sealed_out_bytes,
        });
        out.attempted = (plain.len() + traced.len()) as u64 + serve.attempted;
        out.failed = session.cluster().tally.failed + wire.exec.failed + serve.failed;
        bench
            .spans
            .extend_from_slice(&session.cluster().tracer.spans);
        bench.spans.extend_from_slice(&serve.spans);
        let path = write_trace(args.workload.name(), seed, &bench.spans, &spans, &health)?;
        out.notes.extend(layer.notes());
        out.notes.push(format!(
            "wire: {} steps over a TcpFleet to one loopback worker host, every output bit-identical \
             to the in-process fleet's; gpu.comm_ms = its backend time per step minus the in-process one",
            wire.steps
        ));
        out.notes.push(serve.note);
        out.notes.push(format!("trace written to {path}"));
    }

    // Output checks, outside the timed window.
    let worst = check_infer(&mut session, &mut m, &model, cfg, &rows, &batches)?;
    out.notes.push(format!(
        "checked {} rows bit-exact against QuantizedReference::forward_solo; float error {worst:.4} <= {INFER_FIDELITY}",
        rows.len()
    ));
    Ok(out)
}

/// The wire measured on `infer-vgg`'s own steps.
struct Wire {
    steps: u64,
    exec: ExecTally,
    reconnects: u64,
}

/// Runs `steps` of the same inference over a `TcpFleet` to one loopback
/// worker host, untraced, and checks every batch bit-identical to the
/// in-process `session`.
fn wire_twin(
    session: &mut Session<GpuCluster>,
    m: &mut Sequential,
    cfg: DarknightConfig,
    model: &Sequential,
    seed: u64,
    batches: &[Tensor<f32>],
    steps: usize,
) -> Result<Wire, Fail> {
    let (host, fleet) = TcpHost::open(cfg.workers_required(), fleet_seed(seed))?;
    let mut tcp = open_session(fleet, cfg, model)?;
    let mut tm = model.clone();
    let mut no_trace = Tracer::default();
    infer_loop(
        &mut tcp,
        &mut tm,
        batches,
        Duration::MAX,
        INFER_WARMUP,
        &mut no_trace,
        None,
    )?;
    let t0 = tcp.cluster().tally;
    let r0 = tcp.cluster().inner().reconnects();
    let done = infer_loop(
        &mut tcp,
        &mut tm,
        batches,
        Duration::MAX,
        steps,
        &mut no_trace,
        None,
    )?;
    let wire = Wire {
        steps: done.len() as u64,
        exec: tcp.cluster().tally.since(&t0),
        reconnects: tcp.cluster().inner().reconnects() - r0,
    };
    for (b, x) in batches.iter().enumerate() {
        let want = session.private_inference_per_sample(m, x)?;
        let got = tcp.private_inference_per_sample(&mut tm, x)?;
        check(bits_equal(want.as_slice(), got.as_slice()), || {
            format!("batch {b}: TCP output differs from the in-process fleet's")
        })?;
    }
    host.close(tcp.cluster_mut().inner_mut())?;
    Ok(wire)
}

/// Every batch once more: each row must equal the quantization-matched
/// clear-text reference bit for bit, and stay within the float-fidelity
/// bound of plain `Sequential::forward`. Returns the largest relative
/// float error seen.
fn check_infer<X: GpuExec>(
    session: &mut Session<X>,
    m: &mut Sequential,
    model: &Sequential,
    cfg: DarknightConfig,
    rows: &[Tensor<f32>],
    batches: &[Tensor<f32>],
) -> Result<f32, Fail> {
    let mut float_model = model.clone();
    let mut worst = 0.0f32;
    for (b, x) in batches.iter().enumerate() {
        let y = session.private_inference_per_sample(m, x)?;
        let f = float_model.forward(x, false);
        for r in 0..K {
            let want = QuantizedReference::forward_solo(model, &rows[b * K + r], cfg.quant())?;
            check(bits_equal(y.batch_item(r), want.as_slice()), || {
                format!("batch {b} row {r}: private output differs from QuantizedReference")
            })?;
            let e = rel_error(y.batch_item(r), f.batch_item(r));
            worst = worst.max(e);
            check(e <= INFER_FIDELITY, || {
                format!(
                    "batch {b} row {r}: |private - float| / max|float| = {e} > {INFER_FIDELITY}"
                )
            })?;
        }
        float_model.give_back(f);
        session.recycle_output(y);
    }
    Ok(worst)
}

/// Median time of a plain float forward over the same batches.
fn float_infer_ms(model: &Sequential, batches: &[Tensor<f32>]) -> f64 {
    let mut m = model.clone();
    let mut t = Vec::with_capacity(4 * batches.len());
    for i in 0..4 * batches.len() {
        let t0 = Instant::now();
        let y = m.forward(&batches[i % batches.len()], false);
        t.push(ms(t0.elapsed()));
        m.give_back(y);
    }
    median(&t)
}

/// The end-to-end record of a closed-loop workload of `batch` samples
/// per step: step times at the calm host's speed (see `HostSpeed`), and
/// the peak memory `measure_phase` read. The measured (uncorrected)
/// values go to `notes`.
fn closed_e2e(
    setup: SetupTime,
    batch: usize,
    phase: &Phase,
    notes: &mut Vec<String>,
) -> Vec<crate::common::Metric> {
    let per_s = |w: &[f64]| batch as f64 * w.len() as f64 * 1e3 / w.iter().sum::<f64>();
    let raw: Vec<f64> = phase.steps.iter().map(|s| s.1).collect();
    let corrected = phase.speed.correct(&phase.steps);
    notes.push(format!(
        "{} steps of {batch} samples; measured: setup_s {:.4}, samples_per_s {:.2}, \
         step_p50_ms {:.3}; host probe median {:.4} ms (calm host: {PROBE_CALM_MS} ms)",
        raw.len(),
        setup.raw,
        per_s(&raw),
        median(&raw),
        phase.speed.median_ms(),
    ));
    vec![
        metric("setup_s", setup.corrected, "s"),
        metric("samples_per_s", per_s(&corrected), "1/s"),
        metric("step_p50_ms", median(&corrected), "ms"),
        metric("peak_rss_mb", phase.rss_mb, "MiB"),
    ]
}

// ---------------------------------------------------------------------
// Algorithm-2 training
// ---------------------------------------------------------------------

struct TrainData {
    xs: Vec<Tensor<f32>>,
    labels: Vec<Vec<usize>>,
}

impl TrainData {
    fn new(seed: u64) -> Self {
        let rows = samples(seed, TRAIN_BATCHES * TRAIN_N);
        let mut rng = Rng::new(seed, domain::LABELS);
        Self {
            xs: rows.chunks(TRAIN_N).map(stack).collect(),
            labels: (0..TRAIN_BATCHES)
                .map(|_| (0..TRAIN_N).map(|_| rng.below(CLASSES)).collect())
                .collect(),
        }
    }

    /// Virtual batch `v` of large batch `b`.
    fn virtual_batch(&self, b: usize, v: usize) -> (Tensor<f32>, &[usize]) {
        let x = &self.xs[b];
        let per: usize = x.shape()[1..].iter().product();
        let mut shape = x.shape().to_vec();
        shape[0] = K;
        let data = x.as_slice()[v * K * per..(v + 1) * K * per].to_vec();
        (
            Tensor::from_vec(&shape, data),
            &self.labels[b][v * K..(v + 1) * K],
        )
    }
}

/// A trainer with the model and optimizer it steps.
struct Training {
    trainer: LargeBatchTrainer,
    model: Sequential,
    sgd: Sgd,
}

impl Training {
    fn new(trainer: LargeBatchTrainer, model: &Sequential) -> Self {
        Self {
            trainer,
            model: model.clone(),
            sgd: Sgd::new(TRAIN_LR).with_momentum(TRAIN_MOMENTUM),
        }
    }

    /// Runs closed-loop large-batch steps for `dur` (or at most
    /// `max_steps`), cycling the data from `first_batch`, recording one
    /// `train_step` span per step. Returns `(completion s, step ms)` per
    /// step and the step reports.
    fn run(
        &mut self,
        data: &TrainData,
        first_batch: usize,
        dur: Duration,
        max_steps: usize,
        tracer: &mut Tracer,
        mut speed: Option<&mut HostSpeed>,
    ) -> Result<(Timeline, Vec<LargeBatchReport>), Fail> {
        let mut steps = Vec::with_capacity(4096);
        let mut reports = Vec::with_capacity(4096);
        let start = Instant::now();
        let end = deadline(start, dur);
        let first_id = tracer.spans.len() as u64 + 1;
        while Instant::now() < end && steps.len() < max_steps {
            let b = (first_batch + steps.len()) % TRAIN_BATCHES;
            let t0 = now_ns();
            let report = self.trainer.train_large_batch(
                &mut self.model,
                &data.xs[b],
                &data.labels[b],
                &mut self.sgd,
            )?;
            let t1 = now_ns();
            tracer.record("train_step", first_id + steps.len() as u64, 0, t0, t1);
            check(report.mean_loss().is_finite(), || {
                format!("non-finite loss at step {}", steps.len())
            })?;
            steps.push((start.elapsed().as_secs_f64(), (t1 - t0) as f64 / 1e6));
            reports.push(report);
            if let Some(s) = speed.as_deref_mut() {
                s.tick();
            }
        }
        Ok((steps, reports))
    }
}

pub fn train(args: Args) -> Result<Outcome, Fail> {
    let seed = args.seed;
    let model = mini_mobilenet(HW, CLASSES, Rng::new(seed, domain::MODEL).next_u64());
    let cfg = session_config(seed);
    let data = TrainData::new(seed);
    let workers = cfg.workers_required();

    let (setup, (mut training, prefix)) = set_up(|last| {
        let session = DarknightSession::new(cfg, GpuCluster::honest(workers, fleet_seed(seed)))?;
        let mut t = Training::new(LargeBatchTrainer::new(session, TRAIN_SHARD), &model);
        let (_, prefix) = t.run(
            &data,
            0,
            Duration::MAX,
            TRAIN_PREFIX,
            &mut Tracer::default(),
            None,
        )?;
        Ok(last.then_some((t, prefix)))
    })?;
    let prefix_weights = training.model.snapshot_params();

    let mut out = Outcome::default();
    let mut no_trace = Tracer::default();
    if !args.trace {
        let phase = measure_phase(args.seconds, TRAIN_RSS_STEPS, |done, dur, max, speed| {
            let first = TRAIN_PREFIX + done;
            Ok(training
                .run(&data, first, dur, max, &mut no_trace, Some(speed))?
                .0)
        })?;
        out.attempted = phase.steps.len() as u64;
        out.metrics = closed_e2e(setup, TRAIN_N, &phase, &mut out.notes);
    } else {
        let half = args.seconds / 2;
        let sampler = StealSampler::start(Instant::now());
        let (plain, _) =
            training.run(&data, TRAIN_PREFIX, half, usize::MAX, &mut no_trace, None)?;
        let plain_steal = sampler.finish();
        obs::trace::clear();
        obs::fleet().reset();
        obs::trace::set_ring_capacity(RING);
        let session = training.trainer.session();
        let (stats0, mem0) = (session.stats(), session.enclave_stats());
        let mut steps_tr = Tracer::new(true, 4096);
        obs::enable();
        // About 230 stage spans per step.
        let (traced, reports) = training.run(
            &data,
            TRAIN_PREFIX + plain.len(),
            half,
            RING / 400,
            &mut steps_tr,
            None,
        )?;
        obs::disable();
        let spans = obs::trace::snapshot();
        let health = obs::fleet().snapshot();
        let session = training.trainer.session();
        let (stats, mem) = (session.stats(), session.enclave_stats());
        let n = traced.len() as f64;
        let windows: Vec<(u64, u64)> = steps_tr
            .spans
            .iter()
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let probe = train_exec_probe(cfg, &model, &data)?;
        let mut layer = LayerReport {
            steps: n,
            wall_ms: windows.iter().map(|w| (w.1 - w.0) as f64).sum::<f64>() / 1e6,
            p50_plain: windowed(&plain, &plain_steal, median),
            p50_traced: windowed(&traced, &Steal::none(), median),
            tail_p99: windowed(&plain, &plain_steal, p99),
            float_ms: float_train_ms(&model, &data),
            ..LayerReport::default()
        };
        layer.stages(&spans, &windows);
        let (_, busy_ns, _, reconnects) = health_totals(&health);
        let steps = traced.len() as u64;
        out.metrics = layer.metrics(LayerCounts {
            session: stats_since(&stats, &stats0),
            // The one-step probe, scaled to the traced step count.
            exec: ExecTally {
                ns: probe.ns * steps,
                calls: probe.calls * steps,
                failed: probe.failed * steps,
                macs: probe.macs * steps,
            },
            worker_busy_ns: busy_ns,
            reconnects,
            comm_ms: 0.0,
            peak_epc_bytes: mem.peak_bytes as u64,
            paging_events: mem.paging_events - mem0.paging_events,
            sealed_bytes: reports.iter().map(|r| r.bytes_evicted).sum(),
        });
        out.attempted = (plain.len() + traced.len()) as u64;
        let path = write_trace(args.workload.name(), seed, &steps_tr.spans, &spans, &health)?;
        out.notes.extend(layer.notes());
        out.notes.push(
            "gpu.exec_* and gpu.macs come from a probe session running one step's jobs \
             (the trainer's session is built over a bare GpuCluster, so it cannot be wrapped)"
                .into(),
        );
        out.notes.push(format!("trace written to {path}"));
    }

    // Output checks, outside the timed window: the pipelined trainer's
    // weights after the same prefix must equal the measured trainer's
    // bit for bit, and the first step's losses must match a plain float
    // forward.
    let engine = PipelineEngine::new(
        cfg,
        GpuCluster::honest(workers, fleet_seed(seed)),
        EngineOptions::default(),
    )?;
    let mut pipelined = Training::new(LargeBatchTrainer::pipelined(engine, TRAIN_SHARD), &model);
    pipelined.run(&data, 0, Duration::MAX, TRAIN_PREFIX, &mut no_trace, None)?;
    let want = pipelined.model.snapshot_params();
    check(want.len() == prefix_weights.len(), || {
        "parameter count differs".into()
    })?;
    for (i, (a, b)) in want.iter().zip(&prefix_weights).enumerate() {
        check(bits_equal(a.as_slice(), b.as_slice()), || {
            format!("parameter tensor {i}: pipelined weights after {TRAIN_PREFIX} steps differ from the sequential trainer's")
        })?;
    }
    let first = &prefix[0];
    let mut worst = 0.0f32;
    for v in 0..TRAIN_N / K {
        let (x, labels) = data.virtual_batch(0, v);
        let mut fm = model.clone();
        let logits = fm.forward(&x, true);
        let (loss, _) = softmax_cross_entropy(&logits, labels);
        let got = first.losses[v];
        let e = (got - loss).abs() / loss.abs().max(1.0);
        worst = worst.max(e);
        check(e <= TRAIN_FIDELITY, || {
            format!("virtual batch {v}: private loss {got} vs float loss {loss} (rel {e} > {TRAIN_FIDELITY})")
        })?;
    }
    out.notes.push(format!(
        "checked the pipelined trainer's weights after {TRAIN_PREFIX} steps bit-exact against the measured one's; \
         first-step loss error {worst:.4} <= {TRAIN_FIDELITY} against the float model"
    ));
    Ok(out)
}

/// Steps the exec probe averages over.
const PROBE_STEPS: usize = 4;

/// Backend calls of one training step, averaged over `PROBE_STEPS`
/// steps of a session wrapped in [`TimedExec`] that runs the trainer's
/// jobs.
fn train_exec_probe(
    cfg: DarknightConfig,
    model: &Sequential,
    data: &TrainData,
) -> Result<ExecTally, Fail> {
    let cluster = GpuCluster::honest(cfg.workers_required(), 0);
    let mut s = DarknightSession::with_backend(cfg, TimedExec::new(cluster), EpcConfig::default())?;
    let mut m = model.clone();
    let mut run = |s: &mut Session<GpuCluster>| -> Result<(), Fail> {
        m.zero_grad();
        for v in 0..TRAIN_N / K {
            let (x, labels) = data.virtual_batch(0, v);
            s.accumulate_gradients(&mut m, &x, labels)?;
        }
        Ok(())
    };
    run(&mut s)?; // warm
    let t0 = s.cluster().tally;
    for _ in 0..PROBE_STEPS {
        run(&mut s)?;
    }
    let t = s.cluster().tally.since(&t0);
    let per_step = |v: u64| v / PROBE_STEPS as u64;
    Ok(ExecTally {
        ns: per_step(t.ns),
        calls: per_step(t.calls),
        failed: per_step(t.failed),
        macs: per_step(t.macs),
    })
}

/// Median time of a plain float training step (forward, loss, backward
/// per virtual batch, one SGD update) on the same data.
fn float_train_ms(model: &Sequential, data: &TrainData) -> f64 {
    let mut m = model.clone();
    let mut sgd = Sgd::new(TRAIN_LR).with_momentum(TRAIN_MOMENTUM);
    let mut t = Vec::with_capacity(32);
    for i in 0..32 {
        let b = i % TRAIN_BATCHES;
        let t0 = Instant::now();
        m.zero_grad();
        for v in 0..TRAIN_N / K {
            let (x, labels) = data.virtual_batch(b, v);
            let logits = m.forward(&x, true);
            let (_, dlogits) = softmax_cross_entropy(&logits, labels);
            m.give_back(logits);
            let dx = m.backward(&dlogits);
            m.give_back(dx);
        }
        sgd.step(&mut m);
        t.push(ms(t0.elapsed()));
    }
    median(&t)
}

// ---------------------------------------------------------------------
// Per-layer roll-up shared by the closed-loop workloads and serving
// ---------------------------------------------------------------------

/// Counters of the traced window (totals, not per step).
pub struct LayerCounts {
    pub session: SessionStats,
    pub exec: ExecTally,
    pub worker_busy_ns: u64,
    pub reconnects: u64,
    /// Communication per step (ms), where measured.
    pub comm_ms: f64,
    pub peak_epc_bytes: u64,
    pub paging_events: u64,
    pub sealed_bytes: u64,
}

/// `now − before`, counter by counter.
pub fn stats_since(now: &SessionStats, before: &SessionStats) -> SessionStats {
    SessionStats {
        linear_jobs: now.linear_jobs - before.linear_jobs,
        encoded_elems: now.encoded_elems - before.encoded_elems,
        decoded_elems: now.decoded_elems - before.decoded_elems,
        bytes_to_gpus: now.bytes_to_gpus - before.bytes_to_gpus,
        bytes_from_gpus: now.bytes_from_gpus - before.bytes_from_gpus,
        integrity_checks: now.integrity_checks - before.integrity_checks,
        nonlinear_elems: now.nonlinear_elems - before.nonlinear_elems,
        recoveries: now.recoveries - before.recoveries,
    }
}

/// Timings of the traced window, normalized per step.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// Steps (or served batches) in the traced window.
    pub steps: f64,
    /// Total wall time of the step windows (ms).
    pub wall_ms: f64,
    pub p50_plain: f64,
    /// p99 step time (ms) of the untraced part.
    pub tail_p99: f64,
    pub p50_traced: f64,
    pub float_ms: f64,
    /// Stage self times, ms per step, `Stage` order.
    pub stage_ms: [f64; 6],
    /// `[linear, masking, communication, non-linear]`, ms per step.
    pub buckets: [f64; 4],
    pub coverage: f64,
    /// The serving layer's metrics (empty where it is not run).
    pub serve: Vec<crate::common::Metric>,
}

impl LayerReport {
    /// Stage self times and the bucket partition of `windows`; the
    /// communication bucket is left to the caller.
    pub fn stages(&mut self, spans: &[obs::SpanRecord], windows: &[(u64, u64)]) {
        let n = self.steps.max(1.0);
        let selfs = stage_self_ns(spans);
        for (o, s) in self.stage_ms.iter_mut().zip(selfs) {
            *o = s as f64 / 1e6 / n;
        }
        let [lin, mask, rest] = partition_ns(spans, windows);
        let per_step = |ns: u64| ns as f64 / 1e6 / n;
        self.buckets = [per_step(lin), per_step(mask), 0.0, per_step(rest)];
        let total = (lin + mask + rest) as f64;
        self.coverage = if total > 0.0 {
            (lin + mask) as f64 / total
        } else {
            0.0
        };
    }

    pub fn metrics(&self, c: LayerCounts) -> Vec<crate::common::Metric> {
        let n = self.steps.max(1.0);
        let per_step = |v: u64| v as f64 / n;
        let (st, exec) = (&c.session, &c.exec);
        // MAC rate per busy worker-second where fleet health records
        // busy time, else per second inside the backend.
        let busy_ns = if c.worker_busy_ns > 0 {
            c.worker_busy_ns
        } else {
            exec.ns
        };
        let mmacs = if busy_ns > 0 {
            exec.macs as f64 * 1e3 / busy_ns as f64
        } else {
            0.0
        };
        let mut v = vec![
            metric("core.quantize_ms", self.stage_ms[0], "ms"),
            metric("core.encode_ms", self.stage_ms[1], "ms"),
            metric("core.decode_ms", self.stage_ms[3], "ms"),
            metric("core.verify_ms", self.stage_ms[4], "ms"),
            metric("core.dispatch_ms", self.stage_ms[2], "ms"),
            metric("core.unattributed_ms", self.buckets[3], "ms"),
            metric("core.span_coverage", self.coverage, "fraction"),
            metric("core.linear_jobs", per_step(st.linear_jobs), "count"),
            metric("core.encoded_elems", per_step(st.encoded_elems), "count"),
            metric("core.decoded_elems", per_step(st.decoded_elems), "count"),
            metric(
                "core.nonlinear_elems",
                per_step(st.nonlinear_elems),
                "count",
            ),
            metric(
                "core.integrity_checks",
                per_step(st.integrity_checks),
                "count",
            ),
            metric("core.recoveries", per_step(st.recoveries), "count"),
            metric("gpu.exec_ms", per_step(exec.ns) / 1e6, "ms"),
            metric("gpu.exec_calls", per_step(exec.calls), "count"),
            metric("gpu.failed_results", per_step(exec.failed), "count"),
            metric("gpu.comm_ms", c.comm_ms, "ms"),
            metric("gpu.worker_busy_ms", per_step(c.worker_busy_ns) / 1e6, "ms"),
            metric("gpu.macs", per_step(exec.macs), "count"),
            metric("gpu.mmacs_per_s", mmacs, "1/s"),
            metric("gpu.bytes_to", per_step(st.bytes_to_gpus), "bytes"),
            metric("gpu.bytes_from", per_step(st.bytes_from_gpus), "bytes"),
            metric("gpu.reconnects", c.reconnects as f64, "count"),
            metric("nn.float_step_ms", self.float_ms, "ms"),
            metric(
                "nn.overhead_x",
                if self.float_ms > 0.0 {
                    self.p50_plain / self.float_ms
                } else {
                    0.0
                },
                "x",
            ),
            metric("tee.peak_epc_bytes", c.peak_epc_bytes as f64, "bytes"),
            metric("tee.paging_events", per_step(c.paging_events), "count"),
            metric("tee.sealed_bytes", per_step(c.sealed_bytes), "bytes"),
        ];
        v.push(metric("tail.step_p99_ms", self.tail_p99, "ms"));
        if self.serve.is_empty() {
            // Training runs no serving layer: no queue, no generator.
            v.extend(
                [
                    "serve.latency_p50_ms",
                    "serve.latency_p99_ms",
                    "serve.queue_wait_p50_ms",
                    "serve.queue_wait_p99_ms",
                    "serve.service_p50_ms",
                    "serve.service_p99_ms",
                ]
                .map(|name| metric(name, 0.0, "ms")),
            );
            v.extend([
                metric("serve.batch_fill", 1.0, "fraction"),
                metric("serve.submit_p99_us", 0.0, "us"),
                metric("serve.max_rps", 0.0, "1/s"),
                metric("serve.shed_frac", 0.0, "fraction"),
                metric("serve.fail_frac", 0.0, "fraction"),
                metric("gen.late_p99_ms", 0.0, "ms"),
                metric("gen.late_max_ms", 0.0, "ms"),
            ]);
        } else {
            v.extend_from_slice(&self.serve);
        }
        v.extend([
            metric(
                "trace.overhead_frac",
                if self.p50_plain > 0.0 {
                    self.p50_traced / self.p50_plain - 1.0
                } else {
                    0.0
                },
                "fraction",
            ),
            metric("bucket.linear_ms", self.buckets[0], "ms"),
            metric("bucket.masking_ms", self.buckets[1], "ms"),
            metric("bucket.communication_ms", self.buckets[2], "ms"),
            metric("bucket.nonlinear_ms", self.buckets[3], "ms"),
            metric("bucket.coverage", self.coverage, "fraction"),
        ]);
        v
    }

    /// The Table-3 roll-up as readable lines.
    pub fn notes(&self) -> Vec<String> {
        let [l, m, c, nl] = self.buckets;
        let wall = self.wall_ms / self.steps.max(1.0);
        vec![
            format!(
                "Table-3 buckets per step over {} steps (wall {:.3} ms): linear {l:.3} ms, masking {m:.3} ms, \
                 communication {c:.3} ms, non-linear {nl:.3} ms; stage spans cover {:.1}% of wall time",
                self.steps,
                wall,
                self.coverage * 100.0
            ),
            "non-linear is the unattributed remainder (TEE non-linear layers, loss, SGD, aggregation, \
             benchmark glue): the program records no stage spans for that work yet"
                .into(),
        ]
    }
}
