//! The serving layer: open-loop Poisson arrivals into `dk_serve::Server`,
//! measured inside `infer-vgg`'s traced run on the same model and inputs.
//!
//! A generator thread submits each request when it is due; a collector
//! thread waits on the tickets. Latency runs from when a request was
//! due to when its response was routed (`submit + queue_wait +
//! service_time`), so a stalled generator or server shows up as
//! latency, and the generator's own lateness is reported.
//!
//! The drive has two phases: a fixed offered rate well under the
//! capacity of a 2-core host, then a saturation phase offered far more
//! than the server can take, whose completion rate is `serve.max_rps`.

use crate::common::{
    bits_equal, calm, check, domain, median, ms, p99, percentile, rel_error, stack, windowed, Fail,
    Metric, Rng, Timeline, HW, K, WINDOW_S,
};
use crate::host::{Steal, StealSampler};
use crate::metric;
use crate::trace::{now_ns, Span, Tracer};
use darknight::core::{DarknightConfig, QuantizedReference};
use darknight::gpu::GpuCluster;
use darknight::linalg::Tensor;
use darknight::nn::Sequential;
use darknight::serve::{InferenceRequest, Server, ServerConfig, ServerHandle, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered rate of the fixed-load phase (requests/s): about a third of
/// what a 1-worker pool completes on a quiet 2-core host at the partial
/// batches this rate forms, leaving headroom for a host that steals CPU.
const RATE_FIXED: f64 = 200.0;
/// Offered rate of the saturation phase (requests/s), well above what a
/// 1-worker pool completes on a 2-core host.
const RATE_SAT: f64 = 1500.0;
/// Share of the drive spent at the fixed rate (the rest saturates).
const FIXED_SHARE: f64 = 0.6;
/// Start of the saturation phase left out of `max_rps` while the
/// ingress queue fills.
const SAT_WARM: Duration = Duration::from_millis(500);
/// Requests served before the drive (warm-up), in bursts of 2K.
const WARMUP: usize = 160;
/// Largest accepted `|served − float| / max|float|` per request.
const FIDELITY: f32 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Fixed,
    Saturate,
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Offset from the start of the drive.
    due: Duration,
    input: usize,
    phase: Phase,
}

/// Poisson arrivals at `rate` over `[start, start + len)`.
fn poisson(
    rng: &mut Rng,
    pool: usize,
    rate: f64,
    start: Duration,
    len: Duration,
    phase: Phase,
) -> Vec<Arrival> {
    let mut out = Vec::with_capacity((rate * len.as_secs_f64() * 1.2) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= len.as_secs_f64() {
            return out;
        }
        out.push(Arrival {
            due: start + Duration::from_secs_f64(t),
            input: rng.below(pool),
            phase,
        });
    }
}

/// What the collector learned about one request.
struct Served {
    input: usize,
    phase: Phase,
    /// Due → response routed, ms.
    latency_ms: f64,
    queue_ms: f64,
    service_ms: f64,
    /// Real rows ÷ K of the batch the request rode in.
    fill: f64,
    /// Completion instant, as an offset from the drive start.
    completed: Duration,
    output: Result<Tensor<f32>, String>,
}

/// Everything one drive produced.
#[derive(Default)]
struct Drive {
    served: Vec<Served>,
    /// Requests shed at admission, per phase `[fixed, saturate]`.
    shed: [u64; 2],
    /// Accepted requests whose ticket never resolved.
    lost: u64,
    submitted: [u64; 2],
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    spans: Vec<Span>,
    /// Host steal during the drive, on the drive's clock.
    steal: Steal,
}

impl Drive {
    /// `(completion s, f(response))` of the fixed-rate requests served,
    /// in completion order.
    fn timeline(&self, f: fn(&Served) -> f64) -> Timeline {
        let mut v: Vec<(f64, f64)> = self
            .served
            .iter()
            .filter(|s| s.phase == Phase::Fixed && s.output.is_ok())
            .map(|s| (s.completed.as_secs_f64(), f(s)))
            .collect();
        v.sort_by(|a, b| a.0.total_cmp(&b.0));
        v
    }
}

/// Runs `schedule` against the server with one generator and one
/// collector thread.
fn drive(handle: &ServerHandle, rows: &[Tensor<f32>], schedule: &[Arrival]) -> Drive {
    // Start slightly in the future so the first arrivals are on time.
    let start = Instant::now() + Duration::from_millis(5);
    let start_ns = now_ns() + 5_000_000;
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Result<Ticket, ()>)>();
    let mut out = Drive::default();
    let sampler = StealSampler::start(start);
    std::thread::scope(|scope| {
        let gen = scope.spawn(move || {
            let mut late = Vec::with_capacity(schedule.len());
            let mut submit = Vec::with_capacity(schedule.len());
            let mut tracer = Tracer::new(true, schedule.len());
            let mut shed = [0u64; 2];
            let mut submitted = [0u64; 2];
            for (i, a) in schedule.iter().enumerate() {
                let due = start + a.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let request = InferenceRequest::new(rows[a.input].clone());
                let t0 = Instant::now();
                let s0 = now_ns();
                let r = handle.submit(request);
                let s1 = now_ns();
                late.push(ms(t0.saturating_duration_since(due)));
                submit.push((s1 - s0) as f64 / 1e3);
                tracer.record("submit", i as u64 + 1, i as u64 + 1, s0, s1);
                let p = a.phase as usize;
                submitted[p] += 1;
                let r = r.map_err(|_| shed[p] += 1);
                if tx.send((i, due, t0, r)).is_err() {
                    break;
                }
            }
            drop(tx);
            (late, submit, tracer.spans, shed, submitted)
        });
        let col = scope.spawn(move || {
            let mut tracer = Tracer::new(true, 2 * schedule.len());
            let mut served = Vec::with_capacity(schedule.len());
            let mut lost = 0u64;
            for (i, due, submitted, r) in rx {
                let Ok(ticket) = r else { continue };
                let w0 = now_ns();
                let Some(resp) = ticket.wait() else {
                    lost += 1;
                    continue;
                };
                let w1 = now_ns();
                let completed = submitted + resp.queue_wait + resp.service_time;
                let id = i as u64 + 1;
                let due_ns = start_ns + (due - start).as_nanos() as u64;
                let done_ns = start_ns + (completed - start).as_nanos() as u64;
                tracer.record("request", id, 0, due_ns, done_ns);
                tracer.record("wait", id, id, w0, w1);
                served.push(Served {
                    input: schedule[i].input,
                    phase: schedule[i].phase,
                    latency_ms: ms(completed - due),
                    queue_ms: ms(resp.queue_wait),
                    service_ms: ms(resp.service_time),
                    fill: resp.batch_fill,
                    completed: completed - start,
                    output: resp.output.map_err(|e| e.to_string()),
                });
            }
            (served, lost, tracer.spans)
        });
        let (late, submit, mut spans, shed, submitted) = gen.join().expect("generator thread");
        let (served, lost, col_spans) = col.join().expect("collector thread");
        spans.extend(col_spans);
        out.served = served;
        out.lost = lost;
        out.late_ms = late;
        out.submit_us = submit;
        out.spans = spans;
        out.shed = shed;
        out.submitted = submitted;
    });
    out.steal = sampler.finish();
    out
}

/// Starts a server and serves `WARMUP` requests in bursts.
fn start_warm(
    config: &ServerConfig,
    model: &Sequential,
    cluster: &GpuCluster,
    rows: &[Tensor<f32>],
) -> Result<Server, Fail> {
    let server = Server::start(config.clone(), model, cluster)?;
    let handle = server.handle();
    for burst in 0..WARMUP / (2 * K) {
        let tickets: Vec<Ticket> = (0..2 * K)
            .map(|i| {
                handle.submit(InferenceRequest::new(
                    rows[(burst * 2 * K + i) % rows.len()].clone(),
                ))
            })
            .collect::<Result<_, _>>()?;
        for t in tickets {
            let resp = t
                .wait()
                .ok_or_else(|| Fail("server dropped a warm-up request".into()))?;
            resp.output?;
        }
    }
    Ok(server)
}

/// What the serving layer reports into the traced run.
pub struct ServeLayer {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    /// Error responses, lost tickets, and requests shed at the fixed rate
    /// (shedding in the saturation phase is admission control by design).
    pub failed: u64,
    pub note: String,
}

/// Serves `rows` from a 1-worker pool (default lanes, queue and 2 ms
/// aggregation deadline) under the two-phase drive for `dur`, then
/// checks every response bit for bit against
/// `QuantizedReference::forward_solo` and against the float model.
pub fn serving_layer(
    seed: u64,
    model: &Sequential,
    cfg: DarknightConfig,
    rows: &[Tensor<f32>],
    dur: Duration,
) -> Result<ServeLayer, Fail> {
    let cluster = GpuCluster::honest(
        cfg.workers_required(),
        Rng::new(seed, domain::FLEET).next_u64(),
    );
    let config = ServerConfig::new(cfg, &[3, HW, HW]).with_workers(1);
    let server = start_warm(&config, model, &cluster, rows)?;
    let mut rng = Rng::new(seed, domain::SCHEDULE);
    let fixed = dur.mul_f64(FIXED_SHARE);
    let sat = dur - fixed;
    let mut schedule = poisson(
        &mut rng,
        rows.len(),
        RATE_FIXED,
        Duration::ZERO,
        fixed,
        Phase::Fixed,
    );
    schedule.extend(poisson(
        &mut rng,
        rows.len(),
        RATE_SAT,
        fixed,
        sat,
        Phase::Saturate,
    ));
    let d = drive(&server.handle(), rows, &schedule);
    server.shutdown();

    let lat = d.timeline(|s| s.latency_ms);
    let svc = d.timeline(|s| s.service_ms);
    let queue = d.timeline(|s| s.queue_ms);
    // Batch-weighted fill at the fixed rate: a batch of f·K real rows
    // answers f·K requests, so it is counted 1/(f·K) times per request.
    let fill: Vec<f64> = d.timeline(|s| s.fill).into_iter().map(|(_, f)| f).collect();
    let batches: f64 = fill.iter().map(|f| 1.0 / (f * K as f64)).sum();
    let batch_fill = if batches > 0.0 {
        fill.len() as f64 / (batches * K as f64)
    } else {
        0.0
    };

    // Saturation: completions per window (about `WINDOW_S` long) after
    // the queue filled.
    let warm = SAT_WARM.min(sat / 2);
    let (sat_start, sat_len) = ((fixed + warm).as_secs_f64(), (sat - warm).as_secs_f64());
    let n_windows = ((sat_len / WINDOW_S) as usize).max(1);
    let width = sat_len / n_windows as f64;
    let mut counts = vec![0u64; n_windows];
    for s in d
        .served
        .iter()
        .filter(|s| s.phase == Phase::Saturate && s.output.is_ok())
    {
        let off = s.completed.as_secs_f64() - sat_start;
        if off >= 0.0 {
            if let Some(c) = counts.get_mut((off / width) as usize) {
                *c += 1;
            }
        }
    }
    let spans: Vec<(f64, f64)> = (0..n_windows)
        .map(|i| {
            let a = sat_start + i as f64 * width;
            (a, a + width)
        })
        .collect();
    let keep = calm(&spans, &d.steal);
    let calm_counts: Vec<u64> = counts
        .iter()
        .zip(&keep)
        .filter(|(_, k)| **k)
        .map(|(c, _)| *c)
        .collect();
    let max_rps = calm_counts.iter().sum::<u64>() as f64 / (calm_counts.len() as f64 * width);

    let errors = d.served.iter().filter(|s| s.output.is_err()).count() as u64;
    let attempted: u64 = d.submitted.iter().sum();
    let fixed_attempted = d.submitted[Phase::Fixed as usize].max(1) as f64;
    let metrics = vec![
        metric(
            "serve.latency_p50_ms",
            windowed(&lat, &d.steal, median),
            "ms",
        ),
        metric("serve.latency_p99_ms", windowed(&lat, &d.steal, p99), "ms"),
        metric(
            "serve.queue_wait_p50_ms",
            windowed(&queue, &d.steal, median),
            "ms",
        ),
        metric(
            "serve.queue_wait_p99_ms",
            windowed(&queue, &d.steal, p99),
            "ms",
        ),
        metric(
            "serve.service_p50_ms",
            windowed(&svc, &d.steal, median),
            "ms",
        ),
        metric("serve.service_p99_ms", windowed(&svc, &d.steal, p99), "ms"),
        metric("serve.batch_fill", batch_fill, "fraction"),
        metric("serve.submit_p99_us", p99(&d.submit_us), "us"),
        metric("serve.max_rps", max_rps, "1/s"),
        metric(
            "serve.shed_frac",
            d.shed[Phase::Fixed as usize] as f64 / fixed_attempted,
            "fraction",
        ),
        metric(
            "serve.fail_frac",
            (errors + d.lost) as f64 / attempted.max(1) as f64,
            "fraction",
        ),
        metric("gen.late_p99_ms", p99(&d.late_ms), "ms"),
        metric("gen.late_max_ms", percentile(&d.late_ms, 1.0), "ms"),
    ];

    // Every served response equals its request run alone through the
    // quantization-matched reference, and stays near the float model.
    let quant = cfg.quant();
    let mut want: Vec<Option<Tensor<f32>>> = vec![None; rows.len()];
    let mut float_model = model.clone();
    let mut checked = 0usize;
    for s in &d.served {
        let Ok(y) = &s.output else { continue };
        if want[s.input].is_none() {
            let solo = QuantizedReference::forward_solo(model, &rows[s.input], quant)?;
            let f = float_model.forward(&stack(std::slice::from_ref(&rows[s.input])), false);
            let e = rel_error(solo.as_slice(), f.as_slice());
            check(e <= FIDELITY, || {
                format!(
                    "input {}: |private - float| / max|float| = {e} > {FIDELITY}",
                    s.input
                )
            })?;
            float_model.give_back(f);
            want[s.input] = Some(solo);
        }
        let w = want[s.input].as_ref().expect("filled above");
        check(bits_equal(y.as_slice(), w.as_slice()), || {
            format!(
                "input {}: served output differs from QuantizedReference::forward_solo",
                s.input
            )
        })?;
        checked += 1;
    }
    check(checked > 0, || "no request was served".into())?;
    let note = format!(
        "serving layer: {RATE_FIXED}/s for {:.1} s then {RATE_SAT}/s for {:.1} s; {attempted} submitted, \
         {} shed in saturation; {checked} responses bit-exact against QuantizedReference::forward_solo; \
         host steal {} ticks",
        fixed.as_secs_f64(),
        sat.as_secs_f64(),
        d.shed[Phase::Saturate as usize],
        d.steal.total(),
    );
    Ok(ServeLayer {
        metrics,
        spans: d.spans,
        attempted,
        failed: errors + d.lost + d.shed[Phase::Fixed as usize],
        note,
    })
}
