//! Shared pieces: seeded input generation, order statistics, process
//! memory, the output record and the correctness checks' failure type.

use crate::host::{calm_factor, probe_ms, HostSpeed, Steal};
use darknight::linalg::Tensor;
use std::fmt;
use std::time::{Duration, Instant};

/// Mini-VGG / mini-MobileNet input side (3×16×16 images).
pub const HW: usize = 16;
/// Output classes of both models.
pub const CLASSES: usize = 10;
/// Virtual batch size `K` of every workload.
pub const K: usize = 4;
/// Redundant equations `M` of every workload.
pub const M: usize = 1;

/// A run that must not report metrics: a failed output check or an
/// error from the system under test.
#[derive(Debug)]
pub struct Fail(pub String);

impl fmt::Display for Fail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl<E: std::error::Error> From<E> for Fail {
    fn from(e: E) -> Self {
        Fail(e.to_string())
    }
}

/// Fails the run with `msg` unless `ok`.
pub fn check(ok: bool, msg: impl FnOnce() -> String) -> Result<(), Fail> {
    if ok {
        Ok(())
    } else {
        Err(Fail(format!("output check failed: {}", msg())))
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a successful run prints.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed (as `# ...`) before the JSON record.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The single-line JSON record (`correct` is true by construction:
    /// a failed check never reaches this point).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

// ---------------------------------------------------------------------
// Seeded generation
// ---------------------------------------------------------------------

/// SplitMix64: a small, fully specified generator, so the inputs of a
/// seed never depend on the library under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, domain)`; distinct domains give unrelated
    /// streams from one `--seed`.
    pub fn new(seed: u64, domain: u64) -> Self {
        let mut r = Rng(seed ^ domain.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Domains of the per-seed streams.
pub mod domain {
    pub const MODEL: u64 = 1;
    pub const INPUTS: u64 = 2;
    pub const MASKS: u64 = 3;
    pub const FLEET: u64 = 4;
    pub const LABELS: u64 = 5;
    pub const SCHEDULE: u64 = 6;
}

/// `n` samples of shape `3×HW×HW`. Each sample gets its own magnitude,
/// log-uniform over two orders (0.1 to 10), so per-sample quantization
/// scales differ from row to row.
pub fn samples(seed: u64, n: usize) -> Vec<Tensor<f32>> {
    let mut rng = Rng::new(seed, domain::INPUTS);
    (0..n)
        .map(|_| {
            let magnitude = 10f64.powf(rng.unit() * 2.0 - 1.0) as f32;
            Tensor::from_fn(&[3, HW, HW], |_| {
                (rng.unit() as f32 * 2.0 - 1.0) * magnitude
            })
        })
        .collect()
}

/// Stacks `rows` samples into one `[rows.len(), 3, HW, HW]` batch.
pub fn stack(rows: &[Tensor<f32>]) -> Tensor<f32> {
    let mut shape = vec![rows.len()];
    shape.extend_from_slice(rows[0].shape());
    let mut data = Vec::with_capacity(rows.len() * rows[0].len());
    for r in rows {
        data.extend_from_slice(r.as_slice());
    }
    Tensor::from_vec(&shape, data)
}

/// Bitwise equality of two float slices (distinguishes `-0.0` and NaN
/// payloads, unlike `==`).
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest `|private − float|` relative to the float output's largest
/// magnitude — the float-fidelity measure. Independent of the field:
/// a reduction that wraps modulo `p` shows up as an error of the order
/// of the output itself.
pub fn rel_error(private: &[f32], float: &[f32]) -> f32 {
    let scale = float.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6);
    let err = private
        .iter()
        .zip(float)
        .fold(0.0f32, |m, (p, f)| m.max((p - f).abs()));
    err / scale
}

// ---------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 for
/// an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn p99(samples: &[f64]) -> f64 {
    percentile(samples, 0.99)
}

/// `(completion time in seconds from the phase start, value)` per
/// sample, in completion order.
pub type Timeline = Vec<(f64, f64)>;

/// Length of the windows a measured phase is cut into.
pub const WINDOW_S: f64 = 1.0;
/// A window with fewer samples is merged into the next one.
const WINDOW_MIN: usize = 10;

/// The statistic of a measured phase over its calm windows. `samples`
/// are `(completion time in seconds from the phase start, value)` in
/// completion order; they are cut into consecutive `WINDOW_S` windows,
/// [`calm`] picks the windows the host disturbed least, and `stat` is
/// applied to the pooled values of those windows.
pub fn windowed(samples: &[(f64, f64)], steal: &Steal, stat: impl Fn(&[f64]) -> f64) -> f64 {
    let mut spans: Vec<(f64, f64)> = Vec::new();
    let mut values: Vec<Vec<f64>> = Vec::new();
    let mut cur = Vec::new();
    let (mut start, mut end) = (0.0, WINDOW_S);
    for &(t, v) in samples {
        while t >= end {
            if cur.len() >= WINDOW_MIN {
                spans.push((start, end));
                values.push(std::mem::take(&mut cur));
                start = end;
            }
            end += WINDOW_S;
        }
        cur.push(v);
    }
    if cur.len() >= WINDOW_MIN || spans.is_empty() {
        spans.push((start, end));
        values.push(cur);
    }
    let keep = calm(&spans, steal);
    let pooled: Vec<f64> = values
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .flat_map(|(v, _)| v)
        .collect();
    stat(&pooled)
}

/// Which of the `(start s, end s)` spans were calm: those whose host
/// steal rate is at most the median span's, so at least half count.
/// Other tenants of a shared VM take its vCPUs away for seconds at a
/// time; leaving out the spans they disturbed most keeps them out of
/// the reported value. The choice rests on the host's steal counter,
/// never on the measured values; with no steal samples every span
/// counts.
pub fn calm(spans: &[(f64, f64)], steal: &Steal) -> Vec<bool> {
    let rates: Vec<f64> = spans
        .iter()
        .map(|w| steal.between(w.0, w.1) as f64 / (w.1 - w.0))
        .collect();
    let cut = median(&rates);
    rates.iter().map(|r| *r <= cut).collect()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A measured phase of an end-to-end run.
pub struct Phase {
    /// `(completion s from the phase start, step ms)` per step.
    pub steps: Timeline,
    /// The probe times taken between the steps.
    pub speed: HostSpeed,
    /// `peak_rss_mb` after the phase's first `rss_steps` steps.
    pub rss_mb: f64,
}

/// Runs a measured phase of `dur` in two legs. `leg(done, dur,
/// max_steps, speed)` runs at most `max_steps` steps for at most `dur`,
/// after `done` steps of the phase, ticking `speed` between steps. The
/// first leg stops after `rss_steps` steps and peak memory is read
/// there, so the value describes a fixed amount of work whatever the
/// host's speed; the second leg runs for the rest of `dur`.
pub fn measure_phase(
    dur: Duration,
    rss_steps: usize,
    mut leg: impl FnMut(usize, Duration, usize, &mut HostSpeed) -> Result<Timeline, Fail>,
) -> Result<Phase, Fail> {
    let start = Instant::now();
    let mut speed = HostSpeed::new(start);
    let mut steps = leg(0, dur, rss_steps, &mut speed)?;
    let rss_mb = peak_rss_mb();
    let offset = start.elapsed();
    let rest = leg(
        steps.len(),
        dur.saturating_sub(offset),
        usize::MAX,
        &mut speed,
    )?;
    let off = offset.as_secs_f64();
    steps.extend(rest.into_iter().map(|(t, v)| (t + off, v)));
    Ok(Phase {
        steps,
        speed,
        rss_mb,
    })
}

/// Number of set-ups per run.
const SETUPS: usize = 5;
/// Probes run before and again after each set-up.
const SETUP_PROBES: usize = 3;

/// Set-up time of a run, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// Median over the set-ups, each at the calm host's speed: its time
    /// times the `calm_factor` of the median of the probes around it.
    pub corrected: f64,
    /// Median of the measured times.
    pub raw: f64,
}

/// Runs `once` `SETUPS` times and times each call; `once(last)` builds
/// one complete set-up (construction through warm-up) and tears it down
/// again unless `last`. Returns the set-up time and the last set-up,
/// which is the one measured.
pub fn set_up<T>(
    mut once: impl FnMut(bool) -> Result<Option<T>, Fail>,
) -> Result<(SetupTime, T), Fail> {
    let mut raw = Vec::with_capacity(SETUPS);
    let mut corrected = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for round in 0..SETUPS {
        let mut probes: Vec<f64> = (0..SETUP_PROBES).map(|_| probe_ms()).collect();
        let t = Instant::now();
        kept = once(round + 1 == SETUPS)?;
        let s = t.elapsed().as_secs_f64();
        probes.extend((0..SETUP_PROBES).map(|_| probe_ms()));
        raw.push(s);
        corrected.push(s * calm_factor(median(&probes)));
    }
    let time = SetupTime {
        corrected: median(&corrected),
        raw: median(&raw),
    };
    Ok((time, kept.expect("the last set-up is kept")))
}
