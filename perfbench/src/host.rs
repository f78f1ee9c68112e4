//! The host's share of the measurement.
//!
//! On a shared virtual machine other tenants take the vCPUs away for
//! stretches of seconds, which the guest kernel counts as *steal* in
//! `/proc/stat`, and they slow the vCPUs they share physical cores with,
//! which it does not count at all. Two tools follow from that:
//!
//! * [`StealSampler`] records steal next to a measured phase, so the
//!   windowed statistics of the traced run can leave out the windows the
//!   host disturbed most (see `common::windowed`);
//! * [`HostSpeed`] times a fixed probe kernel between the steps of a
//!   measured loop, so the end-to-end metrics can be given at the calm
//!   host's speed.

use crate::common::{median, WINDOW_S};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sampling period of the steal counter.
const PERIOD: Duration = Duration::from_millis(50);

/// Cumulative steal ticks of all CPUs, or 0 where `/proc/stat` is
/// unavailable (which turns window selection off).
fn read_steal() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            // "cpu user nice system idle iowait irq softirq steal ..."
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// A background thread sampling the steal counter until finished.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(f64, u64)>>,
}

impl StealSampler {
    /// Starts sampling; times are seconds from `origin`.
    pub fn start(origin: Instant) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("perfbench-steal".into())
            .spawn(move || {
                let mut out = Vec::with_capacity(1024);
                loop {
                    let t = Instant::now()
                        .saturating_duration_since(origin)
                        .as_secs_f64();
                    out.push((t, read_steal()));
                    if flag.load(Ordering::Relaxed) {
                        return out;
                    }
                    std::thread::park_timeout(PERIOD);
                }
            })
            .expect("spawn steal sampler");
        Self { stop, handle }
    }

    /// Stops the sampler and returns the series.
    pub fn finish(self) -> Steal {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.thread().unpark();
        Steal(self.handle.join().expect("steal sampler thread"))
    }
}

/// A sampled steal series: `(seconds from the phase origin, ticks)`.
#[derive(Debug, Default)]
pub struct Steal(Vec<(f64, u64)>);

impl Steal {
    /// No samples: every window counts as calm.
    pub fn none() -> Self {
        Self::default()
    }

    /// Steal ticks over the whole series.
    pub fn total(&self) -> u64 {
        match (self.0.first(), self.0.last()) {
            (Some(a), Some(b)) => b.1.saturating_sub(a.1),
            _ => 0,
        }
    }

    /// Steal ticks in `[a, b)`, from the last sample at or before each
    /// end (the first sample for a time before it).
    pub fn between(&self, a: f64, b: f64) -> u64 {
        let at = |t: f64| {
            let before = self.0.iter().take_while(|s| s.0 <= t).last();
            before.or(self.0.first()).map_or(0, |s| s.1)
        };
        at(b).saturating_sub(at(a))
    }
}

// ---------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------

/// Time (ms) the probe takes on a calm host: measured times are scaled
/// to this speed. Median of the probe's calm stretches on the reference
/// host (2-vCPU Intel Xeon VM); the value sets the scale of the
/// corrected metrics, not their run-to-run spread.
pub const PROBE_CALM_MS: f64 = 0.5;
/// How much a step slows when the probe slows, as an exponent: step
/// time grows as probe time to this power. Fitted over the 1-s windows
/// of both workloads on the reference host (0.5 to 0.95 per run); the
/// probe's vectorized multiplies lose more to a loaded core than the
/// program's mix of work does.
pub const SENSITIVITY: f64 = 0.7;
/// Least time between two probes of a measured loop.
const PROBE_PERIOD: Duration = Duration::from_millis(50);

/// One run of the probe kernel, in ms: a fixed multiply-accumulate of
/// 32-bit residues into 64-bit sums over two L1-resident arrays, the
/// operation mix of the field kernels. The code is the benchmark's own,
/// so no change to the program changes what it measures.
pub fn probe_ms() -> f64 {
    const N: usize = 4096;
    const PASSES: u32 = 300;
    const P: u64 = 33_554_393;
    let a: Vec<u32> = (0..N as u64)
        .map(|i| (i * 2_654_435_761 % P) as u32)
        .collect();
    let b: Vec<u32> = (0..N as u64).map(|i| (i * 40_503 % P) as u32).collect();
    let (a, b) = std::hint::black_box((a, b));
    let t = Instant::now();
    let mut folded = 0u64;
    for pass in 0..PASSES {
        let mut acc = 0u64;
        for (&x, &y) in a.iter().zip(&b) {
            acc = acc.wrapping_add(u64::from(x) * u64::from(y ^ pass));
        }
        folded ^= acc % P;
    }
    std::hint::black_box(folded);
    t.elapsed().as_secs_f64() * 1e3
}

/// The factor that takes a time measured while the probe took
/// `probe_ms` to the calm host's speed.
pub fn calm_factor(probe_ms: f64) -> f64 {
    (PROBE_CALM_MS / probe_ms).powf(SENSITIVITY)
}

/// How fast the host runs the measuring thread over a measured phase.
///
/// On a shared VM the same code runs up to twice as slowly for stretches
/// of seconds to minutes while other tenants load the physical cores,
/// mostly with no steal reported. The probe slows with the workload, so
/// each measured time is scaled by the [`calm_factor`] of the median
/// probe time of its 1-s window: the time the step would have taken on
/// the calm host.
#[derive(Debug)]
pub struct HostSpeed {
    origin: Instant,
    last: Option<Instant>,
    /// `(seconds from origin, probe ms)`.
    probes: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// Probe times are recorded in seconds from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            last: None,
            probes: Vec::with_capacity(4096),
        }
    }

    /// Runs the probe unless one ran within `PROBE_PERIOD`; called by a
    /// measured loop between two steps.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|l| l.elapsed() >= PROBE_PERIOD) {
            let ms = probe_ms();
            let now = Instant::now();
            self.last = Some(now);
            let t = now.saturating_duration_since(self.origin).as_secs_f64();
            self.probes.push((t, ms));
        }
    }

    /// Median probe time (ms) over the whole phase; `PROBE_CALM_MS`
    /// without probes.
    pub fn median_ms(&self) -> f64 {
        if self.probes.is_empty() {
            return PROBE_CALM_MS;
        }
        let v: Vec<f64> = self.probes.iter().map(|p| p.1).collect();
        median(&v)
    }

    /// `samples` (`(seconds from origin, ms)`) at the calm host's speed:
    /// each value times the [`calm_factor`] of the median probe of its
    /// `WINDOW_S` window (of the whole phase, for a window without
    /// probes).
    pub fn correct(&self, samples: &[(f64, f64)]) -> Vec<f64> {
        let window = |t: f64| (t / WINDOW_S).floor() as usize;
        let windows = samples.iter().map(|s| window(s.0) + 1).max().unwrap_or(0);
        let mut per_window = vec![Vec::new(); windows];
        for &(t, ms) in &self.probes {
            if let Some(w) = per_window.get_mut(window(t)) {
                w.push(ms);
            }
        }
        let whole = self.median_ms();
        let probe: Vec<f64> = per_window
            .iter()
            .map(|w| if w.is_empty() { whole } else { median(w) })
            .collect();
        samples
            .iter()
            .map(|&(t, v)| v * calm_factor(probe[window(t)]))
            .collect()
    }
}
