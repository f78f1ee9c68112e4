//! The benchmark's own spans, their merge with the `dk_obs` exports, and
//! the Table-3 bucket roll-up.
//!
//! Bench spans wrap the calls into the system's public entry points
//! (`DarknightSession`, `LargeBatchTrainer`, `ServerHandle::submit`,
//! `Ticket::wait`, each `GpuExec` call). They use the `dk_obs` trace
//! epoch as their clock, so they line up with the program's own stage
//! spans. Everything is kept in memory and written once, at the end.

use darknight::obs::{self, SpanRecord, Stage, WorkerHealth};
use std::fmt::Write as _;
use std::io::Write as _;

/// Nanoseconds since the `dk_obs` trace epoch.
pub fn now_ns() -> u64 {
    obs::trace::epoch().elapsed().as_nanos() as u64
}

/// One benchmark span: a step, a request, or a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Step or request id (unique within its name's family).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log; recording is a push into pre-reserved space.
#[derive(Debug, Default)]
pub struct Tracer {
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, capacity: usize) -> Self {
        Self {
            on,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
        }
    }

    #[inline]
    pub fn record(&mut self, name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Table-3 bucket of a `dk_obs` stage. Verification and quantization
/// belong to masking, the TEE work around encode/decode; repair is TEE
/// recomputation of linear results.
fn bucket_of(stage: Stage) -> usize {
    match stage {
        Stage::Dispatch | Stage::Repair => LINEAR,
        Stage::Quantize | Stage::Encode | Stage::Decode | Stage::Verify => MASKING,
    }
}

const LINEAR: usize = 0;
const MASKING: usize = 1;

/// Self time of each stage (ns), summed over every lane: a span's
/// duration minus the time covered by spans nested inside it on the
/// same lane.
pub fn stage_self_ns(spans: &[SpanRecord]) -> [u64; 6] {
    let mut out = [0u64; 6];
    let mut by_lane: Vec<&SpanRecord> = spans.iter().collect();
    by_lane.sort_by_key(|s| (s.lane, s.start_us, std::cmp::Reverse(s.dur_ns)));
    for (i, s) in by_lane.iter().enumerate() {
        let end_ns = s.start_us * 1000 + s.dur_ns;
        let mut nested = 0u64;
        for t in &by_lane[i + 1..] {
            if t.lane != s.lane || t.start_us * 1000 >= end_ns {
                break;
            }
            if t.start_us * 1000 + t.dur_ns <= end_ns {
                nested += t.dur_ns;
            }
        }
        out[stage_index(s.stage)] += s.dur_ns.saturating_sub(nested);
    }
    out
}

pub fn stage_index(stage: Stage) -> usize {
    match stage {
        Stage::Quantize => 0,
        Stage::Encode => 1,
        Stage::Dispatch => 2,
        Stage::Decode => 3,
        Stage::Verify => 4,
        Stage::Repair => 5,
    }
}

/// Wall time of `windows` split into the paper's Table-3 buckets,
/// in ns: `[linear, masking, unattributed]`. Each instant inside a
/// window goes to the highest-priority bucket with a stage span open on
/// any lane (linear before masking); instants with no stage span open
/// are unattributed — non-linear TEE work, loss, SGD, aggregation and
/// glue, until the program records stages for them. The three parts sum
/// to the windows' total, so overlapping pipeline lanes are not counted
/// twice.
pub fn partition_ns(spans: &[SpanRecord], windows: &[(u64, u64)]) -> [u64; 3] {
    // (time, bucket, +1 open / -1 close)
    let mut events: Vec<(u64, usize, i32)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        let b = bucket_of(s.stage);
        let start = s.start_us * 1000;
        events.push((start, b, 1));
        events.push((start + s.dur_ns, b, -1));
    }
    events.sort_unstable();
    let mut wins = windows.to_vec();
    wins.sort_unstable();
    let mut out = [0u64; 3];
    let mut open = [0i32; 2];
    let mut ev = 0;
    let mut t = 0u64;
    // Walk elementary segments between event boundaries; within each,
    // credit the overlap with every window.
    let credit = |a: u64, b: u64, open: &[i32; 2], out: &mut [u64; 3]| {
        if b <= a {
            return;
        }
        let bucket = if open[LINEAR] > 0 {
            0
        } else if open[MASKING] > 0 {
            1
        } else {
            2
        };
        for &(w0, w1) in &wins {
            let lo = a.max(w0);
            let hi = b.min(w1);
            if hi > lo {
                out[bucket] += hi - lo;
            }
        }
    };
    while ev < events.len() {
        let next = events[ev].0;
        credit(t, next, &open, &mut out);
        t = next;
        while ev < events.len() && events[ev].0 == t {
            open[events[ev].1] += events[ev].2;
            ev += 1;
        }
    }
    let end = wins.iter().map(|w| w.1).max().unwrap_or(t);
    credit(t, end.max(t), &open, &mut out);
    out
}

/// Writes the run's trace once, at the end: bench spans, the `dk_obs`
/// span snapshot and the fleet-health snapshot, as one JSON document
/// under `.bench_build/perfbench-traces/`. Returns the path written.
pub fn write_trace(
    workload: &str,
    seed: u64,
    bench: &[Span],
    obs_spans: &[SpanRecord],
    health: &[WorkerHealth],
) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_build").join("perfbench-traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let mut doc = String::with_capacity(64 * (bench.len() + obs_spans.len()) + 1024);
    let _ = write!(
        doc,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"bench_spans\": ["
    );
    for (i, s) in bench.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            doc,
            "{sep}{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.id, s.parent, s.start_ns, s.end_ns
        );
    }
    doc.push_str("], \"obs_spans\": [");
    for (i, s) in obs_spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            doc,
            "{sep}{{\"stage\": \"{}\", \"lane\": {}, \"batch\": {}, \"layer\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
            s.stage.as_str(),
            s.lane,
            s.batch,
            s.layer,
            s.start_us * 1000,
            s.dur_ns
        );
    }
    doc.push_str("], \"fleet_health\": [");
    for (i, w) in health.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            doc,
            "{sep}{{\"worker\": {}, \"jobs\": {}, \"busy_ns\": {}, \"bytes_framed\": {}, \"reconnects\": {}}}",
            w.worker, w.jobs, w.busy_ns, w.bytes_framed, w.reconnects
        );
    }
    doc.push_str("]}\n");
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    f.write_all(doc.as_bytes())?;
    f.flush()?;
    Ok(path.display().to_string())
}

/// Fleet-health totals `(jobs, busy_ns, bytes_framed, reconnects)`.
pub fn health_totals(h: &[WorkerHealth]) -> (u64, u64, u64, u64) {
    h.iter().fold((0, 0, 0, 0), |a, w| {
        (
            a.0 + w.jobs,
            a.1 + w.busy_ns,
            a.2 + w.bytes_framed,
            a.3 + w.reconnects,
        )
    })
}
