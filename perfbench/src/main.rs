//! `perfbench` — the end-to-end DarKnight benchmark.
//!
//! One process runs one workload from a seed, checks its outputs outside
//! the timed window, and prints one JSON object as the last line of its
//! standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer-vgg --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with `dk_obs` off;
//! `--trace 1` runs the same workload once untraced and once traced and
//! reports the per-layer metrics (see `README.md` for every metric, the
//! layer it belongs to, and the end-to-end metric it should move).

mod closed;
mod common;
mod exec;
mod host;
mod serving;
mod trace;

use common::{Fail, Metric, Outcome};
use std::time::Duration;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    InferVgg,
    TrainMobilenet,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "infer-vgg" => Some(Self::InferVgg),
            "train-mobilenet" => Some(Self::TrainMobilenet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::InferVgg => "infer-vgg",
            Self::TrainMobilenet => "train-mobilenet",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// Kernel thread cap for every workload. On a 2-vCPU host the sessions,
/// engine lanes and dispatcher threads already occupy both vCPUs;
/// fork-join kernels on top of them doubled the host's CPU steal and
/// made runs both slower and far less repeatable.
const KERNEL_THREADS: usize = 1;

fn run(args: Args) -> Result<Outcome, Fail> {
    darknight::linalg::threads::set_max_threads(KERNEL_THREADS);
    match args.workload {
        Workload::InferVgg => closed::infer(args),
        Workload::TrainMobilenet => closed::train(args),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <infer-vgg|train-mobilenet> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(args) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("# {line}");
            }
            println!(
                "# workload={} seed={} trace={} nproc={} kernel_threads={}",
                args.workload.name(),
                args.seed,
                u8::from(args.trace),
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
                darknight::linalg::threads::max_threads(),
            );
            println!("{}", outcome.to_json());
        }
        Err(fail) => {
            eprintln!("perfbench: {} failed: {fail}", args.workload.name());
            std::process::exit(1);
        }
    }
}

/// Convenience for building metric lists.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}
