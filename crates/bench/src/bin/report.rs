//! The DarKnight evaluation report generator.
//!
//! Prints every table and figure of the paper's evaluation section:
//! Tables 1–4 and Figures 3/5/6a/6b/7 from the calibrated performance
//! model, and Figure 4 from real (mini-model) training. Measured
//! pipelining on this host is a `dk_bench` row (`pipeline` section).
//!
//! Usage: `cargo run -p dk_bench --bin report [--quick|--full]`

use dk_bench::{fig4, render_fig4, Fig4Config};
use dk_perf::{report, DeviceProfile};

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let profile = DeviceProfile::calibrated();

    println!("=================================================================");
    println!(" DarKnight reproduction — evaluation report");
    println!("=================================================================\n");
    println!("{}", report::full_report(&profile));

    println!("----------------------------------------------------------------\n");
    let fig4_cfg = match mode.as_str() {
        "--quick" => Fig4Config { per_class: 12, epochs: 4, ..Default::default() },
        "--full" => Fig4Config { hw: 12, per_class: 50, epochs: 14, ..Default::default() },
        _ => Fig4Config::default(),
    };
    println!("{}", render_fig4(&fig4(fig4_cfg)));
}
