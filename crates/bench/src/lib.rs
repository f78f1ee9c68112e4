//! Shared harness utilities for the DarKnight benchmark suite.
//!
//! The one experiment that cannot come from the analytical model is the
//! paper's **Figure 4** (training accuracy, raw vs DarKnight): it needs
//! real training. [`fig4`] runs it on the trainable mini models against
//! the synthetic dataset (standing in for CIFAR-10, which this offline
//! build cannot download) and reports the per-epoch accuracy of both
//! modes side by side.

use dk_core::{session::DarknightSession, DarknightConfig};
use dk_gpu::GpuCluster;
use dk_nn::data::Dataset;
use dk_nn::model::Sequential;
use dk_nn::optim::Sgd;
use dk_nn::train;

/// Accuracy trajectories of one model under both training modes.
#[derive(Debug, Clone)]
pub struct Fig4Curve {
    /// Model name.
    pub model: String,
    /// Eval accuracy per epoch, plaintext float training ("Raw Data").
    pub raw: Vec<f32>,
    /// Eval accuracy per epoch, DarKnight masked training.
    pub darknight: Vec<f32>,
}

impl Fig4Curve {
    /// Final-epoch accuracy gap `raw − darknight` (the paper reports
    /// < 0.01 degradation).
    pub fn final_gap(&self) -> f32 {
        self.raw.last().copied().unwrap_or(0.0) - self.darknight.last().copied().unwrap_or(0.0)
    }
}

/// Experiment scale knobs for [`fig4`].
#[derive(Debug, Clone, Copy)]
pub struct Fig4Config {
    /// Image side (models are built for `3×hw×hw`).
    pub hw: usize,
    /// Classes in the synthetic task.
    pub classes: usize,
    /// Samples per class.
    pub per_class: usize,
    /// Training epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Self { hw: 8, classes: 8, per_class: 30, epochs: 8, lr: 0.002, seed: 2024 }
    }
}

/// Trains one model both ways and returns the two accuracy curves.
///
/// # Panics
///
/// Panics if the private executor fails (honest workers never trigger
/// integrity errors; quantization is bounded by construction).
pub fn fig4_one(
    name: &str,
    build: impl Fn(u64) -> Sequential,
    cfg: Fig4Config,
) -> Fig4Curve {
    let data = Dataset::synthetic(cfg.classes, cfg.per_class, (3, cfg.hw, cfg.hw), 0.5, cfg.seed);
    let (train_set, eval_set) = data.split(0.8);

    // Raw float training.
    let mut raw_model = build(cfg.seed ^ 0xF10A);
    let mut sgd = Sgd::new(cfg.lr);
    let report = train::train(&mut raw_model, &train_set, Some(&eval_set), cfg.epochs, 2, &mut sgd);
    let raw = report.epoch_eval_acc.clone();

    // DarKnight masked training (virtual batch K=2, M=1).
    let dk_cfg = DarknightConfig::new(2, 1).with_seed(cfg.seed);
    let cluster = GpuCluster::honest(dk_cfg.workers_required(), cfg.seed ^ 0x6A);
    let mut session = DarknightSession::new(dk_cfg, cluster).expect("cluster sized by config");
    let mut dk_model = build(cfg.seed ^ 0xF10A); // identical initialization
    let mut sgd = Sgd::new(cfg.lr);
    let mut darknight = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        for (x, labels) in train_set.batches(2) {
            session
                .train_step(&mut dk_model, &x, labels, &mut sgd)
                .expect("honest cluster: private step cannot fail");
        }
        darknight.push(train::evaluate(&mut dk_model, &eval_set, 2));
    }

    Fig4Curve { model: name.to_string(), raw, darknight }
}

/// Runs Figure 4 for the three mini models.
pub fn fig4(cfg: Fig4Config) -> Vec<Fig4Curve> {
    vec![
        fig4_one("MiniVGG", |s| dk_nn::arch::mini_vgg(cfg.hw, cfg.classes, s), cfg),
        fig4_one("MiniResNet", |s| dk_nn::arch::mini_resnet(cfg.hw, cfg.classes, s), cfg),
        fig4_one("MiniMobileNet", |s| dk_nn::arch::mini_mobilenet(cfg.hw, cfg.classes, s), cfg),
    ]
}

/// Renders Figure 4 curves as text.
pub fn render_fig4(curves: &[Fig4Curve]) -> String {
    let mut s = String::from(
        "Fig. 4: training accuracy, raw float vs DarKnight masked training\n\
         (mini models on the synthetic dataset; paper reports <0.01 final gap)\n\n",
    );
    for c in curves {
        s.push_str(&format!("{}\n  epoch:     ", c.model));
        for e in 0..c.raw.len() {
            s.push_str(&format!("{:>6}", e + 1));
        }
        s.push_str("\n  raw:       ");
        for v in &c.raw {
            s.push_str(&format!("{v:>6.2}"));
        }
        s.push_str("\n  darknight: ");
        for v in &c.darknight {
            s.push_str(&format!("{v:>6.2}"));
        }
        s.push_str(&format!("\n  final gap: {:+.3}\n\n", c.final_gap()));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_small_run_parity() {
        // A very small configuration to keep the test fast; the full
        // run lives in the report binary.
        let cfg = Fig4Config { per_class: 16, epochs: 6, classes: 4, ..Default::default() };
        let curve = fig4_one("MiniVGG", |s| dk_nn::arch::mini_vgg(cfg.hw, cfg.classes, s), cfg);
        assert_eq!(curve.raw.len(), cfg.epochs);
        assert_eq!(curve.darknight.len(), cfg.epochs);
        // Both modes must actually learn…
        assert!(curve.raw.last().unwrap() > &0.5, "raw failed to learn: {:?}", curve.raw);
        assert!(
            curve.darknight.last().unwrap() > &0.5,
            "darknight failed to learn: {:?}",
            curve.darknight
        );
        // …and land close to each other (quantized masked training).
        assert!(curve.final_gap().abs() < 0.25, "gap {:?}", curve.final_gap());
    }
}
