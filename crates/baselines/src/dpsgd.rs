//! DP-SGD (Abadi et al., CCS 2016) adapted to edge-DP GCN training — the
//! gradient-perturbation baseline of Figure 1.
//!
//! The model is the shallowest GCN that uses edges at all — a single layer
//! `logits = Ã X Θ` — because, as Sec. I of the GCON paper explains, each
//! extra layer multiplies DP-SGD's edge sensitivity by another factor of the
//! maximum degree. Even at one layer, adding/removing an edge changes the
//! aggregated inputs `z_u, z_v` of *two* training examples, so the clipped
//! gradient sum moves by up to `2 · 2τ` in the worst case; following the
//! paper's "at least 2τ" accounting we charge sensitivity `2τ` (the
//! comparison is thus generous to DP-SGD). Full-batch steps compose as plain
//! Gaussian mechanisms through the RDP accountant.

use gcon_dp::mechanisms::add_gaussian_noise;
use gcon_dp::rdp::calibrate_noise_multiplier;
use gcon_graph::normalize::row_stochastic_default;
use gcon_graph::Graph;
use gcon_linalg::{reduce, vecops, Mat};
use rand::Rng;

/// Hyperparameters for the DP-SGD baseline.
#[derive(Clone, Debug)]
pub struct DpSgdConfig {
    /// Number of noisy gradient steps (each is one Gaussian release in the
    /// accountant; subsampled when `batch_frac < 1`).
    pub steps: usize,
    /// Per-example gradient clipping norm τ.
    pub clip: f64,
    /// Learning rate.
    pub lr: f64,
    /// Edge-sensitivity factor: how many clipped gradients one edge can
    /// touch (2 for the 1-layer GCN).
    pub sensitivity_factor: f64,
    /// Poisson sampling rate q per step. 1.0 = full batch (plain Gaussian
    /// composition); < 1 engages the subsampled-Gaussian amplification of
    /// the RDP accountant, as in the original DP-SGD recipe.
    pub batch_frac: f64,
}

impl Default for DpSgdConfig {
    fn default() -> Self {
        Self { steps: 40, clip: 1.0, lr: 0.5, sensitivity_factor: 2.0, batch_frac: 1.0 }
    }
}

/// Trains the 1-layer GCN with DP-SGD; returns predictions for every node.
#[allow(clippy::too_many_arguments)] // a training entry point takes the full dataset tuple
pub fn train_and_predict_dpsgd<R: Rng + ?Sized>(
    cfg: &DpSgdConfig,
    graph: &Graph,
    x: &Mat,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> Vec<usize> {
    assert!(!train_idx.is_empty());
    let n1 = train_idx.len() as f64;
    let a_tilde = row_stochastic_default(graph);
    // Pre-aggregate once: z = Ã X with unit-normalized feature rows so the
    // per-example inputs are bounded.
    let mut xn = x.clone();
    xn.normalize_rows_l2();
    let z_all = a_tilde.spmm(&xn);
    let z = z_all.select_rows(train_idx);
    let y: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();

    assert!(cfg.batch_frac > 0.0 && cfg.batch_frac <= 1.0, "batch_frac in (0, 1]");
    let noise_mult = calibrate_noise_multiplier(cfg.batch_frac, cfg.steps, eps, delta);
    let sigma = noise_mult * cfg.sensitivity_factor * cfg.clip;

    let d0 = x.cols();
    let mut theta = Mat::zeros(d0, num_classes);
    let mut probs = vec![0.0; num_classes];
    for _ in 0..cfg.steps {
        // Per-example clipped gradient sum for softmax CE on zᵢΘ, over a
        // Poisson-sampled batch when batch_frac < 1.
        let scores = gcon_linalg::ops::matmul(&z, &theta);
        let mut grad_sum = Mat::zeros(d0, num_classes);
        for (i, &yi) in y.iter().enumerate() {
            if cfg.batch_frac < 1.0 && rng.gen::<f64>() >= cfg.batch_frac {
                continue;
            }
            vecops::softmax_into(scores.row(i), &mut probs);
            probs[yi] -= 1.0;
            // gᵢ = zᵢ ⊗ (p − e_y); ‖gᵢ‖_F = ‖zᵢ‖·‖p − e_y‖.
            let zi = z.row(i);
            let gnorm = vecops::norm2(zi) * vecops::norm2(&probs);
            let scale_factor = if gnorm > cfg.clip { cfg.clip / gnorm } else { 1.0 };
            for (k, &zv) in zi.iter().enumerate() {
                if zv == 0.0 {
                    continue;
                }
                let row = grad_sum.row_mut(k);
                for (g, &p) in row.iter_mut().zip(probs.iter()) {
                    *g += scale_factor * zv * p;
                }
            }
        }
        add_gaussian_noise(grad_sum.as_mut_slice(), sigma, rng);
        // θ ← θ − lr · noisySum / E[batch size]
        let denom = n1 * cfg.batch_frac;
        gcon_linalg::ops::add_scaled_assign(&mut theta, -cfg.lr / denom, &grad_sum);
    }
    let logits = gcon_linalg::ops::matmul(&z_all, &theta);
    reduce::row_argmax(&logits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_datasets::metrics::micro_f1;
    use gcon_datasets::two_moons_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(eps: f64, seed: u64) -> f64 {
        let d = two_moons_graph(71);
        let mut rng = StdRng::seed_from_u64(seed);
        let pred = train_and_predict_dpsgd(
            &DpSgdConfig::default(),
            &d.graph,
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            eps,
            1e-3,
            &mut rng,
        );
        let test_pred: Vec<usize> = d.split.test.iter().map(|&i| pred[i]).collect();
        micro_f1(&test_pred, &d.test_labels())
    }

    #[test]
    fn dpsgd_learns_at_generous_budget() {
        let f1 = run(8.0, 72);
        assert!(f1 > 0.6, "DP-SGD micro-F1 at ε=8: {f1}");
    }

    #[test]
    fn subsampled_variant_runs_and_learns() {
        let d = two_moons_graph(71);
        let mut rng = StdRng::seed_from_u64(73);
        let cfg = DpSgdConfig { batch_frac: 0.25, steps: 120, ..Default::default() };
        let pred = train_and_predict_dpsgd(
            &cfg,
            &d.graph,
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            8.0,
            1e-3,
            &mut rng,
        );
        let test_pred: Vec<usize> = d.split.test.iter().map(|&i| pred[i]).collect();
        let f1 = micro_f1(&test_pred, &d.test_labels());
        assert!(f1 > 0.55, "subsampled DP-SGD micro-F1 {f1}");
    }

    #[test]
    fn dpsgd_degrades_at_tight_budget() {
        // Averaged over seeds, tight budgets should hurt relative to ε=8.
        let tight: f64 = (0..3).map(|s| run(0.05, 100 + s)).sum::<f64>() / 3.0;
        let loose: f64 = (0..3).map(|s| run(8.0, 200 + s)).sum::<f64>() / 3.0;
        assert!(loose > tight - 0.05, "expected ε=8 ({loose}) ≥ ε=0.05 ({tight}) − slack");
    }
}
