//! Validation-based hyperparameter selection (Appendix Q of the paper).
//!
//! The paper tunes GCON per dataset — restart probability α, inference
//! restart α_I ∈ {α} ∪ {0.1, 0.9}, propagation steps, regularization Λ,
//! loss, and the training-set expansion `n₁ ∈ {n₀, n}` — selecting by
//! validation accuracy. Following the paper (and its cited prior work), the
//! privacy cost of tuning is not charged: each candidate is trained under
//! the same (ε, δ), and the winner's guarantee is the one reported.
//!
//! [`tune_gcon`] runs a small grid over the knobs that matter most, scores
//! each candidate on the validation split with private inference (the
//! evaluation protocol of Figures 1/2/4), and returns the best configuration
//! together with its trained model.

use crate::infer::private_predict;
use crate::model::GconConfig;
use crate::train::train_gcon_on_adjacency;
use crate::TrainedGcon;
use gcon_graph::normalize::row_stochastic;
use gcon_graph::{Csr, Graph};
use rand::Rng;

/// The candidate grid. Defaults mirror the paper's Appendix Q ranges,
/// shrunk to the knobs with first-order impact.
#[derive(Clone, Debug)]
pub struct TuningGrid {
    /// Inference restart probabilities to try (paper: {α} ∪ {0.1, 0.9}).
    pub alpha_inference: Vec<f64>,
    /// Whether to try expanding the training set with pseudo-labels.
    pub expand_train_set: Vec<bool>,
    /// Regularization coefficients Λ (paper: {0.01, 0.2, 1, 2}).
    pub lambda: Vec<f64>,
    /// Lemma 1 clips p to try (ours; the paper fixes the unclipped 0.5).
    pub clip_p: Vec<f64>,
}

impl Default for TuningGrid {
    fn default() -> Self {
        Self {
            alpha_inference: vec![0.1, 0.5, 0.9],
            expand_train_set: vec![true, false],
            lambda: vec![0.2],
            clip_p: vec![0.5],
        }
    }
}

/// One scored candidate.
#[derive(Clone, Debug)]
pub struct TuningOutcome {
    /// The configuration evaluated.
    pub config: GconConfig,
    /// Validation micro-F1 (= accuracy for single-label problems).
    pub val_score: f64,
}

/// Result of [`tune_gcon`].
pub struct TunedGcon {
    /// The winning model (trained with the winning configuration).
    pub model: TrainedGcon,
    /// The winner's validation score.
    pub best_score: f64,
    /// Every candidate's outcome, in evaluation order (for reporting).
    pub trace: Vec<TuningOutcome>,
}

/// Grid-searches over `grid`, starting from `base` for all non-swept knobs.
///
/// `val_idx` must be disjoint from `train_idx` (the usual validation split);
/// candidates are compared by validation accuracy under private inference.
#[allow(clippy::too_many_arguments)] // a training entry point takes the full dataset tuple
pub fn tune_gcon<R: Rng + ?Sized>(
    base: &GconConfig,
    grid: &TuningGrid,
    graph: &Graph,
    features: &Csr,
    labels: &[usize],
    train_idx: &[usize],
    val_idx: &[usize],
    num_classes: usize,
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> TunedGcon {
    assert!(!val_idx.is_empty(), "tune_gcon: empty validation split");
    let mut best: Option<(f64, TrainedGcon, GconConfig)> = None;
    let mut trace = Vec::new();
    // Ã depends only on (graph, clip_p): normalize once per swept clip and
    // share the CSR across every candidate in the inner loops.
    let a_tildes: Vec<Csr> = grid.clip_p.iter().map(|&p| row_stochastic(graph, p)).collect();
    for &alpha_i in &grid.alpha_inference {
        for &expand in &grid.expand_train_set {
            for &lambda in &grid.lambda {
                for (&clip_p, a_tilde) in grid.clip_p.iter().zip(&a_tildes) {
                    let mut cfg = base.clone();
                    cfg.alpha_inference = alpha_i;
                    cfg.expand_train_set = expand;
                    cfg.lambda = lambda;
                    cfg.clip_p = clip_p;
                    let model = train_gcon_on_adjacency(
                        &cfg,
                        graph,
                        a_tilde,
                        features,
                        labels,
                        train_idx,
                        num_classes,
                        eps,
                        delta,
                        rng,
                    );
                    let pred = private_predict(&model, graph, features);
                    let correct = val_idx.iter().filter(|&&i| pred[i] == labels[i]).count();
                    let score = correct as f64 / val_idx.len() as f64;
                    trace.push(TuningOutcome { config: cfg.clone(), val_score: score });
                    let better = match &best {
                        None => true,
                        Some((s, _, _)) => score > *s,
                    };
                    if better {
                        best = Some((score, model, cfg));
                    }
                }
            }
        }
    }
    let (best_score, model, _) = best.expect("tune_gcon: empty grid");
    TunedGcon { model, best_score, trace }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tuning_explores_grid_and_returns_best() {
        let dataset = gcon_test_dataset();
        let mut base = GconConfig::default();
        base.encoder.epochs = 30;
        base.optimizer.max_iters = 200;
        let grid = TuningGrid {
            alpha_inference: vec![0.1, 0.9],
            expand_train_set: vec![true],
            lambda: vec![0.2],
            clip_p: vec![0.5],
        };
        let mut rng = StdRng::seed_from_u64(7);
        let tuned = tune_gcon(
            &base, &grid, &dataset.0, &dataset.1, &dataset.2, &dataset.3, &dataset.4, 2, 2.0, 1e-3,
            &mut rng,
        );
        assert_eq!(tuned.trace.len(), 2);
        let max_trace = tuned.trace.iter().map(|o| o.val_score).fold(0.0_f64, f64::max);
        assert_eq!(tuned.best_score, max_trace);
        assert!(tuned.best_score > 0.4, "best val score {}", tuned.best_score);
    }

    /// (graph, features, labels, train_idx, val_idx)
    fn gcon_test_dataset() -> (Graph, Csr, Vec<usize>, Vec<usize>, Vec<usize>) {
        use gcon_graph::generators::{sbm_homophily, SbmConfig};
        use gcon_linalg::Mat;
        let mut rng = StdRng::seed_from_u64(1);
        let (g, labels) = sbm_homophily(
            &SbmConfig {
                n: 120,
                num_edges: 360,
                num_classes: 2,
                homophily: 0.85,
                degree_exponent: 2.5,
            },
            &mut rng,
        );
        let x = Mat::from_fn(120, 10, |i, j| {
            let hit = j % 2 == labels[i];
            (if hit { 1.2 } else { 0.0 }) + 0.3 * (((i * 7 + j * 3) % 11) as f64 / 11.0)
        });
        let train: Vec<usize> = (0..120).step_by(4).collect();
        let val: Vec<usize> = (1..120).step_by(4).collect();
        (g, Csr::from_dense(&x), labels, train, val)
    }
}
