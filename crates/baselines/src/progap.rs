//! ProGAP-EDP (Sajadmanesh & Gatica-Perez, WSDM 2024): progressive graph
//! neural networks with aggregation perturbation.
//!
//! ProGAP refines GAP by interleaving learning and aggregation: stage 0
//! trains an edge-free MLP on the raw features; each later stage aggregates
//! the (normalized) previous embedding with Gaussian noise, concatenates it
//! with the previous embedding, and trains a fresh MLP on the result. The
//! noisy aggregate of each stage is computed once and cached, so the number
//! of Gaussian releases equals the number of aggregating stages, composed
//! with the RDP accountant.

use crate::gap::{adjacency_csr, GAP_HOP_SENSITIVITY};
use gcon_dp::mechanisms::add_gaussian_noise;
use gcon_dp::rdp::calibrate_noise_multiplier;
use gcon_graph::Graph;
use gcon_linalg::Mat;
use gcon_nn::loss::softmax_cross_entropy_into;
use gcon_nn::{Activation, Adam, Linear, LinearGrads, Mlp, MlpConfig, MlpWorkspace};
use rand::Rng;

/// Hyperparameters for ProGAP-EDP.
#[derive(Clone, Debug)]
pub struct ProgapConfig {
    /// Number of aggregating stages (Gaussian releases). Total depth is
    /// `stages + 1` MLPs.
    pub stages: usize,
    /// Embedding dimension of each stage MLP.
    pub embed_dim: usize,
    /// Hidden width of each stage MLP.
    pub hidden: usize,
    /// Epochs per stage.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
}

impl Default for ProgapConfig {
    fn default() -> Self {
        Self { stages: 2, embed_dim: 16, hidden: 64, epochs: 120, lr: 0.01 }
    }
}

/// One trained progressive stage: embedding MLP + linear head.
struct Stage {
    net: Mlp,
    head: Linear,
}

/// Trains an embedding MLP + classification head on the labeled rows and
/// returns the stage (embeddings for all rows come from `net.forward`).
fn train_stage<R: Rng + ?Sized>(
    input: &Mat,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    cfg: &ProgapConfig,
    rng: &mut R,
) -> Stage {
    let x_train = input.select_rows(train_idx);
    let y_train: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let mut net = Mlp::new(
        &MlpConfig {
            dims: vec![input.cols(), cfg.hidden, cfg.embed_dim],
            hidden_activation: Activation::Relu,
            output_activation: Activation::Tanh,
        },
        rng,
    );
    let mut head = Linear::xavier(cfg.embed_dim, num_classes, rng);
    let mut opt = Adam::new(cfg.lr);
    let net_slots = 2 * net.depth();
    // Epoch-loop buffers hoisted: steady-state epochs allocate nothing.
    let mut ws = MlpWorkspace::new();
    let mut logits = Mat::default();
    let mut dlogits = Mat::default();
    let mut demb = Mat::default();
    let mut hg = LinearGrads::zeros(0, 0);
    for _ in 0..cfg.epochs {
        net.forward_cached_ws(&x_train, &mut ws);
        head.forward_into(ws.output(), &mut logits);
        let _ = softmax_cross_entropy_into(&logits, &y_train, &mut dlogits);
        head.backward_into(ws.output(), &dlogits, &mut demb, &mut hg);
        net.backward_ws_weights_only(&mut ws, &demb);
        opt.begin_step();
        net.apply_grads_ws(&mut ws, &mut opt, 1e-5, 0);
        opt.update(net_slots, head.w.as_mut_slice(), hg.dw.as_slice());
        opt.update(net_slots + 1, &mut head.b, &hg.db);
    }
    Stage { net, head }
}

/// Trains ProGAP-EDP and returns predictions for every node.
#[allow(clippy::too_many_arguments)] // a training entry point takes the full dataset tuple
pub fn train_and_predict_progap<R: Rng + ?Sized>(
    cfg: &ProgapConfig,
    graph: &Graph,
    x: &Mat,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> Vec<usize> {
    assert!(cfg.stages >= 1);
    let a = adjacency_csr(graph);
    let noise_mult = calibrate_noise_multiplier(1.0, cfg.stages, eps, delta);
    let sigma = noise_mult * GAP_HOP_SENSITIVITY;

    // Stage 0: edge-free.
    let stage0 = train_stage(x, labels, train_idx, num_classes, cfg, rng);
    let mut embedding = stage0.net.forward(x);
    let mut last_stage = stage0;

    // Aggregation buffers shared across stages.
    let mut normed = Mat::default();
    let mut agg = Mat::default();
    for _ in 0..cfg.stages {
        // Noisy sum-aggregation of the normalized previous embedding.
        normed.copy_from(&embedding);
        normed.normalize_rows_l2();
        a.spmm_into(&normed, &mut agg);
        add_gaussian_noise(agg.as_mut_slice(), sigma, rng);
        agg.normalize_rows_l2();
        // Jumping-knowledge concatenation.
        let input = embedding.hcat(&agg);
        let stage = train_stage(&input, labels, train_idx, num_classes, cfg, rng);
        embedding = stage.net.forward(&input);
        last_stage = stage;
    }

    // `embedding` is already the final stage's full-graph forward.
    gcon_linalg::reduce::row_argmax(&last_stage.head.forward(&embedding))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_datasets::metrics::micro_f1;
    use gcon_datasets::two_moons_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn progap_runs_and_beats_chance_at_generous_budget() {
        let d = two_moons_graph(61);
        let mut rng = StdRng::seed_from_u64(62);
        let cfg = ProgapConfig { epochs: 80, ..Default::default() };
        let pred = train_and_predict_progap(
            &cfg,
            &d.graph,
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            4.0,
            1e-3,
            &mut rng,
        );
        assert_eq!(pred.len(), d.num_nodes());
        let test_pred: Vec<usize> = d.split.test.iter().map(|&i| pred[i]).collect();
        let f1 = micro_f1(&test_pred, &d.test_labels());
        assert!(f1 > 0.6, "ProGAP test micro-F1 {f1}");
    }

    #[test]
    fn stage_training_learns_labeled_rows() {
        let d = two_moons_graph(63);
        let mut rng = StdRng::seed_from_u64(64);
        let cfg = ProgapConfig { epochs: 120, ..Default::default() };
        let stage = train_stage(
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            &cfg,
            &mut rng,
        );
        let emb = stage.net.forward(&d.features.to_dense().select_rows(&d.split.train));
        let logits = stage.head.forward(&emb);
        let pred = gcon_linalg::reduce::row_argmax(&logits);
        let gold = d.train_labels();
        let f1 = micro_f1(&pred, &gold);
        assert!(f1 > 0.9, "stage train micro-F1 {f1}");
    }
}
