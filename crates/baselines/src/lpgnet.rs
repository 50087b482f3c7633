//! LPGNet (Kolluri et al., CCS 2022): link-private graph networks built from
//! stacked MLPs.
//!
//! Instead of perturbing the full adjacency matrix, LPGNet compresses the
//! graph into per-node *cluster degree vectors*: node v's vector counts its
//! edges into each predicted label cluster (`c` dimensions). One edge changes
//! two entries by 1, so the L1 sensitivity per stage is 2, and the vectors
//! are released with `Lap(2/ε_t)` noise. Stages iterate: an edge-free MLP
//! predicts clusters, the noisy degree vectors are appended to the features,
//! and the next MLP refines the prediction. The total budget ε is split
//! evenly over the stages.

use gcon_graph::Graph;
use gcon_linalg::Mat;
use gcon_nn::{Mlp, MlpConfig};
use rand::Rng;

/// Hyperparameters for LPGNet.
#[derive(Clone, Debug)]
pub struct LpgnetConfig {
    /// Number of degree-vector refinement stages (the paper uses 1–2).
    pub stages: usize,
    /// Hidden width of each stage MLP.
    pub hidden: usize,
    /// Epochs per stage.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Weight decay.
    pub weight_decay: f64,
}

impl Default for LpgnetConfig {
    fn default() -> Self {
        Self { stages: 2, hidden: 64, epochs: 150, lr: 0.01, weight_decay: 1e-5 }
    }
}

/// Per-node cluster degree vectors: `D[v][k] = |{u ∈ N(v) : cluster(u) = k}|`.
pub fn cluster_degree_vectors(graph: &Graph, clusters: &[usize], num_classes: usize) -> Mat {
    assert_eq!(clusters.len(), graph.num_nodes());
    let mut d = Mat::zeros(graph.num_nodes(), num_classes);
    for v in 0..graph.num_nodes() as u32 {
        let row = d.row_mut(v as usize);
        for &u in graph.neighbors(v) {
            row[clusters[u as usize]] += 1.0;
        }
    }
    d
}

/// Trains LPGNet and returns predictions for every node.
#[allow(clippy::too_many_arguments)] // a training entry point takes the full dataset tuple
pub fn train_and_predict_lpgnet<R: Rng + ?Sized>(
    cfg: &LpgnetConfig,
    graph: &Graph,
    x: &Mat,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    eps: f64,
    rng: &mut R,
) -> Vec<usize> {
    assert!(cfg.stages >= 1);
    assert!(eps > 0.0);
    let y_train: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let eps_stage = eps / cfg.stages as f64;

    // Stage 0: edge-free MLP gives the initial clusters (free under edge DP).
    let mut mlp =
        Mlp::new(&MlpConfig::relu_classifier(vec![x.cols(), cfg.hidden, num_classes]), rng);
    mlp.train_cross_entropy(
        &x.select_rows(train_idx),
        &y_train,
        cfg.epochs,
        cfg.lr,
        cfg.weight_decay,
    );
    let mut clusters = mlp.predict(x);

    for _ in 0..cfg.stages {
        // Noisy degree vectors (L1 sensitivity 2 per stage).
        let mut deg = cluster_degree_vectors(graph, &clusters, num_classes);
        gcon_dp::mechanisms::laplace_mechanism(deg.as_mut_slice(), 2.0, eps_stage, rng);
        // Row-normalize the noisy vectors so the MLP sees bounded inputs.
        deg.normalize_rows_l2();
        let aug = x.hcat(&deg);
        let mut stage_mlp =
            Mlp::new(&MlpConfig::relu_classifier(vec![aug.cols(), cfg.hidden, num_classes]), rng);
        stage_mlp.train_cross_entropy(
            &aug.select_rows(train_idx),
            &y_train,
            cfg.epochs,
            cfg.lr,
            cfg.weight_decay,
        );
        clusters = stage_mlp.predict(&aug);
    }
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_datasets::metrics::micro_f1;
    use gcon_datasets::two_moons_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degree_vectors_count_neighbors() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let clusters = vec![0, 0, 1, 1];
        let d = cluster_degree_vectors(&g, &clusters, 2);
        assert_eq!(d.row(0), &[1.0, 2.0]);
        assert_eq!(d.row(1), &[1.0, 0.0]);
        assert_eq!(d.row(2), &[1.0, 0.0]);
    }

    #[test]
    fn lpgnet_runs_and_beats_chance() {
        let d = two_moons_graph(41);
        let mut rng = StdRng::seed_from_u64(42);
        let cfg = LpgnetConfig { epochs: 80, ..Default::default() };
        let pred = train_and_predict_lpgnet(
            &cfg,
            &d.graph,
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            2.0,
            &mut rng,
        );
        let test_pred: Vec<usize> = d.split.test.iter().map(|&i| pred[i]).collect();
        let f1 = micro_f1(&test_pred, &d.test_labels());
        assert!(f1 > 0.6, "LPGNet test micro-F1 {f1}");
    }
}
