//! The MLP baseline: ignores the graph entirely, so it satisfies edge-DP at
//! *every* privacy budget (its Figure 1 curve is a flat line). It is the
//! floor that any useful edge-DP GNN must beat.

use gcon_linalg::Mat;
use gcon_nn::{Mlp, MlpConfig};
use rand::Rng;

/// Hyperparameters for the MLP baseline.
#[derive(Clone, Debug)]
pub struct MlpBaselineConfig {
    /// Hidden width.
    pub hidden: usize,
    /// Full-batch Adam epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f64,
    /// Weight decay.
    pub weight_decay: f64,
}

impl Default for MlpBaselineConfig {
    fn default() -> Self {
        Self { hidden: 64, epochs: 200, lr: 0.01, weight_decay: 1e-5 }
    }
}

/// Trains a 2-layer MLP on the labeled nodes and predicts all nodes.
pub fn train_and_predict_mlp<R: Rng + ?Sized>(
    cfg: &MlpBaselineConfig,
    x: &Mat,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    rng: &mut R,
) -> Vec<usize> {
    let x_train = x.select_rows(train_idx);
    let y_train: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let mut mlp =
        Mlp::new(&MlpConfig::relu_classifier(vec![x.cols(), cfg.hidden, num_classes]), rng);
    mlp.train_cross_entropy(&x_train, &y_train, cfg.epochs, cfg.lr, cfg.weight_decay);
    mlp.predict(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_datasets::metrics::micro_f1;
    use gcon_datasets::two_moons_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_baseline_beats_chance_on_featureful_data() {
        let d = two_moons_graph(21);
        let mut rng = StdRng::seed_from_u64(22);
        let pred = train_and_predict_mlp(
            &MlpBaselineConfig::default(),
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            &mut rng,
        );
        let test_pred: Vec<usize> = d.split.test.iter().map(|&i| pred[i]).collect();
        let f1 = micro_f1(&test_pred, &d.test_labels());
        assert!(f1 > 0.7, "MLP test micro-F1 {f1}");
    }
}
