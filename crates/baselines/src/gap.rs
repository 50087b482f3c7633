//! GAP-EDP (Sajadmanesh et al., USENIX Security 2023): aggregation
//! perturbation.
//!
//! Pipeline:
//! 1. **Encoder** (edge-free, no budget): an MLP trained on features/labels
//!    compresses nodes to `d₁` dimensions; rows are L2-normalized.
//! 2. **Perturbed aggregation module (PMA)**: `K` hops of *sum* aggregation
//!    over the raw adjacency. Each hop adds Gaussian noise and re-normalizes
//!    rows, so each hop's edge-level L2 sensitivity is `√2` for an undirected
//!    edge (removing `{u,v}` changes row `u` by the unit-norm `x_v` and row
//!    `v` by `x_u`). The `K` releases are composed with the RDP accountant
//!    and the noise multiplier is calibrated to the total `(ε, δ)`.
//! 3. **Classifier** (edge-free): an MLP over the concatenated cached
//!    aggregates `[X⁽⁰⁾ ‖ … ‖ X⁽ᴷ⁾]`.

use gcon_core::encoder::{EncoderConfig, FeatureEncoder};
use gcon_dp::mechanisms::add_gaussian_noise;
use gcon_dp::rdp::calibrate_noise_multiplier;
use gcon_graph::{Csr, Graph};
use gcon_linalg::Mat;
use gcon_nn::{Mlp, MlpConfig};
use rand::Rng;

/// Hyperparameters for GAP-EDP.
#[derive(Clone, Debug)]
pub struct GapConfig {
    /// Number of aggregation hops K.
    pub hops: usize,
    /// Encoder settings (public pre-training).
    pub encoder: EncoderConfig,
    /// Classifier hidden width.
    pub classifier_hidden: usize,
    /// Classifier epochs.
    pub classifier_epochs: usize,
    /// Classifier learning rate.
    pub lr: f64,
}

impl Default for GapConfig {
    fn default() -> Self {
        Self {
            hops: 2,
            encoder: EncoderConfig {
                d1: 16,
                hidden: 64,
                epochs: 150,
                lr: 0.01,
                weight_decay: 1e-5,
            },
            classifier_hidden: 64,
            classifier_epochs: 200,
            lr: 0.01,
        }
    }
}

/// Raw adjacency (ones, no self-loops) in CSR form for sum aggregation.
pub fn adjacency_csr(graph: &Graph) -> Csr {
    let n = graph.num_nodes();
    let rows: Vec<Vec<(u32, f64)>> =
        (0..n as u32).map(|u| graph.neighbors(u).iter().map(|&v| (v, 1.0)).collect()).collect();
    Csr::from_row_entries(n, n, rows)
}

/// Per-hop L2 sensitivity of sum aggregation over unit-norm rows under
/// edge-level neighboring graphs (undirected edge = two affected rows).
pub const GAP_HOP_SENSITIVITY: f64 = std::f64::consts::SQRT_2;

/// Runs the perturbed aggregation module, returning the `K+1` cached
/// normalized aggregates (hop 0 is the noiseless encoder output).
pub fn perturbed_aggregation<R: Rng + ?Sized>(
    graph: &Graph,
    x0: &Mat,
    hops: usize,
    sigma: f64,
    rng: &mut R,
) -> Vec<Mat> {
    let a = adjacency_csr(graph);
    let mut cached = Vec::with_capacity(hops + 1);
    let mut cur = x0.clone();
    cur.normalize_rows_l2();
    cached.push(cur);
    for _ in 0..hops {
        // Each hop's aggregate is written straight into its cache slot —
        // no intermediate clone per hop.
        let mut agg = Mat::default();
        a.spmm_into(cached.last().expect("hop 0 cached"), &mut agg);
        add_gaussian_noise(agg.as_mut_slice(), sigma, rng);
        agg.normalize_rows_l2();
        cached.push(agg);
    }
    cached
}

/// Trains GAP-EDP and returns predictions for every node.
#[allow(clippy::too_many_arguments)] // a training entry point takes the full dataset tuple
pub fn train_and_predict_gap<R: Rng + ?Sized>(
    cfg: &GapConfig,
    graph: &Graph,
    x: &Csr,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> Vec<usize> {
    let y_train: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();

    // 1. Public encoder.
    let encoder =
        FeatureEncoder::train(&cfg.encoder, &x.select_rows(train_idx), &y_train, num_classes, rng);
    let x0 = encoder.encode(x);

    // 2. PMA with RDP-calibrated noise over K releases.
    let noise_mult = calibrate_noise_multiplier(1.0, cfg.hops, eps, delta);
    let sigma = noise_mult * GAP_HOP_SENSITIVITY;
    let cached = perturbed_aggregation(graph, &x0, cfg.hops, sigma, rng);

    // 3. Edge-free classifier on the concatenated aggregates.
    let refs: Vec<&Mat> = cached.iter().collect();
    let features = Mat::hcat_all(&refs);
    let mut clf = Mlp::new(
        &MlpConfig::relu_classifier(vec![features.cols(), cfg.classifier_hidden, num_classes]),
        rng,
    );
    clf.train_cross_entropy(
        &features.select_rows(train_idx),
        &y_train,
        cfg.classifier_epochs,
        cfg.lr,
        1e-5,
    );
    clf.predict(&features)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_datasets::metrics::micro_f1;
    use gcon_datasets::two_moons_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adjacency_csr_matches_graph() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let a = adjacency_csr(&g);
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(0, 0), 0.0); // no self-loops
    }

    #[test]
    fn aggregation_cache_has_hops_plus_one_entries() {
        let d = two_moons_graph(51);
        let mut rng = StdRng::seed_from_u64(52);
        let cached = perturbed_aggregation(&d.graph, &d.features.to_dense(), 3, 0.1, &mut rng);
        assert_eq!(cached.len(), 4);
        for m in &cached {
            assert_eq!(m.shape(), (d.num_nodes(), d.features.cols()));
            // Rows re-normalized after every hop.
            for norm in gcon_linalg::reduce::row_norms2(m) {
                assert!(norm <= 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn zero_noise_aggregation_is_deterministic_smoothing() {
        let d = two_moons_graph(53);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let a = perturbed_aggregation(&d.graph, &d.features.to_dense(), 2, 0.0, &mut r1);
        let b = perturbed_aggregation(&d.graph, &d.features.to_dense(), 2, 0.0, &mut r2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn gap_runs_and_beats_chance_at_generous_budget() {
        let d = two_moons_graph(54);
        let mut rng = StdRng::seed_from_u64(55);
        let cfg = GapConfig {
            encoder: EncoderConfig { epochs: 80, ..Default::default() },
            classifier_epochs: 120,
            ..Default::default()
        };
        let pred = train_and_predict_gap(
            &cfg,
            &d.graph,
            &d.features,
            &d.labels,
            &d.split.train,
            d.num_classes,
            4.0,
            1e-3,
            &mut rng,
        );
        let test_pred: Vec<usize> = d.split.test.iter().map(|&i| pred[i]).collect();
        let f1 = micro_f1(&test_pred, &d.test_labels());
        assert!(f1 > 0.6, "GAP test micro-F1 {f1}");
    }
}
