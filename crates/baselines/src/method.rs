//! Uniform entry point for running any Figure 1 competitor on a dataset.

use crate::dpgcn::{train_dpgcn, DpgcnMechanism};
use crate::dpsgd::{train_and_predict_dpsgd, DpSgdConfig};
use crate::gap::{train_and_predict_gap, GapConfig};
use crate::gcn::{train_gcn, GcnConfig};
use crate::lpgnet::{train_and_predict_lpgnet, LpgnetConfig};
use crate::mlp::{train_and_predict_mlp, MlpBaselineConfig};
use crate::progap::{train_and_predict_progap, ProgapConfig};
use gcon_datasets::metrics::micro_f1;
use gcon_datasets::Dataset;
use gcon_graph::normalize::symmetric;
use rand::Rng;

/// The competitors of Figure 1 (GCON itself lives in `gcon-core`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Baseline {
    /// Non-private 2-layer GCN — the utility upper bound.
    GcnNonDp,
    /// Edge-free MLP — trivially edge-DP at any ε.
    Mlp,
    /// Gradient perturbation on a 1-layer GCN.
    DpSgd,
    /// Adjacency perturbation (LapGraph variant).
    Dpgcn,
    /// Stacked MLPs over noisy cluster-degree vectors.
    LpGnet,
    /// Aggregation perturbation.
    Gap,
    /// Progressive aggregation perturbation.
    ProGap,
}

impl Baseline {
    /// All competitors in the paper's Figure 1 legend order (minus GCON).
    pub fn all() -> [Baseline; 7] {
        [
            Baseline::DpSgd,
            Baseline::Dpgcn,
            Baseline::LpGnet,
            Baseline::Gap,
            Baseline::ProGap,
            Baseline::Mlp,
            Baseline::GcnNonDp,
        ]
    }

    /// Display name matching the paper's legend.
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::GcnNonDp => "GCN (non-DP)",
            Baseline::Mlp => "MLP",
            Baseline::DpSgd => "DP-SGD",
            Baseline::Dpgcn => "DPGCN",
            Baseline::LpGnet => "LPGNet",
            Baseline::Gap => "GAP",
            Baseline::ProGap => "ProGAP",
        }
    }

    /// True when the method's output is independent of ε (flat curves).
    pub fn ignores_epsilon(&self) -> bool {
        matches!(self, Baseline::GcnNonDp | Baseline::Mlp)
    }
}

/// Trains the baseline under `(eps, delta)` edge-DP and returns the
/// micro-F1 on the dataset's test split. GAP's encoder reads the sparse
/// features as GCON's does; the other baselines take them dense.
pub fn evaluate_baseline<R: Rng + ?Sized>(
    baseline: Baseline,
    dataset: &Dataset,
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> f64 {
    let d = dataset;
    let pred_all: Vec<usize> = match baseline {
        Baseline::GcnNonDp => {
            let x = d.features.to_dense();
            let model = train_gcn(
                &GcnConfig::default(),
                &d.graph,
                &x,
                &d.labels,
                &d.split.train,
                d.num_classes,
                rng,
            );
            model.predict(&symmetric(&d.graph), &x)
        }
        Baseline::Mlp => train_and_predict_mlp(
            &MlpBaselineConfig::default(),
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            rng,
        ),
        Baseline::DpSgd => train_and_predict_dpsgd(
            &DpSgdConfig::default(),
            &d.graph,
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            eps,
            delta,
            rng,
        ),
        Baseline::Dpgcn => {
            let x = d.features.to_dense();
            let (model, noisy) = train_dpgcn(
                &GcnConfig::default(),
                DpgcnMechanism::LapGraph,
                &d.graph,
                &x,
                &d.labels,
                &d.split.train,
                d.num_classes,
                eps,
                rng,
            );
            model.predict(&symmetric(&noisy), &x)
        }
        Baseline::LpGnet => train_and_predict_lpgnet(
            &LpgnetConfig::default(),
            &d.graph,
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            eps,
            rng,
        ),
        Baseline::Gap => train_and_predict_gap(
            &GapConfig::default(),
            &d.graph,
            &d.features,
            &d.labels,
            &d.split.train,
            d.num_classes,
            eps,
            delta,
            rng,
        ),
        Baseline::ProGap => train_and_predict_progap(
            &ProgapConfig::default(),
            &d.graph,
            &d.features.to_dense(),
            &d.labels,
            &d.split.train,
            d.num_classes,
            eps,
            delta,
            rng,
        ),
    };
    let test_pred: Vec<usize> = d.split.test.iter().map(|&i| pred_all[i]).collect();
    micro_f1(&test_pred, &d.test_labels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_datasets::two_moons_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<&str> = Baseline::all().iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn every_baseline_runs_end_to_end() {
        let d = two_moons_graph(81);
        for b in Baseline::all() {
            let mut rng = StdRng::seed_from_u64(82);
            let f1 = evaluate_baseline(b, &d, 2.0, 1e-3, &mut rng);
            assert!((0.0..=1.0).contains(&f1), "{}: f1 {f1}", b.name());
        }
    }

    #[test]
    fn non_dp_gcn_tops_dpgcn_at_tight_budget() {
        let d = two_moons_graph(83);
        let mut r1 = StdRng::seed_from_u64(84);
        let mut r2 = StdRng::seed_from_u64(84);
        let gcn = evaluate_baseline(Baseline::GcnNonDp, &d, 0.5, 1e-3, &mut r1);
        let dpgcn = evaluate_baseline(Baseline::Dpgcn, &d, 0.5, 1e-3, &mut r2);
        assert!(
            gcn >= dpgcn - 0.05,
            "non-DP GCN ({gcn}) should not lose to DPGCN at ε=0.5 ({dpgcn})"
        );
    }
}
