//! Algorithm 4: inference with a trained GCON model.
//!
//! Two modes (Sec. IV-C6):
//!
//! - **Private inference** (Eq. 16): the querying node knows its own edges,
//!   so a *single* hop of aggregation `R̂ = (1−α_I)Ã + α_I·I` is allowed —
//!   it uses only edges incident to each query node and reveals nothing about
//!   non-neighboring edges. This is the standard evaluation setup (scenario
//!   (i)) used in Figure 1 and Figure 2.
//! - **Public inference**: when the test graph is public (Figure 3, following
//!   the decoupled-GNN evaluation of \[46\]–\[48\]), the full training-time
//!   propagation `Z` is computed and multiplied by `Θ_priv`.
//!
//! # Structure: propagate, then head
//!
//! Both modes factor into the same two stages, exposed separately so serving
//! layers (`gcon-serve`) can run them at different times:
//!
//! 1. **Feature stage** — [`public_features`] / [`private_features`]: encode
//!    and row-normalize the raw features, aggregate them over the graph
//!    (full multi-scale propagation or the one-hop `R̂`), and apply the
//!    `1/s` concatenation scaling. This is the expensive, whole-graph part;
//!    its output depends only on `(model, graph, features)` and can be
//!    precomputed and reused across queries.
//! 2. **Head stage** — [`head_logits`]: multiply (rows of) the propagated
//!    feature matrix by the released parameters `Θ_priv`. This is the cheap,
//!    per-query part.
//!
//! [`private_logits`] and [`public_logits`] are thin compositions of the two
//! stages; `gcon-serve::ServingModel` runs stage 1 once at build time and
//! answers queries with stage 2 only. Because every dense kernel in
//! `gcon-linalg` computes each output row independently of the surrounding
//! row partition (see the determinism notes in its crate docs), the serving
//! path is **bitwise identical** to calling the entry points here.

use crate::model::TrainedGcon;
use crate::propagation::{appr_step_into, concat_features, PropagationStep};
use gcon_graph::normalize::row_stochastic;
use gcon_graph::{Csr, Graph};
use gcon_linalg::{ops, reduce, Mat};

/// Encodes and row-normalizes raw features with the model's public encoder.
fn encode_normalized(model: &TrainedGcon, features: &Csr) -> Mat {
    let mut x = model.encoder.encode(features);
    x.normalize_rows_l2();
    x
}

/// Feature stage of private inference (Eq. 16): the one-hop aggregate
/// `(1/s)(R̂_{m₁}X̄ ⊕ … ⊕ R̂_{m_s}X̄)` with `R̂ = (1−α_I)Ã + α_I·I`
/// (`R̂ = I` for `mᵢ = 0`), where `X̄` is the encoded, row-normalized
/// feature matrix.
///
/// Row `i` of the result depends only on `X̄` rows adjacent to node `i` (and
/// `X̄ᵢ` itself), which is what makes this stage admissible under edge DP.
/// [`private_logits`] is this followed by [`head_logits`].
pub fn private_features(model: &TrainedGcon, graph: &Graph, features: &Csr) -> Mat {
    let x = encode_normalized(model, features);
    let steps = &model.config.steps;
    // The one-hop aggregate, computed once if any m_i > 0: one APPR step
    // from X̄ at α_I, its `(1−α_I)·v + α_I·x` applied to each row block of
    // the sparse product while it is in cache.
    let one_hop = steps.iter().any(|&s| s != PropagationStep::Finite(0)).then(|| {
        let a_tilde = row_stochastic(graph, model.config.clip_p);
        let mut h = Mat::default();
        appr_step_into(&a_tilde, &x, &x, model.config.alpha_inference, &mut h);
        h
    });
    if let [step] = steps[..] {
        // One scale: the feature matrix is that block itself (`1/s = 1`).
        return match step {
            PropagationStep::Finite(0) => x,
            _ => one_hop.expect("a step m > 0 aggregates"),
        };
    }
    let (n, d) = x.shape();
    let mut z = Mat::zeros(n, steps.len() * d);
    for (i, &step) in steps.iter().enumerate() {
        let part = match step {
            PropagationStep::Finite(0) => &x,
            _ => one_hop.as_ref().expect("a step m > 0 aggregates"),
        };
        z.copy_into_columns(i * d, part);
    }
    let inv_s = 1.0 / steps.len() as f64;
    z.map_inplace(|v| v * inv_s);
    z
}

/// Feature stage of public inference: the full training-time propagation
/// `Z = (1/s)(Z_{m₁} ⊕ … ⊕ Z_{m_s})` of the encoded, row-normalized
/// features (no DP constraint on the test graph's edges).
///
/// This is the whole-graph computation a serving layer precomputes once;
/// [`public_logits`] is this followed by [`head_logits`].
pub fn public_features(model: &TrainedGcon, graph: &Graph, features: &Csr) -> Mat {
    let x = encode_normalized(model, features);
    let a_tilde = row_stochastic(graph, model.config.clip_p);
    concat_features(&a_tilde, &x, model.config.alpha, &model.config.steps)
}

/// Head stage shared by both inference modes: `Ŷ = Z·Θ_priv` for a (full or
/// gathered) propagated feature matrix `z`.
///
/// Each output row is computed independently of every other row, so calling
/// this on a row subset of `Z` yields bitwise the same logits those rows get
/// in the full product — the property `gcon-serve` relies on.
pub fn head_logits(model: &TrainedGcon, z: &Mat) -> Mat {
    ops::matmul(z, &model.theta)
}

/// Private inference (Eq. 16): one-hop aggregation only.
///
/// Returns the logit matrix `Ŷ = (R̂_{m₁}X̄ ⊕ … ⊕ R̂_{m_s}X̄)Θ_priv`
/// (scaled by `1/s` to match the training-time feature scale; a uniform
/// positive scaling does not change the argmax). Composition of
/// [`private_features`] and [`head_logits`].
///
/// ```
/// use gcon_core::infer::{private_logits, private_predict};
/// # use gcon_core::train::train_gcon;
/// # use gcon_core::{GconConfig, PropagationStep};
/// # use gcon_graph::generators::{sbm_homophily, SbmConfig};
/// # use gcon_linalg::Mat;
/// # use rand::{rngs::StdRng, SeedableRng};
/// # let mut rng = StdRng::seed_from_u64(7);
/// # let cfg = SbmConfig { n: 30, num_edges: 90, num_classes: 2, homophily: 0.8,
/// #                       degree_exponent: 2.5 };
/// # let (graph, labels) = sbm_homophily(&cfg, &mut rng);
/// # let features = Mat::from_fn(30, 6, |i, j| if j % 2 == labels[i] { 1.0 } else { 0.0 });
/// # let features = gcon_graph::Csr::from_dense(&features);
/// # let train_idx: Vec<usize> = (0..30).collect();
/// # let mut config = GconConfig::default();
/// # config.encoder.epochs = 5;
/// # config.encoder.hidden = 8;
/// # config.encoder.d1 = 4;
/// # config.optimizer.max_iters = 30;
/// let model = train_gcon(&config, &graph, &features, &labels, &train_idx, 2, 4.0, 1e-3, &mut rng);
/// // One row of logits per node, one column per class.
/// let logits = private_logits(&model, &graph, &features);
/// assert_eq!(logits.shape(), (graph.num_nodes(), model.num_classes));
/// // `private_predict` is the row-wise argmax of exactly these logits.
/// assert_eq!(private_predict(&model, &graph, &features).len(), graph.num_nodes());
/// ```
pub fn private_logits(model: &TrainedGcon, graph: &Graph, features: &Csr) -> Mat {
    head_logits(model, &private_features(model, graph, features))
}

/// Private inference returning hard class predictions (row-wise argmax of
/// [`private_logits`]).
///
/// ```
/// # use gcon_core::infer::private_predict;
/// # use gcon_core::train::train_gcon;
/// # use gcon_core::GconConfig;
/// # use gcon_graph::generators::{sbm_homophily, SbmConfig};
/// # use gcon_linalg::Mat;
/// # use rand::{rngs::StdRng, SeedableRng};
/// # let mut rng = StdRng::seed_from_u64(8);
/// # let cfg = SbmConfig { n: 30, num_edges: 90, num_classes: 2, homophily: 0.8,
/// #                       degree_exponent: 2.5 };
/// # let (graph, labels) = sbm_homophily(&cfg, &mut rng);
/// # let features = Mat::from_fn(30, 6, |i, j| if j % 2 == labels[i] { 1.0 } else { 0.0 });
/// # let features = gcon_graph::Csr::from_dense(&features);
/// # let train_idx: Vec<usize> = (0..30).collect();
/// # let mut config = GconConfig::default();
/// # config.encoder.epochs = 5;
/// # config.encoder.hidden = 8;
/// # config.encoder.d1 = 4;
/// # config.optimizer.max_iters = 30;
/// let model = train_gcon(&config, &graph, &features, &labels, &train_idx, 2, 4.0, 1e-3, &mut rng);
/// let pred = private_predict(&model, &graph, &features);
/// assert!(pred.iter().all(|&c| c < model.num_classes));
/// ```
pub fn private_predict(model: &TrainedGcon, graph: &Graph, features: &Csr) -> Vec<usize> {
    reduce::row_argmax(&private_logits(model, graph, features))
}

/// Public inference: full training-time propagation (no DP constraint on the
/// test graph's edges). Composition of [`public_features`] and
/// [`head_logits`].
///
/// ```
/// use gcon_core::infer::{public_features, public_logits, head_logits};
/// # use gcon_core::train::train_gcon;
/// # use gcon_core::GconConfig;
/// # use gcon_graph::generators::{sbm_homophily, SbmConfig};
/// # use gcon_linalg::Mat;
/// # use rand::{rngs::StdRng, SeedableRng};
/// # let mut rng = StdRng::seed_from_u64(9);
/// # let cfg = SbmConfig { n: 30, num_edges: 90, num_classes: 2, homophily: 0.8,
/// #                       degree_exponent: 2.5 };
/// # let (graph, labels) = sbm_homophily(&cfg, &mut rng);
/// # let features = Mat::from_fn(30, 6, |i, j| if j % 2 == labels[i] { 1.0 } else { 0.0 });
/// # let features = gcon_graph::Csr::from_dense(&features);
/// # let train_idx: Vec<usize> = (0..30).collect();
/// # let mut config = GconConfig::default();
/// # config.encoder.epochs = 5;
/// # config.encoder.hidden = 8;
/// # config.encoder.d1 = 4;
/// # config.optimizer.max_iters = 30;
/// let model = train_gcon(&config, &graph, &features, &labels, &train_idx, 2, 4.0, 1e-3, &mut rng);
/// // The entry point is exactly feature stage + head stage: a serving layer
/// // may precompute the feature stage and replay the head per query.
/// let z = public_features(&model, &graph, &features);
/// let logits = public_logits(&model, &graph, &features);
/// assert_eq!(head_logits(&model, &z), logits);
/// ```
pub fn public_logits(model: &TrainedGcon, graph: &Graph, features: &Csr) -> Mat {
    head_logits(model, &public_features(model, graph, features))
}

/// Public inference returning hard class predictions (row-wise argmax of
/// [`public_logits`]).
///
/// ```
/// # use gcon_core::infer::public_predict;
/// # use gcon_core::train::train_gcon;
/// # use gcon_core::GconConfig;
/// # use gcon_graph::generators::{sbm_homophily, SbmConfig};
/// # use gcon_linalg::Mat;
/// # use rand::{rngs::StdRng, SeedableRng};
/// # let mut rng = StdRng::seed_from_u64(10);
/// # let cfg = SbmConfig { n: 30, num_edges: 90, num_classes: 2, homophily: 0.8,
/// #                       degree_exponent: 2.5 };
/// # let (graph, labels) = sbm_homophily(&cfg, &mut rng);
/// # let features = Mat::from_fn(30, 6, |i, j| if j % 2 == labels[i] { 1.0 } else { 0.0 });
/// # let features = gcon_graph::Csr::from_dense(&features);
/// # let train_idx: Vec<usize> = (0..30).collect();
/// # let mut config = GconConfig::default();
/// # config.encoder.epochs = 5;
/// # config.encoder.hidden = 8;
/// # config.encoder.d1 = 4;
/// # config.optimizer.max_iters = 30;
/// let model = train_gcon(&config, &graph, &features, &labels, &train_idx, 2, 4.0, 1e-3, &mut rng);
/// let pred = public_predict(&model, &graph, &features);
/// assert_eq!(pred.len(), graph.num_nodes());
/// ```
pub fn public_predict(model: &TrainedGcon, graph: &Graph, features: &Csr) -> Vec<usize> {
    reduce::row_argmax(&public_logits(model, graph, features))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GconConfig;
    use crate::train::train_gcon;
    use gcon_graph::generators::{sbm_homophily, SbmConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_setup(seed: u64) -> (Graph, Csr, Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = SbmConfig {
            n: 90,
            num_edges: 270,
            num_classes: 3,
            homophily: 0.85,
            degree_exponent: 2.5,
        };
        let (g, labels) = sbm_homophily(&cfg, &mut rng);
        // Informative features: class-indexed bumps + noise.
        let x = Mat::from_fn(90, 12, |i, j| {
            let hit = j % 3 == labels[i];
            (if hit { 1.5 } else { 0.0 }) + 0.4 * (((i * 13 + j * 7) % 17) as f64 / 17.0 - 0.5)
        });
        let train_idx: Vec<usize> = (0..90).step_by(3).collect();
        (g, Csr::from_dense(&x), labels, train_idx)
    }

    fn quick_config() -> GconConfig {
        GconConfig {
            encoder: crate::encoder::EncoderConfig {
                hidden: 16,
                d1: 8,
                epochs: 80,
                lr: 0.02,
                weight_decay: 1e-5,
            },
            steps: vec![PropagationStep::Finite(2)],
            optimizer: crate::model::OptimizerConfig { max_iters: 800, grad_tol: 1e-7 },
            ..Default::default()
        }
    }

    #[test]
    fn private_and_public_inference_shapes() {
        let (g, x, labels, train_idx) = toy_setup(91);
        let mut rng = StdRng::seed_from_u64(92);
        let model =
            train_gcon(&quick_config(), &g, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        let lp = private_logits(&model, &g, &x);
        let lq = public_logits(&model, &g, &x);
        assert_eq!(lp.shape(), (90, 3));
        assert_eq!(lq.shape(), (90, 3));
        assert!(lp.is_finite() && lq.is_finite());
    }

    /// The entry points must be exactly feature stage ∘ head stage — the
    /// decomposition `gcon-serve` consumes.
    #[test]
    fn logits_equal_feature_stage_then_head_stage() {
        let (g, x, labels, train_idx) = toy_setup(103);
        let mut rng = StdRng::seed_from_u64(104);
        let mut cfg = quick_config();
        cfg.steps = vec![PropagationStep::Finite(0), PropagationStep::Finite(2)];
        let model = train_gcon(&cfg, &g, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        let z_pub = public_features(&model, &g, &x);
        let z_priv = private_features(&model, &g, &x);
        assert_eq!(z_pub.shape(), (90, 2 * 8));
        assert_eq!(
            head_logits(&model, &z_pub).as_slice(),
            public_logits(&model, &g, &x).as_slice()
        );
        assert_eq!(
            head_logits(&model, &z_priv).as_slice(),
            private_logits(&model, &g, &x).as_slice()
        );
    }

    #[test]
    fn trained_model_beats_majority_class_at_generous_budget() {
        let (g, x, labels, train_idx) = toy_setup(93);
        let mut rng = StdRng::seed_from_u64(94);
        let model =
            train_gcon(&quick_config(), &g, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        let pred = private_predict(&model, &g, &x);
        let acc = pred.iter().zip(&labels).filter(|(a, b)| a == b).count() as f64 / 90.0;
        assert!(acc > 0.5, "private accuracy {acc} not above majority floor ≈0.33");
    }

    #[test]
    fn private_inference_ignores_far_edges() {
        // Removing an edge NOT incident to a node must not change that
        // node's private prediction beyond the training-side effect — here we
        // only exercise the inference side by reusing the same trained model.
        let (g, x, labels, train_idx) = toy_setup(95);
        let mut rng = StdRng::seed_from_u64(96);
        let model =
            train_gcon(&quick_config(), &g, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        let edges = g.edges();
        let (u, v) = edges[0];
        let gp = g.with_edge_removed(u, v);
        let before = private_logits(&model, &g, &x);
        let after = private_logits(&model, &gp, &x);
        for i in 0..90 {
            let i_u32 = i as u32;
            if i_u32 == u || i_u32 == v {
                continue; // endpoints may change
            }
            for j in 0..3 {
                assert!(
                    (before.get(i, j) - after.get(i, j)).abs() < 1e-12,
                    "node {i} affected by non-incident edge removal"
                );
            }
        }
    }

    #[test]
    fn alpha_inference_one_ignores_all_edges() {
        // At α_I = 1, Eq. 16's R̂ = I: private inference must equal the
        // graph-free path, so logits are identical on any two graphs.
        let (g, x, labels, train_idx) = toy_setup(97);
        let mut cfg = quick_config();
        cfg.alpha_inference = 1.0;
        let mut rng = StdRng::seed_from_u64(98);
        let model = train_gcon(&cfg, &g, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        let on_g = private_logits(&model, &g, &x);
        let empty = Graph::empty(90);
        let on_empty = private_logits(&model, &empty, &x);
        for (a, b) in on_g.as_slice().iter().zip(on_empty.as_slice()) {
            assert!((a - b).abs() < 1e-12, "α_I = 1 still reads edges");
        }
    }

    #[test]
    fn clipped_model_inference_uses_clipped_normalization() {
        // A model trained at clip p < 1/2 must aggregate with the same
        // clipped Ã at inference: verify against a manual Eq. 16 replay.
        let (g, x, labels, train_idx) = toy_setup(99);
        let mut cfg = quick_config();
        cfg.clip_p = 0.2;
        let mut rng = StdRng::seed_from_u64(100);
        let model = train_gcon(&cfg, &g, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        let got = private_logits(&model, &g, &x);

        // Manual replay of Eq. 16 with the clipped normalization.
        let xin = {
            let mut e = model.encoder.encode(&x);
            e.normalize_rows_l2();
            e
        };
        let a = row_stochastic(&g, 0.2);
        let alpha_i = model.config.alpha_inference;
        let mut h = a.spmm(&xin);
        h.map_inplace(|v| v * (1.0 - alpha_i));
        ops::add_scaled_assign(&mut h, alpha_i, &xin);
        let want = ops::matmul(&h, &model.theta);
        for (a_, b_) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a_ - b_).abs() < 1e-10, "clipped inference mismatch");
        }
    }

    /// Private features as whole-matrix passes, the reference for the fused
    /// one-hop: the sparse product, a `·(1−α_I)` map and a `+ α_I·x` axpy,
    /// then every scale copied into an `n × s·d` matrix scaled by `1/s`.
    fn private_features_reference(model: &TrainedGcon, graph: &Graph, features: &Csr) -> Mat {
        let mut x = model.encoder.encode(features);
        x.normalize_rows_l2();
        let alpha_i = model.config.alpha_inference;
        let mut h = row_stochastic(graph, model.config.clip_p).spmm(&x);
        h.map_inplace(|v| v * (1.0 - alpha_i));
        ops::add_scaled_assign(&mut h, alpha_i, &x);
        let steps = &model.config.steps;
        let d = x.cols();
        let mut z = Mat::zeros(x.rows(), steps.len() * d);
        for (i, &step) in steps.iter().enumerate() {
            z.copy_into_columns(i * d, if step == PropagationStep::Finite(0) { &x } else { &h });
        }
        let inv_s = 1.0 / steps.len() as f64;
        z.map_inplace(|v| v * inv_s);
        z
    }

    /// The fused one-hop, and the feature matrix a single scale returns
    /// without assembly, are bitwise the reference, for one and several
    /// scales, on the training graph and on a graph large enough that the
    /// encode and the one-hop run on the pool.
    #[test]
    fn private_features_are_bitwise_the_whole_matrix_reference() {
        use PropagationStep::{Finite, Infinite};
        let (g, x, labels, train_idx) = toy_setup(107);
        let mut rng = StdRng::seed_from_u64(108);
        let model =
            train_gcon(&quick_config(), &g, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        let n = 4001;
        let big_graph = gcon_graph::generators::erdos_renyi_gnm(n, 5 * n, &mut rng);
        let big_features = Csr::from_dense(&Mat::from_fn(n, 12, |i, j| {
            if (i * 7 + j * 3) % 5 == 0 {
                1.0 + ((i + j) % 3) as f64
            } else {
                0.0
            }
        }));
        let net = &model.encoder.net;
        let encode_work = big_features.nnz() * net.layers[0].d_out() + n * net.forward_block_work();
        assert!(encode_work >= gcon_linalg::PAR_THRESHOLD, "encode runs on the pool");
        let hop_work = (n + 2 * big_graph.num_edges()) * model.encoder.d1();
        assert!(hop_work >= gcon_linalg::PAR_THRESHOLD, "the one-hop runs on the pool");
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for steps in [
            vec![Finite(2)],
            vec![Finite(0)],
            vec![Infinite],
            vec![Finite(0), Finite(2)],
            vec![Finite(1), Infinite, Finite(0)],
        ] {
            let mut m = model.clone();
            m.config.steps = steps.clone();
            for (graph, features) in [(&g, &x), (&big_graph, &big_features)] {
                let got = private_features(&m, graph, features);
                let want = private_features_reference(&m, graph, features);
                assert_eq!(bits(&got), bits(&want), "{steps:?} on {} nodes", graph.num_nodes());
            }
        }
    }

    /// Inference propagates cold, so the model's `PprSolver` does not
    /// change a single logit.
    #[test]
    fn inference_ignores_the_ppr_solver() {
        use crate::propagation::PprSolver;
        let (g, x, labels, train_idx) = toy_setup(105);
        let mut cfg = quick_config();
        cfg.steps = vec![PropagationStep::Finite(1), PropagationStep::Infinite];
        let mut rng = StdRng::seed_from_u64(106);
        let model = train_gcon(&cfg, &g, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
        let private = private_logits(&model, &g, &x);
        let public = public_logits(&model, &g, &x);
        for solver in [PprSolver::Auto, PprSolver::Power, PprSolver::Push] {
            let mut m = model.clone();
            m.config.ppr_solver = solver;
            assert_eq!(private_logits(&m, &g, &x).as_slice(), private.as_slice(), "{solver:?}");
            assert_eq!(public_logits(&m, &g, &x).as_slice(), public.as_slice(), "{solver:?}");
        }
    }

    #[test]
    fn step_zero_inference_is_graph_free() {
        // steps = [0] means R̂ = I regardless of α_I (Eq. 16 first branch).
        let (g, x, labels, train_idx) = toy_setup(101);
        let mut cfg = quick_config();
        cfg.steps = vec![PropagationStep::Finite(0)];
        let mut rng = StdRng::seed_from_u64(102);
        let model = train_gcon(&cfg, &g, &x, &labels, &train_idx, 3, 1.0, 1e-3, &mut rng);
        // Ψ(Z) = 0 at m = 0: the report must mark the run noise-free.
        assert!(model.report.params.is_noise_free());
        let on_g = private_logits(&model, &g, &x);
        let on_empty = private_logits(&model, &Graph::empty(90), &x);
        assert_eq!(on_g.as_slice(), on_empty.as_slice());
    }
}
