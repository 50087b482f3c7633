//! Algorithm 1: the complete GCON training pipeline.
//!
//! ```text
//! 1. X̄ ← FeatureEncoder(X, Y, d₁)          (edge-free, no budget)
//! 2. normalize rows of X̄ to unit L2
//! 3. Ã ← D⁻¹(A + I)
//! 4-7. Z ← (1/s)(Z_{m₁} ⊕ … ⊕ Z_{m_s}),  Z_m by the APPR/PPR recursion
//! 8. (Λ′, β) ← Theorem 1 (Eq. 17–24)
//! 9. B ← Algorithm 2 noise, column-wise
//! 10. L_priv ← Eq. (13)
//! 11. Θ_priv ← argmin L_priv              (optimizer-independent privacy)
//! ```
//!
//! Line 11 is solved by [`minimize`], a damped Newton method on the
//! per-class Hessian blocks of Eq. (48). Theorem 1 is a statement about the
//! exact minimizer, and `L_priv` is `(Λ̄+Λ′)`-strongly convex, so the final
//! gradient norm certifies how far the released `Θ_priv` can be from it:
//! `‖Θ_priv − Θ*‖_F ≤ ‖∇L_priv(Θ_priv)‖_F / (Λ̄+Λ′)`
//! ([`TrainedGcon::minimizer_distance_bound`]).

use crate::encoder::FeatureEncoder;
use crate::loss::ConvexLoss;
use crate::model::{GconConfig, OptimizerConfig, PrivacyReport, TrainedGcon};
use crate::noise::sample_noise_matrix;
use crate::objective::PerturbedObjective;
use crate::params::{CalibrationInput, TheoremOneParams};
use crate::propagation::concat_features;
use crate::sensitivity::psi_z_clipped;
use gcon_graph::normalize::row_stochastic;
use gcon_graph::{Csr, Graph};
use gcon_linalg::lu::Lu;
use gcon_linalg::{ops, Mat};
use rand::Rng;

/// Armijo's sufficient-decrease constant (Nocedal & Wright, Alg. 3.1).
const ARMIJO_C1: f64 = 1e-4;

/// Step halvings before a line search gives up.
const MAX_HALVINGS: usize = 60;

/// Minimizes a [`PerturbedObjective`] from `theta0` with a damped Newton
/// method. Returns `(Θ*, Newton steps, ‖∇L_priv(Θ*)‖_F)`; the norm is the
/// one at the returned `Θ`.
///
/// `ℓ` acts per coordinate, so the Hessian is block-diagonal with one
/// `d × d` block per class, `B_j = Zᵀ diag(ℓ″(Zθ_j; y_j)/n₁) Z + (Λ̄+Λ′) I`
/// (Eq. 48 over n₁), built with one partition-invariant `t_matmul`. Each
/// step solves `B_j Δ_j = ∇_j` for every class with an LU factorization and
/// backtracks from `t = 1` by halving. A step is accepted on Armijo's
/// sufficient decrease of `L_priv`, or, once the predicted decrease
/// `t·⟨∇, Δ⟩` is below the rounding of `L_priv` (`√(n₁c)·u` relative to
/// its terms), on a fall in `‖∇‖_F`: there a comparison of `L_priv` values
/// is rounding noise, while the gradient still resolves the quadratic
/// convergence of the full step.
///
/// The loop stops once `‖∇‖_F < grad_tol`, after `max_iters` steps, when
/// no halving is accepted, or when LU finds a block singular (`Λ̄+Λ′` below
/// its pivot tolerance). The objective is `(Λ̄+Λ′)`-strongly convex
/// (Lemma 4 + Fact 1), so the minimizer is unique and the returned norm
/// bounds the distance to it on every exit: `‖Θ − Θ*‖_F ≤ ‖∇‖_F / (Λ̄+Λ′)`.
pub fn minimize(
    obj: &PerturbedObjective<'_>,
    theta0: Mat,
    opt_cfg: &OptimizerConfig,
) -> (Mat, usize, f64) {
    let mut theta = theta0;
    let (mut value, mut grad) = obj.value_and_grad(&theta);
    let mut grad_norm = grad.frobenius_norm();
    let mut steps = 0;
    'newton: while steps < opt_cfg.max_iters && grad_norm >= opt_cfg.grad_tol {
        let Some(dir) = newton_direction(obj, &theta, &grad) else {
            break;
        };
        // The squared Newton decrement ⟨∇, B⁻¹∇⟩ > 0: the decrease of the
        // linear model per unit step.
        let decrement = ops::frobenius_inner(&grad, &dir);
        let rounding = obj.value_rounding(&theta, value);
        let mut t = 1.0;
        for _ in 0..MAX_HALVINGS {
            let mut cand = theta.clone();
            ops::add_scaled_assign(&mut cand, -t, &dir);
            let (cand_value, cand_grad) = obj.value_and_grad(&cand);
            let cand_norm = cand_grad.frobenius_norm();
            let accept = if t * decrement <= rounding {
                cand_norm < grad_norm
            } else {
                cand_value <= value - ARMIJO_C1 * t * decrement
            };
            if accept {
                (theta, value, grad, grad_norm) = (cand, cand_value, cand_grad, cand_norm);
                steps += 1;
                continue 'newton;
            }
            t *= 0.5;
        }
        break; // no halving helps: Θ sits at the rounding floor
    }
    (theta, steps, grad_norm)
}

/// The Newton direction `Δ`, column `j` solving `B_j Δ_j = ∇_j`; `None`
/// when LU finds a block singular.
fn newton_direction(obj: &PerturbedObjective<'_>, theta: &Mat, grad: &Mat) -> Option<Mat> {
    let mut dir = Mat::zeros(theta.rows(), theta.cols());
    for (j, block) in obj.hessian_blocks(theta).iter().enumerate() {
        for (i, v) in Lu::new(block).solve(&grad.col(j))?.into_iter().enumerate() {
            dir.set(i, j, v);
        }
    }
    Some(dir)
}

/// Trains GCON on `(graph, features, labels)` under `(eps, delta)` edge-DP.
///
/// - `features`: `n × d₀` raw node features (public).
/// - `labels`: class index per node (only `train_idx` entries are used as
///   ground truth; they are public in the problem setting of Sec. III).
/// - `train_idx`: indices of labeled training nodes.
///
/// Returns the released model; the privacy guarantee covers `Θ_priv` and is
/// independent of the optimizer (Theorem 1 remark).
#[allow(clippy::too_many_arguments)] // Algorithm 1 takes the full dataset tuple plus (ε, δ)
pub fn train_gcon<R: Rng + ?Sized>(
    config: &GconConfig,
    graph: &Graph,
    features: &Csr,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> TrainedGcon {
    let a_tilde = row_stochastic(graph, config.clip_p);
    train_gcon_on_adjacency(
        config,
        graph,
        &a_tilde,
        features,
        labels,
        train_idx,
        num_classes,
        eps,
        delta,
        rng,
    )
}

/// [`train_gcon`] with the normalized adjacency `Ã` supplied by the caller.
///
/// `a_tilde` must equal `row_stochastic(graph, config.clip_p)`; a caller
/// that trains many candidates on one graph (the tuning grid,
/// `tuning::tune_gcon`) passes a cached `Ã` so the normalization is not
/// recomputed per candidate.
#[allow(clippy::too_many_arguments)] // Algorithm 1 takes the full dataset tuple plus (ε, δ)
pub fn train_gcon_on_adjacency<R: Rng + ?Sized>(
    config: &GconConfig,
    graph: &Graph,
    a_tilde: &Csr,
    features: &Csr,
    labels: &[usize],
    train_idx: &[usize],
    num_classes: usize,
    eps: f64,
    delta: f64,
    rng: &mut R,
) -> TrainedGcon {
    let n = graph.num_nodes();
    assert_eq!(features.rows(), n, "train_gcon: feature rows must match node count");
    assert_eq!(labels.len(), n, "train_gcon: need a label slot per node");
    assert_eq!(a_tilde.rows(), n, "train_gcon: adjacency/node count mismatch");
    assert!(!train_idx.is_empty(), "train_gcon: empty training set");
    assert!(num_classes >= 2);

    // Lines 1–2: encoder (public) + row normalization.
    let x_labeled = features.select_rows(train_idx);
    let y_labeled: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
    let encoder = FeatureEncoder::train(&config.encoder, &x_labeled, &y_labeled, num_classes, rng);
    let mut x_enc = encoder.encode(features);
    // One encoder forward serves the pseudo-labels too: the head's argmax
    // on the embedding before normalization is `encoder.predict(features)`.
    let pseudo = config.expand_train_set.then(|| encoder.head_argmax(&x_enc));
    x_enc.normalize_rows_l2();

    // Lines 4–7: single-pass multi-scale propagation and concatenation
    // (with the Lemma 1 clip, inactive at the default p = 1/2).
    let z_all = concat_features(a_tilde, &x_enc, config.alpha, &config.steps);

    // Training rows: the labeled set, optionally expanded with encoder
    // pseudo-labels (n₁ ∈ {n₀, n} in Appendix Q). Pseudo-labels are derived
    // from features only, so they stay edge-free. The expanded set is rows
    // 0..n in order, which is `z_all` itself.
    let (z_train, row_labels) = if let Some(mut lbls) = pseudo {
        for &i in train_idx {
            lbls[i] = labels[i];
        }
        (z_all, lbls)
    } else {
        (z_all.select_rows(train_idx), y_labeled)
    };
    let n1 = z_train.rows();
    let mut y_onehot = Mat::zeros(n1, num_classes);
    for (r, &label) in row_labels.iter().enumerate() {
        y_onehot.set(r, label, 1.0);
    }

    // Line 8: Theorem 1 calibration. The clipped Ψ_p reduces to Lemma 2's
    // Ψ(Z) at p = 1/2.
    let loss = ConvexLoss::new(config.loss, num_classes);
    let psi = psi_z_clipped(config.alpha, &config.steps, config.clip_p);
    let d = z_train.cols();
    let params = TheoremOneParams::compute(&CalibrationInput {
        eps,
        delta,
        omega: config.omega,
        lambda: config.lambda,
        n1,
        num_classes,
        dim: d,
        bounds: loss.bounds(),
        psi,
    });

    // Line 9: noise.
    let b = sample_noise_matrix(d, num_classes, params.beta, rng);

    // Lines 10–11: minimize the perturbed objective.
    let obj = PerturbedObjective::new(&z_train, &y_onehot, loss, params.lambda_total(), &b);
    let theta0 = Mat::zeros(d, num_classes);
    let (theta, opt_iterations, final_grad_norm) = minimize(&obj, theta0, &config.optimizer);

    TrainedGcon {
        theta,
        encoder,
        config: config.clone(),
        report: PrivacyReport { eps, delta, psi_z: psi, params, n1 },
        num_classes,
        opt_iterations,
        final_grad_norm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn minimizer_reaches_unique_optimum_from_different_inits() {
        let mut rng = StdRng::seed_from_u64(81);
        let mut z = Mat::uniform(20, 6, 1.0, &mut rng);
        z.normalize_rows_l2();
        let mut y = Mat::zeros(20, 3);
        for i in 0..20 {
            y.set(i, i % 3, 1.0);
        }
        let b = Mat::uniform(6, 3, 0.3, &mut rng);
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        let obj = PerturbedObjective::new(&z, &y, loss, 0.5, &b);
        let cfg = OptimizerConfig { max_iters: 5000, grad_tol: 1e-10 };
        let (t1, _, g1) = minimize(&obj, Mat::zeros(6, 3), &cfg);
        let (t2, _, g2) = minimize(&obj, Mat::uniform(6, 3, 2.0, &mut rng), &cfg);
        assert!(g1 < 1e-8, "g1 = {g1}");
        assert!(g2 < 1e-8, "g2 = {g2}");
        // Strong convexity ⇒ unique minimizer.
        for (a, b_) in t1.as_slice().iter().zip(t2.as_slice()) {
            assert!((a - b_).abs() < 1e-5, "minimizers differ: {a} vs {b_}");
        }
    }

    /// The Theorem 1 remark, operationalized: Newton and a reference Adam
    /// loop find the same Θ* for the same perturbed objective. Strong
    /// convexity puts each within `‖∇‖/(Λ̄+Λ′)` of Θ*, so they must agree
    /// within the sum of the two bounds.
    #[test]
    fn newton_and_adam_agree_on_the_minimizer() {
        use gcon_nn::Adam;
        let mut rng = StdRng::seed_from_u64(83);
        let mut z = Mat::uniform(25, 5, 1.0, &mut rng);
        z.normalize_rows_l2();
        let mut y = Mat::zeros(25, 3);
        for i in 0..25 {
            y.set(i, i % 3, 1.0);
        }
        let b = Mat::uniform(5, 3, 0.4, &mut rng);
        let lambda_total = 0.6;
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        let obj = PerturbedObjective::new(&z, &y, loss, lambda_total, &b);

        let mut t_adam = Mat::uniform(5, 3, 1.0, &mut rng);
        let mut adam = Adam::new(0.05);
        for _ in 0..8000 {
            let grad = obj.gradient(&t_adam);
            if grad.frobenius_norm() < 1e-11 {
                break;
            }
            adam.begin_step();
            adam.update(0, t_adam.as_mut_slice(), grad.as_slice());
        }
        let g_adam = obj.gradient(&t_adam).frobenius_norm();
        let (t_newton, steps, g_newton) =
            minimize(&obj, Mat::zeros(5, 3), &OptimizerConfig::default());
        assert!(g_newton <= 1e-10, "Newton grad {g_newton} after {steps} steps");
        assert!(g_adam < 1e-8, "Adam grad {g_adam}");
        let gap = ops::sub(&t_adam, &t_newton).frobenius_norm();
        let bound = (g_adam + g_newton) / lambda_total;
        assert!(gap <= bound, "optimizers disagree: ‖Θ_Adam − Θ_Newton‖ = {gap} > {bound}");
    }

    /// Near Θ*, the decrease of a Newton step falls below the rounding of
    /// `L_priv`, and an Armijo test on `f` alone stalls (its accepted step
    /// shrinks towards 0). Accepting on a fall in ‖∇‖ there must reach the
    /// gradient's own rounding floor from every start.
    #[test]
    fn newton_reaches_the_rounding_floor_from_near_the_optimum() {
        let mut rng = StdRng::seed_from_u64(84);
        let mut z = Mat::uniform(200, 8, 1.0, &mut rng);
        z.normalize_rows_l2();
        let mut y = Mat::zeros(200, 3);
        for i in 0..200 {
            y.set(i, i % 3, 1.0);
        }
        let b = Mat::uniform(8, 3, 5.0, &mut rng);
        let cfg = OptimizerConfig { max_iters: 50, grad_tol: 1e-12 };
        for kind in [LossKind::MultiLabelSoftMargin, LossKind::PseudoHuber { delta: 0.2 }] {
            let obj = PerturbedObjective::new(&z, &y, ConvexLoss::new(kind, 3), 1.0, &b);
            let (theta_star, _, g_star) = minimize(&obj, Mat::zeros(8, 3), &cfg);
            assert!(g_star <= 1e-12, "{kind:?}: Θ* grad {g_star}");
            for radius in [1e-8, 1e-9, 1e-10] {
                for _ in 0..20 {
                    let mut delta = Mat::gaussian(8, 3, 1.0, &mut rng);
                    let norm = delta.frobenius_norm();
                    delta.map_inplace(|v| v * radius / norm);
                    let start = ops::add(&theta_star, &delta);
                    let (_, steps, g) = minimize(&obj, start, &cfg);
                    assert!(g <= 1e-12, "{kind:?} ‖δ‖ = {radius}: ‖∇‖ = {g} after {steps} steps");
                }
            }
        }
    }

    /// With `Λ̄+Λ′` below LU's pivot tolerance and fewer rows than features,
    /// a block is numerically singular: `minimize` returns `Θ₀` and its
    /// gradient norm instead of panicking.
    #[test]
    fn singular_block_stops_minimize_with_its_gradient_norm() {
        let mut rng = StdRng::seed_from_u64(85);
        let z = Mat::uniform(2, 6, 1.0, &mut rng);
        let y = Mat::from_fn(2, 2, |i, j| (i == j) as u8 as f64);
        let b = Mat::uniform(6, 2, 1.0, &mut rng);
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 2);
        let obj = PerturbedObjective::new(&z, &y, loss, 1e-300, &b);
        assert!(Lu::new(&obj.hessian_blocks(&Mat::zeros(6, 2))[0]).is_singular());
        let (theta, steps, g) = minimize(&obj, Mat::zeros(6, 2), &OptimizerConfig::default());
        assert_eq!(steps, 0);
        assert_eq!(theta.as_slice(), Mat::zeros(6, 2).as_slice());
        assert_eq!(g, obj.gradient(&theta).frobenius_norm());
    }

    #[test]
    fn stationarity_condition_eq40_holds() {
        // At the optimum: B = −n₁(∇data + (Λ̄+Λ′)Θ) restated as ∇L_priv = 0.
        let mut rng = StdRng::seed_from_u64(82);
        let mut z = Mat::uniform(15, 4, 1.0, &mut rng);
        z.normalize_rows_l2();
        let mut y = Mat::zeros(15, 2);
        for i in 0..15 {
            y.set(i, i % 2, 1.0);
        }
        let b = Mat::uniform(4, 2, 0.5, &mut rng);
        let loss = ConvexLoss::new(LossKind::PseudoHuber { delta: 0.2 }, 2);
        let obj = PerturbedObjective::new(&z, &y, loss, 0.7, &b);
        let cfg = OptimizerConfig { max_iters: 8000, grad_tol: 1e-11 };
        let (theta, _, _) = minimize(&obj, Mat::zeros(4, 2), &cfg);
        let grad = obj.gradient(&theta);
        assert!(grad.frobenius_norm() < 1e-8);
    }

    fn tiny_dataset(seed: u64) -> (gcon_graph::Graph, Csr, Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, labels) = gcon_graph::generators::sbm_homophily(
            &gcon_graph::generators::SbmConfig {
                n: 60,
                num_edges: 150,
                num_classes: 2,
                homophily: 0.9,
                degree_exponent: 2.5,
            },
            &mut rng,
        );
        let x = Mat::from_fn(60, 4, |i, j| {
            let base = if labels[i] == j % 2 { 1.0 } else { 0.1 };
            base + 0.05 * ((i * 7 + j * 3) % 10) as f64
        });
        let train_idx: Vec<usize> = (0..30).collect();
        (g, Csr::from_dense(&x), labels, train_idx)
    }

    /// With an expanded training set, `train_gcon` takes the pseudo-labels
    /// from its one encoder forward, before row normalization. Its Θ is
    /// bitwise that of a replica running `FeatureEncoder::{train, encode,
    /// predict}` as separate calls (the stages `gconbench`'s traced replica
    /// times), on sparse 0/1 features. On this data the head's argmax on the
    /// normalized embedding differs from `predict` on unlabeled rows, so
    /// labels taken after normalization would fail the test.
    #[test]
    fn fused_pseudo_labels_equal_the_two_call_replica() {
        use crate::propagation::concat_features;
        use gcon_graph::generators::{sbm_homophily, SbmConfig};
        let (n, c) = (80, 3);
        let mut rng = StdRng::seed_from_u64(101);
        let sbm =
            SbmConfig { n, num_edges: 200, num_classes: c, homophily: 0.9, degree_exponent: 2.5 };
        let (g, labels) = sbm_homophily(&sbm, &mut rng);
        let x = Csr::from_dense(&Mat::from_fn(n, 40, |i, j| {
            let h = (i * 131 + j * 71) % 97;
            if h < 5 || (j % c == labels[i] && h < 12) {
                1.0
            } else {
                0.0
            }
        }));
        let idx: Vec<usize> = (0..20).collect();
        let mut cfg = crate::GconConfig { expand_train_set: true, ..Default::default() };
        cfg.encoder.epochs = 30;
        let (eps, delta) = (2.0, 1e-4);
        let model =
            train_gcon(&cfg, &g, &x, &labels, &idx, c, eps, delta, &mut StdRng::seed_from_u64(103));

        let mut rng = StdRng::seed_from_u64(103);
        let y_labeled: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
        let x_labeled = x.select_rows(&idx);
        let encoder = FeatureEncoder::train(&cfg.encoder, &x_labeled, &y_labeled, c, &mut rng);
        let mut x_enc = encoder.encode(&x);
        x_enc.normalize_rows_l2();
        let z = concat_features(&row_stochastic(&g, cfg.clip_p), &x_enc, cfg.alpha, &cfg.steps);
        let mut pseudo = encoder.predict(&x);
        let after_normalization = encoder.head_argmax(&x_enc);
        assert!(
            (idx.len()..n).any(|i| pseudo[i] != after_normalization[i]),
            "the data no longer tells pre- from post-normalization pseudo-labels"
        );
        for &i in &idx {
            pseudo[i] = labels[i];
        }
        let mut y = Mat::zeros(n, c);
        for (r, &label) in pseudo.iter().enumerate() {
            y.set(r, label, 1.0);
        }
        let loss = ConvexLoss::new(cfg.loss, c);
        let psi = psi_z_clipped(cfg.alpha, &cfg.steps, cfg.clip_p);
        let params = TheoremOneParams::compute(&CalibrationInput {
            eps,
            delta,
            omega: cfg.omega,
            lambda: cfg.lambda,
            n1: n,
            num_classes: c,
            dim: z.cols(),
            bounds: loss.bounds(),
            psi,
        });
        let b = sample_noise_matrix(z.cols(), c, params.beta, &mut rng);
        let obj = PerturbedObjective::new(&z, &y, loss, params.lambda_total(), &b);
        let (theta, _, _) = minimize(&obj, Mat::zeros(z.cols(), c), &cfg.optimizer);

        assert_eq!(model.report.n1, n);
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&model.theta), bits(&theta));
    }

    /// `train_gcon_on_adjacency` as it was before the expanded training
    /// set skipped its copy: the training rows are always gathered from
    /// `z_all` with `select_rows`, rows `0..n` included.
    #[allow(clippy::too_many_arguments)]
    fn copying_replica(
        cfg: &crate::GconConfig,
        g: &gcon_graph::Graph,
        x: &Csr,
        labels: &[usize],
        train_idx: &[usize],
        c: usize,
        (eps, delta): (f64, f64),
        rng: &mut StdRng,
    ) -> (Mat, usize) {
        let n = g.num_nodes();
        let y_labeled: Vec<usize> = train_idx.iter().map(|&i| labels[i]).collect();
        let encoder =
            FeatureEncoder::train(&cfg.encoder, &x.select_rows(train_idx), &y_labeled, c, rng);
        let mut x_enc = encoder.encode(x);
        let pseudo = cfg.expand_train_set.then(|| encoder.head_argmax(&x_enc));
        x_enc.normalize_rows_l2();
        let z_all = concat_features(&row_stochastic(g, cfg.clip_p), &x_enc, cfg.alpha, &cfg.steps);
        let (rows, row_labels): (Vec<usize>, Vec<usize>) = match pseudo {
            Some(mut lbls) => {
                for &i in train_idx {
                    lbls[i] = labels[i];
                }
                ((0..n).collect(), lbls)
            }
            None => (train_idx.to_vec(), y_labeled),
        };
        let z_train = z_all.select_rows(&rows);
        let mut y = Mat::zeros(rows.len(), c);
        for (r, &label) in row_labels.iter().enumerate() {
            y.set(r, label, 1.0);
        }
        let loss = ConvexLoss::new(cfg.loss, c);
        let psi = psi_z_clipped(cfg.alpha, &cfg.steps, cfg.clip_p);
        let params = TheoremOneParams::compute(&CalibrationInput {
            eps,
            delta,
            omega: cfg.omega,
            lambda: cfg.lambda,
            n1: rows.len(),
            num_classes: c,
            dim: z_train.cols(),
            bounds: loss.bounds(),
            psi,
        });
        let b = sample_noise_matrix(z_train.cols(), c, params.beta, rng);
        let obj = PerturbedObjective::new(&z_train, &y, loss, params.lambda_total(), &b);
        let (theta, _, _) = minimize(&obj, Mat::zeros(z_train.cols(), c), &cfg.optimizer);
        (theta, rows.len())
    }

    /// Θ and n₁ are bitwise the copying replica's, with and without the
    /// expanded training set, for one scale (the feature matrix is the
    /// iterate itself) and for two.
    #[test]
    fn training_is_bitwise_the_copying_replica() {
        use crate::propagation::PropagationStep::Finite;
        let (g, x, labels, idx) = tiny_dataset(103);
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for expand_train_set in [true, false] {
            for steps in [vec![Finite(2)], vec![Finite(0), Finite(2)]] {
                let mut cfg = crate::GconConfig { expand_train_set, steps, ..Default::default() };
                cfg.encoder.epochs = 20;
                let (eps, delta) = (2.0, 1e-4);
                let model = train_gcon(
                    &cfg,
                    &g,
                    &x,
                    &labels,
                    &idx,
                    2,
                    eps,
                    delta,
                    &mut StdRng::seed_from_u64(104),
                );
                let (theta, n1) = copying_replica(
                    &cfg,
                    &g,
                    &x,
                    &labels,
                    &idx,
                    2,
                    (eps, delta),
                    &mut StdRng::seed_from_u64(104),
                );
                let case = format!("expand {expand_train_set}, steps {:?}", cfg.steps);
                assert_eq!(model.report.n1, n1, "{case}");
                assert_eq!(n1, if expand_train_set { g.num_nodes() } else { idx.len() });
                assert_eq!(bits(&model.theta), bits(&theta), "{case}");
            }
        }
    }

    #[test]
    fn clipped_training_reduces_reported_sensitivity() {
        let (g, x, labels, idx) = tiny_dataset(91);
        let fast = |clip_p: f64| {
            let mut cfg = crate::GconConfig { clip_p, ..Default::default() };
            cfg.encoder.epochs = 20;
            cfg.optimizer.max_iters = 200;
            let mut rng = StdRng::seed_from_u64(92);
            train_gcon(&cfg, &g, &x, &labels, &idx, 2, 1.0, 1e-4, &mut rng)
        };
        let unclipped = fast(0.5);
        let clipped = fast(0.2);
        // Ψ_p = 2p·Ψ: p = 0.2 must report the 0.4× sensitivity.
        assert!(
            (clipped.report.psi_z - 0.4 * unclipped.report.psi_z).abs() < 1e-12,
            "clipped Ψ {} vs 0.4 × unclipped {}",
            clipped.report.psi_z,
            0.4 * unclipped.report.psi_z
        );
        // Lower sensitivity → larger Erlang rate (less noise) at the same ε.
        assert!(clipped.report.params.beta > unclipped.report.params.beta);
    }

    /// Training runs one cold propagation, which no `PprSolver` changes:
    /// the same seed gives the same Θ and the same calibration under every
    /// solver.
    #[test]
    fn ppr_solver_does_not_change_training() {
        use crate::propagation::{PprSolver, PropagationStep};
        let (g, x, labels, idx) = tiny_dataset(95);
        let train = |solver: PprSolver| {
            let mut cfg = crate::GconConfig { ppr_solver: solver, ..Default::default() };
            cfg.steps = vec![PropagationStep::Finite(1), PropagationStep::Infinite];
            cfg.encoder.epochs = 20;
            cfg.optimizer.max_iters = 200;
            let mut rng = StdRng::seed_from_u64(96);
            train_gcon(&cfg, &g, &x, &labels, &idx, 2, 1.0, 1e-4, &mut rng)
        };
        let auto = train(PprSolver::Auto);
        for solver in [PprSolver::Power, PprSolver::Push] {
            let other = train(solver);
            assert_eq!(other.theta.as_slice(), auto.theta.as_slice(), "{solver:?}");
            assert_eq!(other.report.psi_z.to_bits(), auto.report.psi_z.to_bits(), "{solver:?}");
            assert_eq!(
                other.report.params.beta.to_bits(),
                auto.report.params.beta.to_bits(),
                "{solver:?}"
            );
        }
    }

    #[test]
    fn clipped_model_still_predicts_sanely() {
        let (g, x, labels, idx) = tiny_dataset(93);
        let mut cfg = crate::GconConfig { clip_p: 0.25, ..Default::default() };
        cfg.encoder.epochs = 40;
        cfg.optimizer.max_iters = 400;
        let mut rng = StdRng::seed_from_u64(94);
        let model = train_gcon(&cfg, &g, &x, &labels, &idx, 2, 4.0, 1e-4, &mut rng);
        let pred = crate::infer::public_predict(&model, &g, &x);
        let correct = (30..60).filter(|&i| pred[i] == labels[i]).count() as f64 / 30.0;
        assert!(correct > 0.5, "clipped-p accuracy {correct} at ε = 4 below chance");
    }

    /// Under the default `OptimizerConfig`, every released model carries the
    /// certificate `‖∇L_priv‖ ≤ 1e-10`.
    #[test]
    fn default_config_certifies_the_minimizer_for_both_losses() {
        let (g, x, labels, idx) = tiny_dataset(97);
        for loss in [LossKind::MultiLabelSoftMargin, LossKind::PseudoHuber { delta: 0.2 }] {
            let cfg = crate::GconConfig { loss, ..Default::default() };
            let mut rng = StdRng::seed_from_u64(98);
            let model = train_gcon(&cfg, &g, &x, &labels, &idx, 2, 1.0, 1e-4, &mut rng);
            assert!(
                model.final_grad_norm <= 1e-10,
                "{loss:?}: ‖∇‖ = {} after {} steps",
                model.final_grad_norm,
                model.opt_iterations
            );
        }
    }

    /// A model stopped after one Newton step is still within its reported
    /// bound of the exact minimizer (solved far tighter from the same seed).
    #[test]
    fn minimizer_distance_bound_covers_an_early_stop() {
        let (g, x, labels, idx) = tiny_dataset(99);
        let train = |optimizer: OptimizerConfig| {
            let mut cfg = crate::GconConfig { optimizer, ..Default::default() };
            cfg.encoder.epochs = 20;
            let mut rng = StdRng::seed_from_u64(100);
            train_gcon(&cfg, &g, &x, &labels, &idx, 2, 1.0, 1e-4, &mut rng)
        };
        let early = train(OptimizerConfig { max_iters: 1, ..Default::default() });
        let exact = train(OptimizerConfig { grad_tol: 1e-14, ..Default::default() });
        assert_eq!(early.opt_iterations, 1);
        assert!(early.final_grad_norm > 1e-10, "one step already converged: the test is void");
        let gap = ops::sub(&early.theta, &exact.theta).frobenius_norm();
        let bound = early.minimizer_distance_bound() + exact.minimizer_distance_bound();
        assert!(gap <= bound, "‖Θ − Θ*‖ = {gap} exceeds the certificate {bound}");
        assert!(exact.minimizer_distance_bound() < 1e-3 * early.minimizer_distance_bound());
    }
}
