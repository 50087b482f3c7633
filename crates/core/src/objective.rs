//! The perturbed objective `L_priv(Θ; Z, Y)` of Eq. (13), its gradient and
//! its per-class Hessian blocks.
//!
//! ```text
//! L_priv(Θ) = (1/n₁) Σ_i Σ_j ℓ(z_iᵀθ_j ; y_ij)
//!           + (Λ̄/2)‖Θ‖²_F + (1/n₁) B ⊙ Θ + (Λ′/2)‖Θ‖²_F
//! ```
//!
//! where `⊙` is element-wise product followed by a global sum (Frobenius
//! inner product). The gradient w.r.t. column `θ_j` is
//! `(1/n₁) Σ_i z_i ℓ'(z_iᵀθ_j; y_ij) + (Λ̄+Λ′)θ_j + b_j/n₁`, matching the
//! stationarity condition of Eq. (40) in the paper's analysis.

use crate::loss::ConvexLoss;
use gcon_linalg::{ops, parallel_zip, Mat};

/// Cost of one loss term (`ℓ` and `ℓ′`, or `ℓ″`: an `exp` and a `ln_1p`,
/// or a square root and a power) in multiply-adds of the dense kernels.
const LOSS_TERM_OPS: usize = 128;

/// The perturbed training objective, with everything fixed except `Θ`.
pub struct PerturbedObjective<'a> {
    /// Aggregate features of the labeled rows, `n₁ × d`.
    pub z: &'a Mat,
    /// One-hot labels, `n₁ × c`.
    pub y: &'a Mat,
    /// The convex per-coordinate loss.
    pub loss: ConvexLoss,
    /// `Λ̄ + Λ′` — total quadratic coefficient.
    pub lambda_total: f64,
    /// The noise matrix `B`, `d × c` (zero when Ψ(Z) = 0).
    pub b: &'a Mat,
}

impl<'a> PerturbedObjective<'a> {
    /// Validates dimensions and builds the objective.
    pub fn new(z: &'a Mat, y: &'a Mat, loss: ConvexLoss, lambda_total: f64, b: &'a Mat) -> Self {
        assert_eq!(z.rows(), y.rows(), "objective: Z/Y row mismatch");
        assert_eq!(b.rows(), z.cols(), "objective: B rows must equal d");
        assert_eq!(b.cols(), y.cols(), "objective: B cols must equal c");
        assert!(z.rows() > 0, "objective: empty training set");
        assert!(lambda_total > 0.0, "objective: Λ̄+Λ′ must be positive");
        Self { z, y, loss, lambda_total, b }
    }

    /// Number of labeled rows n₁.
    pub fn n1(&self) -> usize {
        self.z.rows()
    }

    /// Evaluates `(L_priv(Θ), ∇L_priv(Θ))` in one pass.
    pub fn value_and_grad(&self, theta: &Mat) -> (f64, Mat) {
        let n1 = self.n1() as f64;
        let scores = ops::matmul(self.z, theta); // n₁ × c
        let (all_s, all_y) = (scores.as_slice(), self.y.as_slice());
        // ℓ and ℓ′/n₁ of every score on the pool, then the loss terms
        // summed serially in row-major order.
        let mut dscores = Mat::zeros(scores.rows(), scores.cols());
        let mut terms = vec![0.0; all_s.len()];
        let work = terms.len() * LOSS_TERM_OPS;
        parallel_zip([dscores.as_mut_slice(), &mut terms], work, |[dc, tc], start| {
            let range = start..start + dc.len();
            let (s, y) = (&all_s[range.clone()], &all_y[range]);
            for (((d, t), &s), &y) in dc.iter_mut().zip(tc).zip(s).zip(y) {
                *t = self.loss.value(s, y);
                *d = self.loss.d1(s, y) / n1;
            }
        });
        let data_loss = terms.iter().fold(0.0, |acc, &t| acc + t);
        // ∇ = Zᵀ·dscores + λ_total·Θ + B/n₁
        let mut grad = ops::t_matmul(self.z, &dscores);
        ops::add_scaled_assign(&mut grad, self.lambda_total, theta);
        ops::add_scaled_assign(&mut grad, 1.0 / n1, self.b);
        let value = data_loss / n1
            + 0.5 * self.lambda_total * theta.frobenius_norm_sq()
            + ops::frobenius_inner(self.b, theta) / n1;
        (value, grad)
    }

    /// Gradient only.
    pub fn gradient(&self, theta: &Mat) -> Mat {
        self.value_and_grad(theta).1
    }

    /// The diagonal blocks of `∇²L_priv(Θ)`, one `d × d` block per class:
    ///
    /// ```text
    /// B_j = Zᵀ diag(ℓ″(Zθ_j; y_j)/n₁) Z + (Λ̄+Λ′) I_d
    /// ```
    ///
    /// This is Eq. (48) divided by n₁ ([`crate::verify::hessian_block`]).
    /// `ℓ` acts per coordinate, so the Hessian has no cross-class blocks.
    /// All `c` blocks come from one `Zᵀ·[W₁ | … | W_c]` with
    /// `W_j = diag(ℓ″(Zθ_j; y_j)/n₁) Z`, whose bits do not depend on the
    /// thread count or the kernel tier. The `n₁ × c·d` matrix of the `W_j`
    /// is never stored: [`ops::t_matmul_streamed`] takes it one sample block
    /// at a time, filled from the `ℓ″/n₁` weights.
    pub(crate) fn hessian_blocks(&self, theta: &Mat) -> Vec<Mat> {
        let n1 = self.n1() as f64;
        let (d, c) = theta.shape();
        let scores = ops::matmul(self.z, theta); // n₁ × c
        let (all_s, all_y) = (scores.as_slice(), self.y.as_slice());
        let mut weights = Mat::zeros(self.n1(), c);
        let work = all_s.len() * LOSS_TERM_OPS;
        parallel_zip([weights.as_mut_slice()], work, |[wc], start| {
            let (s, y) = (&all_s[start..], &all_y[start..]);
            for ((w, &s), &y) in wc.iter_mut().zip(s).zip(y) {
                *w = self.loss.d2(s, y) / n1;
            }
        });
        let all = ops::t_matmul_streamed(self.z, c * d, |start, rows| {
            for (i, wrows) in (start..).zip(rows.chunks_exact_mut(c * d)) {
                let zrow = self.z.row(i);
                for (wrow, &w) in wrows.chunks_exact_mut(d).zip(weights.row(i)) {
                    for (out, &zv) in wrow.iter_mut().zip(zrow) {
                        *out = w * zv;
                    }
                }
            }
        }); // d × (c·d)
        (0..c)
            .map(|j| {
                let mut block = Mat::from_fn(d, d, |a, b| all.get(a, j * d + b));
                for a in 0..d {
                    block.add_at(a, a, self.lambda_total);
                }
                block
            })
            .collect()
    }

    /// The rounding level of a computed `L_priv(Θ) = value`: the `√N · u`
    /// estimate for a sum of `N = n₁·c` terms (Higham, *Accuracy and
    /// Stability of Numerical Algorithms*, §4.2), relative to the sum of the
    /// terms' magnitudes. Every term but the noise term `⟨B, Θ⟩/n₁` is
    /// nonnegative, so that sum is `value − 2·min(⟨B, Θ⟩/n₁, 0)`. A change of
    /// `L_priv` below this level cannot be resolved.
    pub(crate) fn value_rounding(&self, theta: &Mat, value: f64) -> f64 {
        let noise_term = ops::frobenius_inner(self.b, theta) / self.n1() as f64;
        let magnitude = value - 2.0 * noise_term.min(0.0);
        ((self.n1() * self.y.cols()) as f64).sqrt() * f64::EPSILON * magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{ConvexLoss, LossKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (Mat, Mat, Mat) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut z = Mat::uniform(9, 5, 1.0, &mut rng);
        z.normalize_rows_l2();
        let mut y = Mat::zeros(9, 3);
        for i in 0..9 {
            y.set(i, i % 3, 1.0);
        }
        let b = Mat::uniform(5, 3, 0.5, &mut rng);
        (z, y, b)
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (z, y, b) = setup(61);
        for kind in [LossKind::MultiLabelSoftMargin, LossKind::PseudoHuber { delta: 0.3 }] {
            let loss = ConvexLoss::new(kind, 3);
            let obj = PerturbedObjective::new(&z, &y, loss, 0.7, &b);
            let mut rng = StdRng::seed_from_u64(62);
            let theta = Mat::uniform(5, 3, 1.0, &mut rng);
            let (_, grad) = obj.value_and_grad(&theta);
            let h = 1e-6;
            for i in 0..5 {
                for j in 0..3 {
                    let mut tp = theta.clone();
                    tp.add_at(i, j, h);
                    let mut tm = theta.clone();
                    tm.add_at(i, j, -h);
                    let fd = (obj.value_and_grad(&tp).0 - obj.value_and_grad(&tm).0) / (2.0 * h);
                    assert!(
                        (fd - grad.get(i, j)).abs() < 1e-6,
                        "{kind:?} grad[{i}][{j}]: fd {fd} vs {}",
                        grad.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn objective_is_convex_along_segments() {
        let (z, y, b) = setup(63);
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        let obj = PerturbedObjective::new(&z, &y, loss, 0.5, &b);
        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..10 {
            let t1 = Mat::uniform(5, 3, 2.0, &mut rng);
            let t2 = Mat::uniform(5, 3, 2.0, &mut rng);
            let mid = ops::scale(&ops::add(&t1, &t2), 0.5);
            assert!(
                obj.value_and_grad(&mid).0
                    <= 0.5 * obj.value_and_grad(&t1).0 + 0.5 * obj.value_and_grad(&t2).0 + 1e-12,
                "convexity violated"
            );
        }
    }

    #[test]
    fn strong_convexity_margin() {
        // L_priv − (λ/2)‖Θ‖² is still convex, so along segments the strong
        // convexity inequality with modulus λ must hold.
        let (z, y, b) = setup(65);
        let lambda = 0.8;
        let loss = ConvexLoss::new(LossKind::PseudoHuber { delta: 0.2 }, 3);
        let obj = PerturbedObjective::new(&z, &y, loss, lambda, &b);
        let mut rng = StdRng::seed_from_u64(66);
        let t1 = Mat::uniform(5, 3, 1.0, &mut rng);
        let t2 = Mat::uniform(5, 3, 1.0, &mut rng);
        let mid = ops::scale(&ops::add(&t1, &t2), 0.5);
        let diff = ops::sub(&t1, &t2);
        let lhs = obj.value_and_grad(&mid).0;
        let rhs = 0.5 * obj.value_and_grad(&t1).0 + 0.5 * obj.value_and_grad(&t2).0
            - lambda / 8.0 * diff.frobenius_norm_sq();
        assert!(lhs <= rhs + 1e-12, "strong convexity violated: {lhs} > {rhs}");
    }

    #[test]
    fn hessian_blocks_match_the_eq48_oracle() {
        let (z, y, b) = setup(68);
        for kind in [LossKind::MultiLabelSoftMargin, LossKind::PseudoHuber { delta: 0.3 }] {
            let loss = ConvexLoss::new(kind, 3);
            let obj = PerturbedObjective::new(&z, &y, loss, 0.7, &b);
            let mut rng = StdRng::seed_from_u64(69);
            let theta = Mat::uniform(5, 3, 1.0, &mut rng);
            let blocks = obj.hessian_blocks(&theta);
            assert_eq!(blocks.len(), 3);
            for (j, block) in blocks.iter().enumerate() {
                let oracle = crate::verify::hessian_block(&z, &y, &loss, 0.7, &theta, j);
                for (a, o) in block.as_slice().iter().zip(oracle.as_slice()) {
                    assert!((a - o / 9.0).abs() < 1e-12, "{kind:?} block {j}: {a} vs {}", o / 9.0);
                }
            }
        }
    }

    /// `value_and_grad` and `hessian_blocks` with the loss terms computed
    /// one element at a time in row-major order, as before they ran on the
    /// pool.
    fn serial_reference(obj: &PerturbedObjective, theta: &Mat) -> (f64, Mat, Vec<Mat>) {
        let n1 = obj.n1() as f64;
        let (d, c) = theta.shape();
        let scores = ops::matmul(obj.z, theta);
        let mut data_loss = 0.0;
        let mut dscores = Mat::zeros(scores.rows(), scores.cols());
        let mut weighted = Mat::zeros(obj.n1(), c * d);
        for i in 0..obj.n1() {
            for j in 0..c {
                let (s, y) = (scores.get(i, j), obj.y.get(i, j));
                data_loss += obj.loss.value(s, y);
                dscores.set(i, j, obj.loss.d1(s, y) / n1);
                let w = obj.loss.d2(s, y) / n1;
                for a in 0..d {
                    weighted.set(i, j * d + a, w * obj.z.get(i, a));
                }
            }
        }
        let mut grad = ops::t_matmul(obj.z, &dscores);
        ops::add_scaled_assign(&mut grad, obj.lambda_total, theta);
        ops::add_scaled_assign(&mut grad, 1.0 / n1, obj.b);
        let value = data_loss / n1
            + 0.5 * obj.lambda_total * theta.frobenius_norm_sq()
            + ops::frobenius_inner(obj.b, theta) / n1;
        let all = ops::t_matmul(obj.z, &weighted);
        let blocks = (0..c)
            .map(|j| {
                let mut block = Mat::from_fn(d, d, |a, b| all.get(a, j * d + b));
                for a in 0..d {
                    block.add_at(a, a, obj.lambda_total);
                }
                block
            })
            .collect();
        (value, grad, blocks)
    }

    /// The value, the gradient and the Hessian blocks are bitwise the
    /// serial reference's, for both losses: on the small setup (inline), on
    /// `n₁ · c` loss terms enough for the pool, and on a training set whose
    /// second `TM_IB` sample block is mostly zeros, so the Hessian's
    /// streamed product takes its skip loop there.
    #[test]
    fn pooled_loss_terms_are_bitwise_the_serial_reference() {
        let (n1, d, c) = (1001, 16, 3);
        assert!(n1 * c * LOSS_TERM_OPS >= gcon_linalg::PAR_THRESHOLD, "loss terms run on the pool");
        assert!(n1 * d * c * d >= gcon_linalg::PAR_THRESHOLD, "the Hessian's product too");
        let mut rng = StdRng::seed_from_u64(70);
        let mut dense: Mat = Mat::uniform(n1, d, 1.0, &mut rng);
        dense.normalize_rows_l2();
        let mut sparse_block: Mat = Mat::uniform(n1, d, 1.0, &mut rng);
        for i in ops::TM_IB..2 * ops::TM_IB {
            sparse_block.row_mut(i).iter_mut().filter(|v| v.abs() < 0.9).for_each(|v| *v = 0.0);
        }
        sparse_block.normalize_rows_l2();
        let sampled = (ops::TM_IB..2 * ops::TM_IB).step_by(ops::TM_SPARSITY_SAMPLE_STRIDE);
        let zeros: usize =
            sampled.map(|i| sparse_block.row(i).iter().filter(|&&v| v == 0.0).count()).sum();
        let scanned = ops::TM_IB / ops::TM_SPARSITY_SAMPLE_STRIDE * d;
        assert!(zeros as f64 > ops::TM_SKIP_ZERO_FRAC * scanned as f64, "a skip block");
        let y = Mat::from_fn(n1, c, |i, j| (i % c == j) as u8 as f64);
        let b = Mat::uniform(d, c, 0.5, &mut rng);
        let (small_z, small_y, small_b) = setup(72);
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let inputs = [(&small_z, &small_y, &small_b), (&dense, &y, &b), (&sparse_block, &y, &b)];
        for (z, y, b) in inputs {
            let theta = Mat::uniform(z.cols(), y.cols(), 3.0, &mut rng);
            for kind in [LossKind::MultiLabelSoftMargin, LossKind::PseudoHuber { delta: 0.3 }] {
                let obj = PerturbedObjective::new(z, y, ConvexLoss::new(kind, y.cols()), 0.7, b);
                let (value, grad) = obj.value_and_grad(&theta);
                let (want_value, want_grad, want_blocks) = serial_reference(&obj, &theta);
                let n1 = obj.n1();
                assert_eq!(value.to_bits(), want_value.to_bits(), "{kind:?} n₁ = {n1} value");
                assert_eq!(bits(&grad), bits(&want_grad), "{kind:?} n₁ = {n1} gradient");
                let blocks = obj.hessian_blocks(&theta);
                for (j, (got, want)) in blocks.iter().zip(&want_blocks).enumerate() {
                    assert_eq!(bits(got), bits(want), "{kind:?} n₁ = {n1} block {j}");
                }
            }
        }
    }

    #[test]
    fn noise_term_shifts_gradient_linearly() {
        let (z, y, _) = setup(67);
        let loss = ConvexLoss::new(LossKind::MultiLabelSoftMargin, 3);
        let zero = Mat::zeros(5, 3);
        let b = Mat::full(5, 3, 2.0);
        let theta = Mat::zeros(5, 3);
        let g0 = PerturbedObjective::new(&z, &y, loss, 0.5, &zero).gradient(&theta);
        let gb = PerturbedObjective::new(&z, &y, loss, 0.5, &b).gradient(&theta);
        let n1 = 9.0;
        for (a, b_) in g0.as_slice().iter().zip(gb.as_slice()) {
            assert!((b_ - a - 2.0 / n1).abs() < 1e-12);
        }
    }
}
