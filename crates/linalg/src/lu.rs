#![allow(clippy::needless_range_loop)] // index-parallel loops mirror the math
//! LU decomposition with partial pivoting, and the dense solve / inverse /
//! determinant routines built on it.
//!
//! The GCON pipeline needs these in two places:
//!
//! 1. **Exact PPR.** The paper's PPR propagation matrix is
//!    `R∞ = α (I − (1−α) Ã)⁻¹` (Eq. 5). The production path never
//!    materializes this inverse (it runs the fixed-point recursion), but the
//!    test suite cross-validates the recursion against the exact dense
//!    inverse on small graphs, which requires a dense LU solve.
//! 2. **Theorem-1 verification.** `gcon-core::verify` computes the Jacobian
//!    matrices `B₁ = Σ zᵢzᵢᵀ ℓ″ + n₁(Λ+Λ′)I` of Lemma 7 numerically and needs
//!    determinants and inverses of small dense matrices.

use crate::Mat;

/// A partial-pivoting LU factorization `P·A = L·U` of a square matrix.
///
/// `L` is unit lower triangular and `U` upper triangular; both are packed
/// into a single matrix (`L` strictly below the diagonal, `U` on and above).
/// `perm` records the row permutation; `sign` is the permutation's parity
/// (+1.0 or −1.0), used for the determinant.
#[derive(Debug, Clone)]
pub struct Lu {
    packed: Mat,
    perm: Vec<usize>,
    sign: f64,
    singular: bool,
}

/// Relative pivot threshold below which the matrix is declared singular.
const PIVOT_TOL: f64 = 1e-13;

impl Lu {
    /// Factorizes a square matrix. Panics if `a` is not square.
    pub fn new(a: &Mat) -> Self {
        assert_eq!(a.rows(), a.cols(), "Lu::new requires a square matrix");
        let n = a.rows();
        let mut packed = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let mut singular = false;

        // Scale factor per row for scaled partial pivoting: guards against
        // badly row-scaled inputs (the Theorem-1 Hessians mix n1·Λ terms with
        // O(1) feature outer products).
        let scales: Vec<f64> = (0..n)
            .map(|i| {
                let s = packed.row(i).iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();

        for k in 0..n {
            // Find the pivot row by scaled magnitude.
            let mut pivot_row = k;
            let mut pivot_mag = packed.get(k, k).abs() / scales[perm[k]];
            for i in (k + 1)..n {
                let mag = packed.get(i, k).abs() / scales[perm[i]];
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = packed.get(k, j);
                    packed.set(k, j, packed.get(pivot_row, j));
                    packed.set(pivot_row, j, tmp);
                }
                perm.swap(k, pivot_row);
                sign = -sign;
            }
            let pivot = packed.get(k, k);
            if pivot.abs() <= PIVOT_TOL * scales[perm[k]] {
                singular = true;
                continue;
            }
            for i in (k + 1)..n {
                let factor = packed.get(i, k) / pivot;
                packed.set(i, k, factor);
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let v = packed.get(i, j) - factor * packed.get(k, j);
                        packed.set(i, j, v);
                    }
                }
            }
        }

        Self { packed, perm, sign, singular }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.packed.rows()
    }

    /// True when a pivot collapsed below tolerance during factorization.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Determinant of the original matrix: `sign · Π U_kk`.
    pub fn det(&self) -> f64 {
        if self.singular {
            return 0.0;
        }
        let n = self.dim();
        let mut d = self.sign;
        for k in 0..n {
            d *= self.packed.get(k, k);
        }
        d
    }

    /// Log of the absolute determinant, `Σ ln |U_kk|`, which stays finite on
    /// matrices whose determinant under/overflows f64 (the `dc × dc` block
    /// Jacobians of Lemma 7 routinely do).
    ///
    /// Returns `f64::NEG_INFINITY` for singular matrices.
    pub fn ln_abs_det(&self) -> f64 {
        if self.singular {
            return f64::NEG_INFINITY;
        }
        let n = self.dim();
        let mut s = 0.0;
        for k in 0..n {
            s += self.packed.get(k, k).abs().ln();
        }
        s
    }

    /// Solves `A x = b` for a single right-hand side. Returns `None` if the
    /// factorization found the matrix singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        if self.singular {
            return None;
        }
        let n = self.dim();
        assert_eq!(b.len(), n, "rhs length must match matrix dimension");
        // Apply the permutation, then forward- and back-substitute.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.packed.get(i, j) * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.packed.get(i, j) * x[j];
            }
            x[i] = s / self.packed.get(i, i);
        }
        Some(x)
    }

    /// Solves `A X = B` column by column.
    pub fn solve_mat(&self, b: &Mat) -> Option<Mat> {
        if self.singular {
            return None;
        }
        let n = self.dim();
        assert_eq!(b.rows(), n, "rhs rows must match matrix dimension");
        let mut out = Mat::zeros(n, b.cols());
        let mut col = vec![0.0; n];
        for j in 0..b.cols() {
            for i in 0..n {
                col[i] = b.get(i, j);
            }
            let x = self.solve(&col)?;
            for i in 0..n {
                out.set(i, j, x[i]);
            }
        }
        Some(out)
    }

    /// Inverse of the original matrix, or `None` if singular.
    pub fn inverse(&self) -> Option<Mat> {
        self.solve_mat(&Mat::eye(self.dim()))
    }
}

/// Convenience wrapper: determinant of a square matrix.
pub fn det(a: &Mat) -> f64 {
    Lu::new(a).det()
}

/// Convenience wrapper: inverse of a square matrix, `None` if singular.
pub fn inverse(a: &Mat) -> Option<Mat> {
    Lu::new(a).inverse()
}

/// Convenience wrapper: solve `A x = b`, `None` if singular.
pub fn lu_solve(a: &Mat, b: &[f64]) -> Option<Vec<f64>> {
    Lu::new(a).solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;
    use crate::{approx_eq, TEST_TOL};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_factors_trivially() {
        let lu = Lu::new(&Mat::eye(4));
        assert!(!lu.is_singular());
        assert!(approx_eq(lu.det(), 1.0, TEST_TOL));
        let inv = lu.inverse().unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(inv.get(i, j), want, TEST_TOL));
            }
        }
    }

    #[test]
    fn det_of_known_2x2() {
        let a = Mat::from_rows(&[&[3.0, 1.0], &[2.0, 4.0]]);
        assert!(approx_eq(det(&a), 10.0, 1e-12));
    }

    #[test]
    fn det_of_permutation_matrix_is_signed() {
        // A single row swap of I has determinant −1.
        let a = Mat::from_rows(&[&[0.0, 1.0, 0.0], &[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]]);
        assert!(approx_eq(det(&a), -1.0, 1e-12));
    }

    #[test]
    fn solve_matches_manual_solution() {
        // 2x + y = 5 ; x + 3y = 10 → x = 1, y = 3.
        let a = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = lu_solve(&a, &[5.0, 10.0]).unwrap();
        assert!(approx_eq(x[0], 1.0, 1e-12));
        assert!(approx_eq(x[1], 3.0, 1e-12));
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let lu = Lu::new(&a);
        assert!(lu.is_singular());
        assert_eq!(lu.det(), 0.0);
        assert!(lu.inverse().is_none());
        assert!(lu.solve(&[1.0, 1.0]).is_none());
    }

    #[test]
    fn inverse_times_original_is_identity_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 5, 8, 13] {
            // Diagonally dominated random matrix: always invertible.
            let mut a = Mat::gaussian(n, n, 1.0, &mut rng);
            for i in 0..n {
                a.add_at(i, i, n as f64 + 1.0);
            }
            let inv = inverse(&a).unwrap();
            let prod = matmul(&a, &inv);
            for i in 0..n {
                for j in 0..n {
                    let want = if i == j { 1.0 } else { 0.0 };
                    assert!(
                        approx_eq(prod.get(i, j), want, 1e-8),
                        "n={n} ({i},{j}) got {}",
                        prod.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn ln_abs_det_matches_det_on_well_scaled_matrix() {
        let a = Mat::from_rows(&[&[2.0, 1.0, 0.0], &[1.0, 3.0, 1.0], &[0.0, 1.0, 4.0]]);
        let lu = Lu::new(&a);
        assert!(approx_eq(lu.ln_abs_det(), lu.det().abs().ln(), 1e-12));
    }

    #[test]
    fn ln_abs_det_survives_overflowing_determinant() {
        // det = (1e200)^2 overflows f64; ln|det| must stay finite.
        let n = 2;
        let mut a = Mat::zeros(n, n);
        a.set(0, 0, 1e200);
        a.set(1, 1, 1e200);
        let lu = Lu::new(&a);
        assert!(lu.det().is_infinite());
        assert!(approx_eq(lu.ln_abs_det(), 2.0 * (1e200f64).ln(), 1e-6));
    }

    #[test]
    fn solve_mat_handles_multiple_rhs() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let x = Lu::new(&a).solve_mat(&b).unwrap();
        let prod = matmul(&a, &x);
        for i in 0..2 {
            for j in 0..2 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(approx_eq(prod.get(i, j), want, 1e-12));
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu_solve(&a, &[2.0, 3.0]).unwrap();
        assert!(approx_eq(x[0], 3.0, 1e-12));
        assert!(approx_eq(x[1], 2.0, 1e-12));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_panics() {
        Lu::new(&Mat::zeros(2, 3));
    }

    #[test]
    fn solve_handles_nonsymmetric_systems() {
        let a = Mat::from_rows(&[&[4.0, 1.0, 0.0], &[2.0, 5.0, 1.0], &[0.0, 3.0, 6.0]]);
        let want = [1.0, -2.0, 3.0];
        let b: Vec<f64> = (0..3).map(|i| (0..3).map(|j| a.get(i, j) * want[j]).sum()).collect();
        let x = lu_solve(&a, &b).unwrap();
        for (xi, wi) in x.iter().zip(want) {
            assert!(approx_eq(*xi, wi, 1e-12), "{xi} vs {wi}");
        }
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let a = Mat::from_rows(&[&[2.0, -1.0], &[1.0, 3.0]]);
        assert_eq!(lu_solve(&a, &[0.0, 0.0]).unwrap(), vec![0.0, 0.0]);
    }

    /// The solution's true residual `‖Ax − b‖_max` is at rounding level on
    /// random well-conditioned systems of several sizes.
    #[test]
    fn residual_is_small_on_random_systems() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [1usize, 4, 9, 20] {
            let mut a = Mat::gaussian(n, n, 1.0, &mut rng);
            for i in 0..n {
                a.add_at(i, i, n as f64 + 1.0);
            }
            let b = Mat::gaussian(n, 1, 1.0, &mut rng).col(0);
            let x = lu_solve(&a, &b).unwrap();
            for (i, &bi) in b.iter().enumerate() {
                let ax: f64 = (0..n).map(|j| a.get(i, j) * x[j]).sum();
                assert!(approx_eq(ax, bi, 1e-10), "n={n} row {i}: {ax} vs {bi}");
            }
        }
    }

    /// `solve_mat` is column-for-column the single-rhs `solve`, bitwise.
    #[test]
    fn solve_mat_matches_column_by_column_solve() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 7;
        let mut a = Mat::gaussian(n, n, 1.0, &mut rng);
        for i in 0..n {
            a.add_at(i, i, 8.0);
        }
        let b = Mat::gaussian(n, 4, 1.0, &mut rng);
        let lu = Lu::new(&a);
        let x = lu.solve_mat(&b).unwrap();
        for j in 0..4 {
            let col = lu.solve(&b.col(j)).unwrap();
            for (i, v) in col.iter().enumerate() {
                assert_eq!(x.get(i, j).to_bits(), v.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_mat_of_an_empty_block_is_empty() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x = Lu::new(&a).solve_mat(&Mat::zeros(2, 0)).unwrap();
        assert_eq!(x.shape(), (2, 0));
    }

    #[test]
    #[should_panic(expected = "rhs length must match")]
    fn rhs_length_mismatch_panics() {
        let _ = lu_solve(&Mat::eye(3), &[1.0, 2.0]);
    }

    #[test]
    fn det_is_multiplicative() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in [2usize, 3, 6] {
            let a = Mat::gaussian(n, n, 1.0, &mut rng);
            let b = Mat::gaussian(n, n, 1.0, &mut rng);
            let (da, db, dab) = (det(&a), det(&b), det(&matmul(&a, &b)));
            assert!(
                (dab - da * db).abs() <= 1e-9 * (da * db).abs().max(1.0),
                "n={n}: det(AB) {dab} vs det(A)det(B) {}",
                da * db
            );
        }
    }
}
