//! The dense row-major matrix type.

use crate::scalar::Scalar;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense row-major `rows × cols` matrix, generic over the element
/// [`Scalar`] (default `f64`, so `Mat` written without a parameter is the
/// double-precision matrix the rest of the workspace trains with; `Mat<f32>`
/// is the half-width serving-store variant).
///
/// Row-major layout means `self.row(i)` is a contiguous `&[S]`, which is the
/// access pattern used by graph convolution (`Z[i] = Σ_j Ã_ij X[j]`), loss
/// evaluation (per-node dot products `z_iᵀ θ_j`), and the noise/regularizer
/// terms of the perturbed objective (Eq. 13 of the paper).
///
/// The random constructors ([`Mat::uniform`], [`Mat::gaussian`]) always
/// sample in `f64` and narrow via [`Scalar::from_f64`], so a seeded RNG
/// produces the same stream regardless of the element type.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Mat<S: Scalar = f64> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> Mat<S> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![S::ZERO; rows * cols] }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: S) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, S::ONE);
        }
        m
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Mat::from_vec: data length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (test convenience).
    pub fn from_rows(rows: &[&[S]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "Mat::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Fills a matrix with i.i.d. samples from `U(-scale, scale)`, sampled
    /// in `f64` (identical RNG stream for every element type).
    pub fn uniform<R: Rng + ?Sized>(rows: usize, cols: usize, scale: f64, rng: &mut R) -> Self {
        let data = (0..rows * cols).map(|_| S::from_f64(rng.gen_range(-scale..scale))).collect();
        Self { rows, cols, data }
    }

    /// Fills a matrix with i.i.d. standard-normal samples scaled by `std`,
    /// sampled in `f64` (identical RNG stream for every element type).
    pub fn gaussian<R: Rng + ?Sized>(rows: usize, cols: usize, std: f64, rng: &mut R) -> Self {
        let data = (0..rows * cols)
            .map(|_| S::from_f64(crate::vecops::sample_std_normal(rng) * std))
            .collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> S {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Mutable element access.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: S) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to element `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: S) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[S] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [S] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a new vector (columns are strided).
    pub fn col(&self, j: usize) -> Vec<S> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// The flat row-major backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// The flat row-major backing slice, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Reshapes to `rows × cols` and zero-fills, reusing the backing
    /// allocation whenever its capacity suffices. This is the entry point of
    /// every `_into` kernel: an output buffer threaded through a training
    /// loop reaches its steady-state capacity once and is never reallocated
    /// again.
    pub fn reset_to_zeros(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, S::ZERO);
    }

    /// Makes `self` an element-wise copy of `src` (shape included), reusing
    /// the backing allocation whenever its capacity suffices.
    pub fn copy_from(&mut self, src: &Mat<S>) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Element-wise conversion to another [`Scalar`] (through `f64`, so
    /// `f64 → f32` rounds to nearest once and `f32 → f64` is exact). The
    /// one-time down-conversion behind `gcon-serve`'s f32 feature store.
    pub fn convert<T: Scalar>(&self) -> Mat<T> {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| T::from_f64(v.to_f64())).collect(),
        }
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[S]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(S) -> S) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Returns a new matrix with `f` applied element-wise.
    pub fn map(&self, f: impl Fn(S) -> S) -> Self {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
        out
    }

    /// Extracts the sub-matrix consisting of the given rows, in order.
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::default();
        self.select_rows_into(indices, &mut out);
        out
    }

    /// [`Mat::select_rows`] written into `out` (reshaped, buffer reused).
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Self) {
        out.reset_to_zeros(indices.len(), self.cols);
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
    }

    /// Copies `src` into the column block `[col_offset, col_offset + src.cols())`
    /// of `self` (same row count). The block-write primitive behind
    /// single-pass multi-scale propagation: each scale is snapshotted into
    /// its slot of the concatenated output without intermediate matrices.
    pub fn copy_into_columns(&mut self, col_offset: usize, src: &Mat<S>) {
        assert_eq!(self.rows, src.rows, "copy_into_columns: row mismatch");
        assert!(
            col_offset + src.cols <= self.cols,
            "copy_into_columns: block [{}, {}) exceeds {} columns",
            col_offset,
            col_offset + src.cols,
            self.cols
        );
        for i in 0..self.rows {
            let dst = &mut self.row_mut(i)[col_offset..col_offset + src.cols];
            dst.copy_from_slice(src.row(i));
        }
    }

    /// Horizontally concatenates `self` and `other` (same row count).
    pub fn hcat(&self, other: &Mat<S>) -> Self {
        assert_eq!(self.rows, other.rows, "hcat: row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Self::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// Horizontally concatenates a list of matrices with identical row counts.
    pub fn hcat_all(parts: &[&Mat<S>]) -> Self {
        assert!(!parts.is_empty(), "hcat_all: empty input");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|m| m.cols).sum();
        let mut out = Self::zeros(rows, cols);
        for i in 0..rows {
            let mut off = 0;
            for m in parts {
                assert_eq!(m.rows, rows, "hcat_all: row mismatch");
                out.row_mut(i)[off..off + m.cols].copy_from_slice(m.row(i));
                off += m.cols;
            }
        }
        out
    }

    /// Frobenius norm `‖M‖_F`, accumulated in the element dtype.
    pub fn frobenius_norm(&self) -> S {
        self.frobenius_norm_sq().sqrt()
    }

    /// Squared Frobenius norm, accumulated in the element dtype.
    pub fn frobenius_norm_sq(&self) -> S {
        self.data.iter().fold(S::ZERO, |acc, &v| acc + v * v)
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> S {
        self.data.iter().fold(S::ZERO, |acc, &v| if v.abs() > acc { v.abs() } else { acc })
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Normalizes each row to unit L2 norm; rows with zero norm are left
    /// untouched. This is the pre-propagation normalization of Sec. IV-C3.
    pub fn normalize_rows_l2(&mut self) {
        for i in 0..self.rows {
            let row = self.row_mut(i);
            let norm = row.iter().fold(S::ZERO, |acc, &v| acc + v * v).sqrt();
            if norm > S::ZERO {
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
        }
    }
}

impl<S: Scalar> Default for Mat<S> {
    /// The empty `0 × 0` matrix — the canonical starting state of a
    /// reusable buffer (every `_into` kernel reshapes it on first use).
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

impl<S: Scalar> fmt::Debug for Mat<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat<{}> {}x{} [", S::DTYPE, self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let row = self.row(i);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:.4}")).collect();
            writeln!(f, "  [{}{}]", cells.join(", "), if self.cols > 8 { ", …" } else { "" })?;
        }
        if self.rows > show {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_shape() {
        let m: Mat = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn eye_diagonal() {
        let m: Mat = Mat::eye(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_bad_len_panics() {
        let _ = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t.get(4, 2), m.get(2, 4));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn hcat_shapes_and_values() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0], &[6.0]]);
        let c = a.hcat(&b);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        assert_eq!(c.row(1), &[3.0, 4.0, 6.0]);
    }

    #[test]
    fn hcat_all_three_parts() {
        let a = Mat::from_rows(&[&[1.0], &[2.0]]);
        let b = Mat::from_rows(&[&[3.0], &[4.0]]);
        let c = Mat::from_rows(&[&[5.0], &[6.0]]);
        let m = Mat::hcat_all(&[&a, &b, &c]);
        assert_eq!(m.row(0), &[1.0, 3.0, 5.0]);
        assert_eq!(m.row(1), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn select_rows_orders() {
        let m = Mat::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.row(0), m.row(2));
        assert_eq!(s.row(1), m.row(0));
    }

    #[test]
    fn normalize_rows_unit_norm() {
        let mut m = Mat::from_rows(&[&[3.0, 4.0], &[0.0, 0.0], &[1.0, 0.0]]);
        m.normalize_rows_l2();
        assert!((m.row(0)[0] - 0.6).abs() < 1e-12);
        assert!((m.row(0)[1] - 0.8).abs() < 1e-12);
        assert_eq!(m.row(1), &[0.0, 0.0]); // zero row untouched
        assert_eq!(m.row(2), &[1.0, 0.0]);
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!((m.frobenius_norm() - 25.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn gaussian_matrix_is_seeded_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a: Mat = Mat::gaussian(5, 5, 1.0, &mut r1);
        let b: Mat = Mat::gaussian(5, 5, 1.0, &mut r2);
        assert_eq!(a, b);
    }

    /// The random constructors consume the RNG identically for both dtypes,
    /// and the f32 matrix is the rounded f64 one.
    #[test]
    fn random_constructors_share_one_rng_stream_across_dtypes() {
        let mut r1 = StdRng::seed_from_u64(11);
        let mut r2 = StdRng::seed_from_u64(11);
        let a64: Mat<f64> = Mat::uniform(4, 3, 1.0, &mut r1);
        let a32: Mat<f32> = Mat::uniform(4, 3, 1.0, &mut r2);
        assert_eq!(a32, a64.convert::<f32>());
        // The streams stay in lockstep after the first draw.
        let b64: Mat<f64> = Mat::gaussian(2, 2, 0.5, &mut r1);
        let b32: Mat<f32> = Mat::gaussian(2, 2, 0.5, &mut r2);
        assert_eq!(b32, b64.convert::<f32>());
    }

    #[test]
    fn convert_roundtrip_exact_from_f32() {
        let m32: Mat<f32> = Mat::from_fn(3, 3, |i, j| (i as f32 + 0.5) * (j as f32 - 1.25));
        let up = m32.convert::<f64>();
        assert_eq!(up.convert::<f32>(), m32);
        assert_eq!(up.shape(), m32.shape());
    }

    #[test]
    fn f32_mat_basic_ops() {
        let mut m: Mat<f32> = Mat::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]);
        m.normalize_rows_l2();
        assert!((m.get(0, 0) - 0.6).abs() < 1e-6);
        assert!(m.is_finite());
        assert_eq!(Mat::<f32>::eye(2).get(1, 1), 1.0);
        assert!((Mat::<f32>::from_rows(&[&[3.0, 4.0]]).frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn map_and_map_inplace_agree() {
        let m = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let doubled = m.map(|v| v * 2.0);
        let mut m2 = m.clone();
        m2.map_inplace(|v| v * 2.0);
        assert_eq!(doubled, m2);
    }

    #[test]
    fn col_extraction() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.col(1), vec![2.0, 4.0, 6.0]);
    }
}
