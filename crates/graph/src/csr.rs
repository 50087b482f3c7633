//! Compressed sparse row matrices and the threaded sparse×dense product that
//! implements every graph-convolution step in the workspace.
//!
//! [`Csr`] is generic over the element dtype through [`CsrScalar`] (an
//! extension of `gcon_linalg`'s sealed [`Scalar`] — f64 + f32, with f64 as
//! the default type parameter so `Csr` written bare is the double-precision
//! matrix the training pipeline uses). As in `gcon-linalg`,
//! `#[target_feature]` cannot apply to generic functions, so each dtype gets
//! its own concrete dispatch stack around a shared `#[inline(always)]`
//! generic body; the [`CsrScalar`] hooks bind the generic methods to them.
//!
//! Every sparse product ([`Csr::spmm`]/[`Csr::spmm_into`]) increments a
//! process-wide counter exposed by [`spmm_ops_performed`]. Counting at the
//! kernel layer (rather than at call sites) means no product can escape the
//! accounting: the op-count acceptance tests for single-pass propagation
//! read deltas of this counter.

use gcon_linalg::{Mat, Scalar};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Running count of sparse products (`spmm`) performed in this process (all
/// threads).
static SPMM_OPS: AtomicU64 = AtomicU64::new(0);

/// Total sparse products performed since process start. A
/// `Csr::spmm`/`spmm_into` call counts 1 (one sparse×dense product, whatever
/// the dense width).
pub fn spmm_ops_performed() -> usize {
    SPMM_OPS.load(Ordering::Relaxed) as usize
}

/// The element dtype of a [`Csr`] matrix: `gcon_linalg`'s sealed [`Scalar`]
/// (f64 + f32) extended with the CSR kernel hooks.
///
/// Like the dense kernel hooks on [`Scalar`], these bind the generic `Csr`
/// methods to concrete per-dtype functions compiled through
/// [`gcon_runtime::tier_dispatch!`] — implementation plumbing, not a
/// user-facing API; call the `Csr` methods instead.
pub trait CsrScalar: Scalar {
    /// Tier-dispatched row-block stage of [`Csr::spmm_into`].
    fn kernel_spmm_block(sp: &Csr<Self>, b: &Mat<Self>, out: &mut [Self], start: usize, end: usize);
}

/// A sparse matrix in compressed sparse row format, generic over the
/// element [`CsrScalar`] (default `f64`).
///
/// Used for the normalized adjacency `Ã` so that one propagation step
/// `Z ← Ã Z` costs O(nnz · d) instead of O(n² · d). The paper never needs the
/// dense `R_m` (Eq. 9) explicitly — `gcon-core` carries `Z_m = R_m X` through
/// the recursion `Z_m = (1-α) Ã Z_{m-1} + α X`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Csr<S: CsrScalar = f64> {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<S>,
}

impl<S: CsrScalar> Csr<S> {
    /// Builds a CSR matrix from per-row `(column, value)` pairs. Pairs within
    /// a row need not be sorted; duplicates are summed.
    pub fn from_row_entries(rows: usize, cols: usize, row_entries: Vec<Vec<(u32, S)>>) -> Self {
        assert_eq!(row_entries.len(), rows, "from_row_entries: row count mismatch");
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for mut entries in row_entries {
            entries.sort_unstable_by_key(|&(j, _)| j);
            let mut last: Option<u32> = None;
            for (j, v) in entries {
                assert!((j as usize) < cols, "from_row_entries: column {j} out of range");
                if last == Some(j) {
                    *values.last_mut().unwrap() += v;
                } else {
                    indices.push(j);
                    values.push(v);
                    last = Some(j);
                }
            }
            indptr.push(indices.len());
        }
        Self { rows, cols, indptr, indices, values }
    }

    /// Rebuilds the matrix with the given rows replaced — and, when
    /// `new_rows > self.rows()`, trailing rows appended — copying every
    /// untouched row's span verbatim.
    ///
    /// This is the O(Δ) structural path behind `CsrDelta` (`delta` module):
    /// the replaced rows arrive **already sorted** by column (derived from
    /// the graph's sorted adjacency lists), so unlike
    /// [`Csr::from_row_entries`] no entry is ever sorted or deduplicated.
    /// The work is O(changed entries) of emission plus one bulk
    /// `extend_from_slice` per contiguous gap of untouched rows (memcpy
    /// speed, no per-entry processing). Untouched rows are bit-identical to
    /// the originals by construction.
    ///
    /// # Panics
    /// Panics unless `new_rows ≥ self.rows()`, `new_cols ≥ self.cols()`,
    /// `replaced` is sorted by row index without duplicates, every appended
    /// row index in `self.rows()..new_rows` is present in `replaced`, and
    /// each row's entries are strictly column-sorted within `new_cols`.
    pub fn with_rows_replaced(
        &self,
        new_rows: usize,
        new_cols: usize,
        replaced: &[(usize, Vec<(u32, S)>)],
    ) -> Csr<S> {
        assert!(new_rows >= self.rows, "with_rows_replaced: rows cannot shrink");
        assert!(new_cols >= self.cols, "with_rows_replaced: cols cannot shrink");
        let delta_nnz: usize = replaced.iter().map(|(_, e)| e.len()).sum();
        let mut indptr = Vec::with_capacity(new_rows + 1);
        let mut indices = Vec::with_capacity(self.nnz() + delta_nnz);
        let mut values = Vec::with_capacity(self.nnz() + delta_nnz);
        indptr.push(0);
        let mut next_row = 0usize; // next output row not yet emitted
        for (ri, entries) in replaced {
            assert!(
                *ri >= next_row,
                "with_rows_replaced: replaced rows must be sorted without duplicates"
            );
            assert!(*ri < new_rows, "with_rows_replaced: row {ri} out of range");
            // Bulk-copy the untouched gap [next_row, ri) from the original.
            let gap_end = (*ri).min(self.rows);
            if next_row < gap_end {
                let (s, e) = (self.indptr[next_row], self.indptr[gap_end]);
                let base = indices.len();
                indices.extend_from_slice(&self.indices[s..e]);
                values.extend_from_slice(&self.values[s..e]);
                indptr.extend((next_row..gap_end).map(|r| self.indptr[r + 1] - s + base));
            }
            // Emit the replacement row (already sorted — verified, not sorted).
            let mut last: Option<u32> = None;
            for &(j, v) in entries {
                assert!((j as usize) < new_cols, "with_rows_replaced: column {j} out of range");
                assert!(
                    last.is_none_or(|l| l < j),
                    "with_rows_replaced: row {ri} entries must be strictly column-sorted"
                );
                last = Some(j);
                indices.push(j);
                values.push(v);
            }
            indptr.push(indices.len());
            next_row = ri + 1;
        }
        // Trailing untouched rows.
        if next_row < self.rows {
            let (s, e) = (self.indptr[next_row], self.indptr[self.rows]);
            let base = indices.len();
            indices.extend_from_slice(&self.indices[s..e]);
            values.extend_from_slice(&self.values[s..e]);
            indptr.extend((next_row..self.rows).map(|r| self.indptr[r + 1] - s + base));
        }
        assert_eq!(
            indptr.len(),
            new_rows + 1,
            "with_rows_replaced: every appended row must be provided"
        );
        Csr { rows: new_rows, cols: new_cols, indptr, indices, values }
    }

    /// The `n × n` identity in CSR form.
    pub fn eye(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as u32).collect(),
            values: vec![S::ONE; n],
        }
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

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `(columns, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[S]) {
        let (s, e) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[s..e], &self.values[s..e])
    }

    /// Element lookup (O(log nnz_row)).
    pub fn get(&self, i: usize, j: usize) -> S {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => S::ZERO,
        }
    }

    /// Sum of each row (sequential accumulation per row).
    pub fn row_sums(&self) -> Vec<S> {
        (0..self.rows).map(|i| self.row(i).1.iter().fold(S::ZERO, |acc, &v| acc + v)).collect()
    }

    /// Sum of each column.
    pub fn col_sums(&self) -> Vec<S> {
        let mut out = vec![S::ZERO; self.cols];
        for (&j, &v) in self.indices.iter().zip(&self.values) {
            out[j as usize] += v;
        }
        out
    }

    /// Dense `self · B` (sparse × dense), parallelized over row blocks on
    /// the shared `gcon-runtime` pool.
    pub fn spmm(&self, b: &Mat<S>) -> Mat<S> {
        // `spmm_into` shapes and zero-fills; starting empty avoids a
        // redundant full-size zero write.
        let mut out = Mat::default();
        self.spmm_into(b, &mut out);
        out
    }

    /// Dense `self · B` written into `out`, which is reshaped (reusing its
    /// backing buffer when capacity allows) to `self.rows() × b.cols()`.
    ///
    /// This is the hot kernel of every propagation step; the `_into` form
    /// lets the APPR recursion ping-pong between two long-lived buffers
    /// instead of allocating a fresh matrix per step.
    pub fn spmm_into(&self, b: &Mat<S>, out: &mut Mat<S>) {
        assert_eq!(self.cols, b.rows(), "spmm: dimension mismatch");
        SPMM_OPS.fetch_add(1, Ordering::Relaxed);
        let d = b.cols();
        out.reset_to_zeros(self.rows, d);
        let work = self.nnz() * d;
        gcon_runtime::parallel_rows(out.as_mut_slice(), self.rows, d, work, |block, start, end| {
            S::kernel_spmm_block(self, b, block, start, end);
        });
    }

    /// Element-wise conversion to another [`CsrScalar`] (structure shared
    /// semantics: indices/indptr copied, values converted through `f64`).
    /// The sparse counterpart of `Mat::convert`.
    pub fn convert<T: CsrScalar>(&self) -> Csr<T> {
        Csr {
            rows: self.rows,
            cols: self.cols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.iter().map(|v| T::from_f64(v.to_f64())).collect(),
        }
    }

    /// Converts to a dense matrix (small graphs / tests only).
    pub fn to_dense(&self) -> Mat<S> {
        let mut m = Mat::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m.set(i, j as usize, v);
            }
        }
        m
    }
}

/// The `spmm` kernel body. Four nonzeros of a CSR row are consumed per pass
/// over the dense output row: one read-modify-write of `out` carries four
/// scaled `B` rows (independent accumulators per column, so LLVM vectorizes
/// across the feature dimension — at the dtype's full lane width — and the
/// four products overlap). The 4-group structure depends only on the row's
/// nonzero count — never on the thread partition, which splits whole rows —
/// so results are byte-identical across `GCON_THREADS` values (and across
/// dispatch tiers, which compile this same body).
#[inline(always)]
fn spmm_block_body<S: CsrScalar>(sp: &Csr<S>, b: &Mat<S>, out: &mut [S], start: usize, end: usize) {
    let d = b.cols();
    for i in start..end {
        let (cols, vals) = sp.row(i);
        let orow = &mut out[(i - start) * d..(i - start + 1) * d];
        let main = cols.len() - cols.len() % 4;
        for (cj, cv) in cols[..main].chunks_exact(4).zip(vals[..main].chunks_exact(4)) {
            let b0 = b.row(cj[0] as usize);
            let b1 = b.row(cj[1] as usize);
            let b2 = b.row(cj[2] as usize);
            let b3 = b.row(cj[3] as usize);
            let (v0, v1, v2, v3) = (cv[0], cv[1], cv[2], cv[3]);
            for ((((o, &x0), &x1), &x2), &x3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
                *o += (v0 * x0 + v1 * x1) + (v2 * x2 + v3 * x3);
            }
        }
        for (&j, &v) in cols[main..].iter().zip(&vals[main..]) {
            let brow = b.row(j as usize);
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += v * bv;
            }
        }
    }
}

// Per-dtype dispatch stacks.

gcon_runtime::tier_dispatch! {
    /// f64 row-block stage of [`Csr::spmm_into`] — see [`spmm_block_body`].
    fn spmm_block_f64 / spmm_block_f64_avx2 / spmm_block_f64_impl(
        sp: &Csr<f64>, b: &Mat<f64>, out: &mut [f64], start: usize, end: usize)
}

#[inline(always)]
fn spmm_block_f64_impl(sp: &Csr<f64>, b: &Mat<f64>, out: &mut [f64], start: usize, end: usize) {
    spmm_block_body(sp, b, out, start, end)
}

gcon_runtime::tier_dispatch! {
    /// f32 row-block stage of [`Csr::spmm_into`] — see [`spmm_block_body`].
    fn spmm_block_f32 / spmm_block_f32_avx2 / spmm_block_f32_impl(
        sp: &Csr<f32>, b: &Mat<f32>, out: &mut [f32], start: usize, end: usize)
}

#[inline(always)]
fn spmm_block_f32_impl(sp: &Csr<f32>, b: &Mat<f32>, out: &mut [f32], start: usize, end: usize) {
    spmm_block_body(sp, b, out, start, end)
}

impl CsrScalar for f64 {
    #[inline]
    fn kernel_spmm_block(sp: &Csr<f64>, b: &Mat<f64>, out: &mut [f64], start: usize, end: usize) {
        spmm_block_f64(sp, b, out, start, end)
    }
}

impl CsrScalar for f32 {
    #[inline]
    fn kernel_spmm_block(sp: &Csr<f32>, b: &Mat<f32>, out: &mut [f32], start: usize, end: usize) {
        spmm_block_f32(sp, b, out, start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        Csr::from_row_entries(
            3,
            3,
            vec![vec![(2, 2.0), (0, 1.0)], vec![], vec![(0, 3.0), (1, 4.0)]],
        )
    }

    #[test]
    fn build_sorts_and_dedups() {
        let m = Csr::from_row_entries(1, 3, vec![vec![(2, 1.0), (0, 1.0), (2, 3.0)]]);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 2), 4.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn row_and_col_sums() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 0.0, 7.0]);
        assert_eq!(m.col_sums(), vec![4.0, 4.0, 2.0]);
    }

    #[test]
    fn spmm_single_column_matches_dense() {
        let m = sample();
        let b = Mat::from_fn(3, 1, |i, _| (i + 1) as f64);
        assert_eq!(m.spmm(&b).as_slice(), &[7.0, 0.0, 11.0]);
    }

    /// `spmm_into` reshapes a stale buffer of the wrong shape (filled with
    /// NaN, so any unwritten element shows) and still matches the allocating
    /// form bit-for-bit, for a wide and then a narrow right-hand side.
    #[test]
    fn spmm_into_reuses_a_stale_buffer_bitwise() {
        let m = sample();
        let mut reused = Mat::full(5, 2, f64::NAN);
        let wide = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64 * 0.25 - 1.0);
        m.spmm_into(&wide, &mut reused);
        assert_eq!(reused, m.spmm(&wide));
        let narrow = Mat::from_fn(3, 1, |i, _| 1.5 - i as f64);
        m.spmm_into(&narrow, &mut reused);
        assert_eq!(reused, m.spmm(&narrow));
    }

    /// Nonzero counts around the 4-wide unroll boundary all match the dense
    /// reference (rows with 0..=9 nonzeros, a width off the lane multiple).
    #[test]
    fn spmm_unroll_tails_match_dense() {
        let n = 10usize;
        let entries: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|i| (0..i as u32).map(|j| (j, (i as f64 + 1.0) * 0.1 + j as f64)).collect())
            .collect();
        let sp = Csr::from_row_entries(n, n, entries);
        let b = Mat::from_fn(n, 5, |i, j| 0.3 * i as f64 - 0.7 * j as f64 + 1.0);
        let fast = sp.spmm(&b);
        let slow = gcon_linalg::ops::matmul(&sp.to_dense(), &b);
        for i in 0..n {
            for j in 0..5 {
                let (x, y) = (fast.get(i, j), slow.get(i, j));
                assert!((x - y).abs() < 1e-12, "row {i} (nnz {i}) col {j}: {x} vs {y}");
            }
        }
    }

    /// Each output row depends only on its own CSR row: multiplying a row on
    /// its own gives the same bits as the full (row-block parallel) product,
    /// so no thread partition can change a result.
    #[test]
    fn spmm_rows_do_not_depend_on_the_row_partition() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let n = 300;
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for row in entries.iter_mut() {
            for j in 0..n as u32 {
                if rng.gen::<f64>() < 0.05 {
                    row.push((j, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        let sp = Csr::from_row_entries(n, n, entries);
        let b: Mat = Mat::uniform(n, 32, 1.0, &mut rng);
        let full = sp.spmm(&b);
        for i in 0..n {
            let (cols, vals) = sp.row(i);
            let one = Csr::from_row_entries(
                1,
                n,
                vec![cols.iter().copied().zip(vals.iter().copied()).collect()],
            );
            let alone = one.spmm(&b);
            for (x, y) in alone.row(0).iter().zip(full.row(i)) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn eye_is_the_identity() {
        let i4: Csr = Csr::eye(4);
        assert_eq!(i4.nnz(), 4);
        assert_eq!(i4.row_sums(), vec![1.0; 4]);
        assert_eq!(i4.col_sums(), vec![1.0; 4]);
        assert_eq!(i4.to_dense(), Mat::eye(4));
        let empty: Csr<f32> = Csr::eye(0);
        assert_eq!((empty.rows(), empty.cols(), empty.nnz()), (0, 0, 0));
    }

    /// Replacing rows and appending new ones splices the untouched rows
    /// verbatim: the result equals a fresh build from the same rows.
    #[test]
    fn with_rows_replaced_matches_a_fresh_build() {
        let m = sample();
        let replaced = vec![(1, vec![(0, 5.0), (2, 6.0)]), (3, vec![(3, 1.5)]), (4, vec![])];
        let spliced = m.with_rows_replaced(5, 4, &replaced);
        let row = |i: usize| -> Vec<(u32, f64)> {
            let (cols, vals) = m.row(i);
            cols.iter().copied().zip(vals.iter().copied()).collect()
        };
        let fresh = Csr::from_row_entries(
            5,
            4,
            vec![row(0), vec![(0, 5.0), (2, 6.0)], row(2), vec![(3, 1.5)], vec![]],
        );
        assert_eq!(spliced, fresh);
        // No replacement at all copies the matrix unchanged.
        assert_eq!(m.with_rows_replaced(3, 3, &[]), m);
    }

    #[test]
    #[should_panic(expected = "strictly column-sorted")]
    fn with_rows_replaced_rejects_unsorted_rows() {
        sample().with_rows_replaced(3, 3, &[(0, vec![(2, 1.0), (1, 1.0)])]);
    }

    #[test]
    #[should_panic(expected = "every appended row must be provided")]
    fn with_rows_replaced_requires_every_appended_row() {
        // Growing to 5 rows but providing only row 3 leaves row 4 missing.
        sample().with_rows_replaced(5, 3, &[(3, vec![])]);
    }

    /// Conversion keeps the sparsity structure exactly: f64 → f64 is the
    /// identity, and an f32 round trip changes values only by f32 rounding.
    #[test]
    fn convert_keeps_the_structure() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let (rows, cols) = (17, 23);
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); rows];
        for row in entries.iter_mut() {
            for j in 0..cols as u32 {
                if rng.gen::<f64>() < 0.3 {
                    row.push((j, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        let sp = Csr::from_row_entries(rows, cols, entries);
        assert_eq!(sp.convert::<f64>(), sp);
        let back: Csr = sp.convert::<f32>().convert();
        for i in 0..rows {
            let ((c0, v0), (c1, v1)) = (sp.row(i), back.row(i));
            assert_eq!(c0, c1, "row {i}: column pattern changed");
            for (a, b) in v0.iter().zip(v1) {
                assert!((a - b).abs() <= 1e-7 * a.abs(), "row {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        // random sparse 40x40, dense 40x17
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); 40];
        for row in entries.iter_mut() {
            for j in 0..40u32 {
                if rng.gen::<f64>() < 0.15 {
                    row.push((j, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        let sp = Csr::from_row_entries(40, 40, entries);
        let b: Mat = Mat::uniform(40, 17, 1.0, &mut rng);
        let fast = sp.spmm(&b);
        let slow = gcon_linalg::ops::matmul(&sp.to_dense(), &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-10);
        }
    }

    /// The f32 CSR spmm kernel matches the f64 path widened within f32
    /// tolerance, and the converted structure is shared.
    #[test]
    fn f32_sparse_kernels_match_f64_within_tolerance() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let n = 50;
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for row in entries.iter_mut() {
            for j in 0..n as u32 {
                if rng.gen::<f64>() < 0.2 {
                    row.push((j, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        let sp64 = Csr::from_row_entries(n, n, entries);
        let sp32: Csr<f32> = sp64.convert();
        assert_eq!(sp32.nnz(), sp64.nnz());
        assert_eq!((sp32.rows(), sp32.cols()), (sp64.rows(), sp64.cols()));

        let b64: Mat = Mat::uniform(n, 9, 1.0, &mut rng);
        let b32 = b64.convert::<f32>();
        let y64 = sp64.spmm(&b64);
        let y32 = sp32.spmm(&b32);
        for (x32, x64) in y32.as_slice().iter().zip(y64.as_slice()) {
            assert!((*x32 as f64 - x64).abs() < 1e-4, "{x32} vs {x64}");
        }
    }

    #[test]
    fn spmm_parallel_path_matches_dense() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let n = 300;
        let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
        for row in entries.iter_mut() {
            for j in 0..n as u32 {
                if rng.gen::<f64>() < 0.05 {
                    row.push((j, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        let sp = Csr::from_row_entries(n, n, entries);
        let b: Mat = Mat::uniform(n, 64, 1.0, &mut rng);
        let fast = sp.spmm(&b);
        let slow = gcon_linalg::ops::matmul(&sp.to_dense(), &b);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn identity_spmm_is_neutral() {
        let b = Mat::from_fn(5, 3, |i, j| (i * 3 + j) as f64);
        let i5: Csr = Csr::eye(5);
        assert_eq!(i5.spmm(&b), b);
    }

    #[test]
    fn to_dense_roundtrip_values() {
        let m = sample().to_dense();
        assert_eq!(m.get(2, 1), 4.0);
        assert_eq!(m.get(1, 1), 0.0);
    }

    #[test]
    fn sparse_products_are_counted() {
        // Other unit tests in this binary may run sparse products
        // concurrently, so only a lower bound is asserted here; the exact
        // per-call accounting is pinned down by the serialized op-count
        // suite in `tests/runtime_opcount.rs`.
        let m = sample();
        let b = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
        let before = spmm_ops_performed();
        let _ = m.spmm(&b);
        let mut out = Mat::default();
        m.spmm_into(&b, &mut out);
        assert!(spmm_ops_performed() - before >= 2);
    }
}
