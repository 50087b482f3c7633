//! Batched linear-head forward on a shared, reusable workspace.
//!
//! Serving a decoupled model (propagate once, classify per query — GCON, and
//! the GAP/ProGAP-style heads more generally) reduces every query to the
//! same two steps: gather the queried rows of a precomputed feature matrix,
//! and multiply the gathered batch by a weight matrix. [`HeadWorkspace`]
//! owns the two intermediate buffers of that sequence so a serving loop
//! answering queries at steady state performs **no per-batch allocation** —
//! the same `_into` buffer-reuse discipline every training loop in the
//! workspace follows (`gcon-runtime` crate docs).
//!
//! The workspace is generic over the element dtype through `gcon-linalg`'s
//! sealed [`Scalar`] trait (`f64` default): an `f32` feature store runs the
//! whole gather + GEMM sequence in `f32` — doubled SIMD lanes, halved
//! memory traffic — which is how `gcon-serve`'s `f32` store mode gets its
//! speedup. Precision policy lives in `gcon_linalg::scalar`.
//!
//! The forward runs on the pooled `gcon-linalg` GEMM, whose output rows are
//! computed independently of the surrounding row partition; a batch of any
//! size or order therefore reproduces, bitwise, the rows a full-matrix
//! product would produce (within one dtype). `gcon-serve` builds its
//! single-query, batched, and micro-batched paths on this one primitive.

use gcon_linalg::{ops, reduce, Mat, Scalar};

/// Reusable buffers for [`batched head forwards`](HeadWorkspace::forward):
/// the gathered feature batch and the logit output, in the dtype `S` of the
/// feature store (default `f64`). Create once per serving thread (or per
/// [`gcon-serve`-style queue][fwd]) and reuse across batches; both buffers
/// reach steady-state capacity after the first full-size batch.
///
/// [fwd]: HeadWorkspace::forward
#[derive(Clone, Debug, Default)]
pub struct HeadWorkspace<S: Scalar = f64> {
    /// Gathered feature rows, `batch × d`.
    gathered: Mat<S>,
    /// Head output, `batch × c`.
    logits: Mat<S>,
}

impl<S: Scalar> HeadWorkspace<S> {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gathers `rows` of `features` and multiplies the batch by `weights`:
    /// returns `features[rows, :] · weights` (`batch × c`), computed without
    /// allocating once the workspace has reached steady-state capacity.
    ///
    /// Row `r` of the result is bitwise equal to row `rows[r]` of the full
    /// product `features · weights`, for any batch size, order, or
    /// multiplicity of `rows` (the pooled GEMM computes every output row
    /// independently of the row partition).
    ///
    /// # Panics
    /// Panics if any row index is out of bounds or the inner dimensions
    /// mismatch.
    pub fn forward(&mut self, features: &Mat<S>, rows: &[usize], weights: &Mat<S>) -> &Mat<S> {
        features.select_rows_into(rows, &mut self.gathered);
        ops::matmul_into(&self.gathered, weights, &mut self.logits);
        &self.logits
    }

    /// The logits of the last [`HeadWorkspace::forward`] call (`batch × c`).
    pub fn logits(&self) -> &Mat<S> {
        &self.logits
    }

    /// Hard predictions of the last forward (allocating convenience).
    pub fn predictions(&self) -> Vec<usize> {
        reduce::row_argmax(&self.logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gathered_rows_match_full_product_bitwise() {
        let mut rng = StdRng::seed_from_u64(31);
        let features: Mat = Mat::uniform(40, 12, 1.0, &mut rng);
        let weights: Mat = Mat::uniform(12, 5, 1.0, &mut rng);
        let full = ops::matmul(&features, &weights);
        let mut ws = HeadWorkspace::new();
        // Unordered, duplicated, and single-row batches all reproduce the
        // full product's rows exactly.
        for rows in [vec![3usize, 3, 0, 39, 17], vec![7], (0..40).rev().collect::<Vec<_>>()] {
            let out = ws.forward(&features, &rows, &weights);
            assert_eq!(out.shape(), (rows.len(), 5));
            for (r, &i) in rows.iter().enumerate() {
                assert_eq!(out.row(r), full.row(i), "batch row {r} (node {i})");
            }
        }
    }

    /// The f32 workspace reproduces the full f32 product bitwise and tracks
    /// the f64 workspace within f32 tolerance with matching predictions.
    #[test]
    fn f32_workspace_matches_f32_product_bitwise_and_f64_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(33);
        let features: Mat = Mat::uniform(30, 10, 1.0, &mut rng);
        let weights: Mat = Mat::uniform(10, 4, 1.0, &mut rng);
        let features32 = features.convert::<f32>();
        let weights32 = weights.convert::<f32>();
        let full32 = ops::matmul(&features32, &weights32);
        let mut ws64 = HeadWorkspace::<f64>::new();
        let mut ws32 = HeadWorkspace::<f32>::new();
        let rows: Vec<usize> = vec![29, 0, 7, 7, 15];
        let out64 = ws64.forward(&features, &rows, &weights).clone();
        let out32 = ws32.forward(&features32, &rows, &weights32);
        for (r, &i) in rows.iter().enumerate() {
            assert_eq!(out32.row(r), full32.row(i), "f32 batch row {r}");
            for (a, b) in out32.row(r).iter().zip(out64.row(r)) {
                assert!((*a as f64 - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
        assert_eq!(ws32.predictions(), ws64.predictions());
    }

    #[test]
    fn workspace_is_reused_across_batch_sizes() {
        let mut rng = StdRng::seed_from_u64(32);
        let features: Mat = Mat::uniform(20, 6, 1.0, &mut rng);
        let weights: Mat = Mat::uniform(6, 3, 1.0, &mut rng);
        let full_preds = reduce::row_argmax(&ops::matmul(&features, &weights));
        let mut ws = HeadWorkspace::new();
        for size in [20usize, 1, 7, 20] {
            let rows: Vec<usize> = (0..size).collect();
            ws.forward(&features, &rows, &weights);
            assert_eq!(ws.logits().shape(), (size, 3));
            assert_eq!(ws.predictions(), full_preds[..size]);
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_row_panics() {
        let features: Mat = Mat::zeros(4, 2);
        let weights: Mat = Mat::zeros(2, 2);
        HeadWorkspace::new().forward(&features, &[4], &weights);
    }
}
