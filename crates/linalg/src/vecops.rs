//! Vector kernels shared across the workspace, generic over the element
//! [`Scalar`] (f64 / f32).
//!
//! The reduction kernels ([`dot`], [`norm2`], [`dist2`]) are unrolled over
//! lane-width chunks with one independent accumulator per lane, breaking
//! the serial floating-point dependency chain so LLVM autovectorizes them
//! and the out-of-order core overlaps the adds. The lane width is chosen
//! **per dtype** — [`LANES`] (8) for f64, [`LANES_F32`] (16) for f32 — so an
//! f32 slice fills the same vector registers with twice the elements instead
//! of wasting half of each. The lane structure is a fixed function of the
//! input length and dtype — never of any thread partition — so results are
//! deterministic for a given input, though they differ from a strictly
//! sequential sum by reassociation (callers compare against naive references
//! with a relative tolerance, see `gcon_linalg` crate docs).
//!
//! [`dot`], [`axpy`], [`norm2`] and [`dist2`] — the four primitives sitting
//! in solver inner loops — are compiled at both
//! [`gcon_runtime::KernelTier`]s (portable and `avx2,fma`) through
//! [`gcon_runtime::tier_dispatch!`].
//! `#[target_feature]` cannot apply to generic functions, so the dispatch
//! plumbing is *per dtype*: one `#[inline(always)]` generic body (e.g.
//! `dot_body`), instantiated by concrete `_f64`/`_f32` wrappers that go
//! through the macro, selected by the [`Scalar`] kernel hooks. Within one
//! dtype, all tiers execute the identical arithmetic (strict FP semantics),
//! so the tier never changes a result.
//!
//! Length contracts are enforced with `assert_eq!` at the kernel boundary in
//! all build profiles: a silent `zip` truncation on mismatched lengths would
//! corrupt downstream numerics (the former `debug_assert_eq!` let release
//! builds do exactly that).

use crate::scalar::Scalar;
use rand::Rng;

/// Unroll width of the f64 reduction kernels: chunks of this many elements
/// get one independent accumulator per lane.
pub const LANES: usize = 8;

/// Unroll width of the f32 reduction kernels — double [`LANES`], matching
/// the doubled element count per SIMD register at half the element width.
pub const LANES_F32: usize = 16;

/// Reduces `L` lane accumulators pairwise, adjacent pairs bottom-up (fixed
/// tree, part of the deterministic accumulation order; for `L = 8` this is
/// exactly `((a0+a1)+(a2+a3)) + ((a4+a5)+(a6+a7))`).
#[inline(always)]
pub(crate) fn reduce_lanes<S: Scalar, const L: usize>(acc: [S; L]) -> S {
    let mut buf = acc;
    let mut width = L;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            buf[i] = buf[2 * i] + buf[2 * i + 1];
        }
    }
    buf[0]
}

#[inline(always)]
fn dot_body<S: Scalar, const L: usize>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    let main = a.len() - a.len() % L;
    let mut acc = [S::ZERO; L];
    for (ca, cb) in a[..main].chunks_exact(L).zip(b[..main].chunks_exact(L)) {
        for l in 0..L {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut s = reduce_lanes(acc);
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        s += *x * *y;
    }
    s
}

#[inline(always)]
fn axpy_body<S: Scalar, const L: usize>(alpha: S, x: &[S], y: &mut [S]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch {} vs {}", x.len(), y.len());
    let main = x.len() - x.len() % L;
    for (cy, cx) in y[..main].chunks_exact_mut(L).zip(x[..main].chunks_exact(L)) {
        for l in 0..L {
            cy[l] += alpha * cx[l];
        }
    }
    for (yi, xi) in y[main..].iter_mut().zip(&x[main..]) {
        *yi += alpha * *xi;
    }
}

#[inline(always)]
fn norm2_body<S: Scalar, const L: usize>(x: &[S]) -> S {
    let main = x.len() - x.len() % L;
    let mut acc = [S::ZERO; L];
    for c in x[..main].chunks_exact(L) {
        for l in 0..L {
            acc[l] += c[l] * c[l];
        }
    }
    let mut s = reduce_lanes(acc);
    for v in &x[main..] {
        s += *v * *v;
    }
    s.sqrt()
}

#[inline(always)]
fn dist2_body<S: Scalar, const L: usize>(a: &[S], b: &[S]) -> S {
    assert_eq!(a.len(), b.len(), "dist2: length mismatch {} vs {}", a.len(), b.len());
    let main = a.len() - a.len() % L;
    let mut acc = [S::ZERO; L];
    for (ca, cb) in a[..main].chunks_exact(L).zip(b[..main].chunks_exact(L)) {
        for l in 0..L {
            let d = ca[l] - cb[l];
            acc[l] += d * d;
        }
    }
    let mut s = reduce_lanes(acc);
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        s += (*x - *y) * (*x - *y);
    }
    s.sqrt()
}

// Per-dtype tier-dispatched instantiations. Each `_impl` pins the generic
// body at that dtype's lane width; `tier_dispatch!` then compiles it at
// both SIMD tiers. The [`Scalar`] kernel hooks route the generic public
// fronts below to these.

gcon_runtime::tier_dispatch! {
    /// f64 instantiation of the [`dot`] kernel.
    #[inline]
    pub(crate) fn dot_f64 / dot_f64_avx2 / dot_f64_impl(a: &[f64], b: &[f64]) -> f64
}

#[inline(always)]
fn dot_f64_impl(a: &[f64], b: &[f64]) -> f64 {
    dot_body::<f64, LANES>(a, b)
}

gcon_runtime::tier_dispatch! {
    /// f32 instantiation of the [`dot`] kernel (doubled lanes).
    #[inline]
    pub(crate) fn dot_f32 / dot_f32_avx2 / dot_f32_impl(a: &[f32], b: &[f32]) -> f32
}

#[inline(always)]
fn dot_f32_impl(a: &[f32], b: &[f32]) -> f32 {
    dot_body::<f32, LANES_F32>(a, b)
}

gcon_runtime::tier_dispatch! {
    /// f64 instantiation of the [`axpy`] kernel.
    #[inline]
    pub(crate) fn axpy_f64 / axpy_f64_avx2 / axpy_f64_impl(alpha: f64, x: &[f64], y: &mut [f64])
}

#[inline(always)]
fn axpy_f64_impl(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_body::<f64, LANES>(alpha, x, y)
}

gcon_runtime::tier_dispatch! {
    /// f32 instantiation of the [`axpy`] kernel (doubled lanes).
    #[inline]
    pub(crate) fn axpy_f32 / axpy_f32_avx2 / axpy_f32_impl(alpha: f32, x: &[f32], y: &mut [f32])
}

#[inline(always)]
fn axpy_f32_impl(alpha: f32, x: &[f32], y: &mut [f32]) {
    axpy_body::<f32, LANES_F32>(alpha, x, y)
}

gcon_runtime::tier_dispatch! {
    /// f64 instantiation of the [`norm2`] kernel.
    #[inline]
    pub(crate) fn norm2_f64 / norm2_f64_avx2 / norm2_f64_impl(x: &[f64]) -> f64
}

#[inline(always)]
fn norm2_f64_impl(x: &[f64]) -> f64 {
    norm2_body::<f64, LANES>(x)
}

gcon_runtime::tier_dispatch! {
    /// f32 instantiation of the [`norm2`] kernel (doubled lanes).
    #[inline]
    pub(crate) fn norm2_f32 / norm2_f32_avx2 / norm2_f32_impl(x: &[f32]) -> f32
}

#[inline(always)]
fn norm2_f32_impl(x: &[f32]) -> f32 {
    norm2_body::<f32, LANES_F32>(x)
}

gcon_runtime::tier_dispatch! {
    /// f64 instantiation of the [`dist2`] kernel.
    #[inline]
    pub(crate) fn dist2_f64 / dist2_f64_avx2 / dist2_f64_impl(a: &[f64], b: &[f64]) -> f64
}

#[inline(always)]
fn dist2_f64_impl(a: &[f64], b: &[f64]) -> f64 {
    dist2_body::<f64, LANES>(a, b)
}

gcon_runtime::tier_dispatch! {
    /// f32 instantiation of the [`dist2`] kernel (doubled lanes).
    #[inline]
    pub(crate) fn dist2_f32 / dist2_f32_avx2 / dist2_f32_impl(a: &[f32], b: &[f32]) -> f32
}

#[inline(always)]
fn dist2_f32_impl(a: &[f32], b: &[f32]) -> f32 {
    dist2_body::<f32, LANES_F32>(a, b)
}

/// Dot product of two equal-length slices (tier-dispatched per dtype).
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    S::kernel_dot(a, b)
}

/// `y += alpha * x` (tier-dispatched per dtype).
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn axpy<S: Scalar>(alpha: S, x: &[S], y: &mut [S]) {
    S::kernel_axpy(alpha, x, y)
}

/// Euclidean (L2) norm (tier-dispatched per dtype).
#[inline]
pub fn norm2<S: Scalar>(x: &[S]) -> S {
    S::kernel_norm2(x)
}

/// Euclidean distance between two slices (tier-dispatched per dtype).
///
/// # Panics
/// Panics if the lengths differ.
#[inline]
pub fn dist2<S: Scalar>(a: &[S], b: &[S]) -> S {
    S::kernel_dist2(a, b)
}

/// Scales `x` in place by `alpha`.
#[inline]
pub fn scale(x: &mut [f64], alpha: f64) {
    for v in x {
        *v *= alpha;
    }
}

/// Rescales `x` so that its L2 norm is at most `max_norm` (gradient clipping).
/// Returns the original norm.
pub fn clip_norm2(x: &mut [f64], max_norm: f64) -> f64 {
    let n = norm2(x);
    if n > max_norm && n > 0.0 {
        scale(x, max_norm / n);
    }
    n
}

/// Index of the maximum element (first on ties). Returns 0 for empty input.
///
/// Generic over the dtype; since f32 → f64 widening is monotone, the argmax
/// of an f32 logits row equals the argmax of its widened copy.
pub fn argmax<S: Scalar>(x: &[S]) -> usize {
    let mut best = 0;
    let mut best_v = S::from_f64(f64::NEG_INFINITY);
    for (i, &v) in x.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Mean of a slice (0 for empty).
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Sample standard deviation (0 for fewer than two items).
pub fn std_dev(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    (x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64).sqrt()
}

/// Samples a standard normal variate via Box–Muller (polar-free form).
///
/// Kept here (rather than depending on `rand_distr`) so the whole workspace
/// shares one normal sampler built only on the sanctioned `rand` crate.
pub fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller: u1 ∈ (0,1] avoids ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Numerically stable softmax of a slice, written into `out`.
pub fn softmax_into(x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(x.len(), out.len());
    let max = x.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0;
    for (o, &v) in out.iter_mut().zip(x) {
        let e = (v - max).exp();
        *o = e;
        sum += e;
    }
    if sum > 0.0 {
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn clip_reduces_long_vectors_only() {
        let mut x = vec![3.0, 4.0];
        let orig = clip_norm2(&mut x, 1.0);
        assert_eq!(orig, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-12);

        let mut y = vec![0.3, 0.4];
        clip_norm2(&mut y, 1.0);
        assert_eq!(y, vec![0.3, 0.4]); // unchanged
    }

    #[test]
    fn argmax_first_on_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax::<f64>(&[]), 0);
    }

    #[test]
    fn argmax_agrees_across_dtypes() {
        let x64 = [0.25, -1.5, 0.75, 0.75, 0.5];
        let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
        assert_eq!(argmax(&x64), argmax(&x32));
        assert_eq!(argmax(&x32), 2);
    }

    #[test]
    fn mean_and_std() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-12);
        assert!((std_dev(&x) - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn std_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_std_normal(&mut rng)).collect();
        let m = mean(&samples);
        let s = std_dev(&samples);
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((s - 1.0).abs() < 0.01, "std {s}");
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let x = [1.0, 2.0, 3.0];
        let mut a = [0.0; 3];
        let mut b = [0.0; 3];
        softmax_into(&x, &mut a);
        softmax_into(&[1001.0, 1002.0, 1003.0], &mut b);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn dist2_symmetry() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert_eq!(dist2(&a, &b), 5.0);
        assert_eq!(dist2(&b, &a), 5.0);
    }

    /// The loop-based pairwise reduce preserves the documented fixed tree.
    #[test]
    fn reduce_lanes_matches_fixed_tree() {
        let acc = [1e16, 1.0, -1e16, 3.0, 1e-8, 2.0, -1e-8, 4.0];
        let tree =
            ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
        assert_eq!(reduce_lanes::<f64, 8>(acc).to_bits(), tree.to_bits());
    }

    /// The unrolled reductions agree with a naive sequential sum to relative
    /// tolerance on lengths straddling the lane width (0, 1, tails, exact
    /// multiples).
    #[test]
    fn unrolled_kernels_match_naive_over_awkward_lengths() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100] {
            let a: Vec<f64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0)).collect();
            let b: Vec<f64> = (0..n).map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0)).collect();
            let dot_naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let tol = 1e-12 * dot_naive.abs().max(1.0);
            assert!((dot(&a, &b) - dot_naive).abs() <= tol, "dot n={n}");
            let n2_naive = a.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((norm2(&a) - n2_naive).abs() <= 1e-12 * n2_naive.max(1.0), "norm2 n={n}");
            let d2_naive = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt();
            assert!((dist2(&a, &b) - d2_naive).abs() <= 1e-12 * d2_naive.max(1.0), "dist2 n={n}");
            let mut y = b.clone();
            axpy(0.37, &a, &mut y);
            for ((yi, bi), ai) in y.iter().zip(&b).zip(&a) {
                assert!((yi - (bi + 0.37 * ai)).abs() <= 1e-15, "axpy n={n}");
            }
        }
    }

    /// Same sweep for the f32 instantiations (f32 lane width is 16, so the
    /// lengths straddle its chunking too), with naive references accumulated
    /// in f32 to keep the comparison within one dtype.
    #[test]
    fn f32_kernels_match_naive_over_awkward_lengths() {
        let mut rng = StdRng::seed_from_u64(10);
        for n in [0usize, 1, 2, 15, 16, 17, 31, 32, 33, 100] {
            let a: Vec<f32> =
                (0..n).map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0)).collect();
            let b: Vec<f32> =
                (0..n).map(|_| rand::Rng::gen_range(&mut rng, -1.0f32..1.0)).collect();
            let dot_naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            let tol = 1e-4 * dot_naive.abs().max(1.0);
            assert!((dot(&a, &b) - dot_naive).abs() <= tol, "dot n={n}");
            let n2_naive = a.iter().map(|v| v * v).sum::<f32>().sqrt();
            assert!((norm2(&a) - n2_naive).abs() <= 1e-4 * n2_naive.max(1.0), "norm2 n={n}");
            let d2_naive = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt();
            assert!((dist2(&a, &b) - d2_naive).abs() <= 1e-4 * d2_naive.max(1.0), "dist2 n={n}");
            let mut y = b.clone();
            axpy(0.37f32, &a, &mut y);
            for ((yi, bi), ai) in y.iter().zip(&b).zip(&a) {
                assert!((yi - (bi + 0.37 * ai)).abs() <= 1e-6, "axpy n={n}");
            }
        }
    }

    /// Length mismatches must panic in every build profile — a silent `zip`
    /// truncation would corrupt solver numerics.
    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "axpy: length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut y = [0.0; 3];
        axpy(1.0, &[1.0, 2.0], &mut y);
    }

    #[test]
    #[should_panic(expected = "dist2: length mismatch")]
    fn dist2_length_mismatch_panics() {
        let _ = dist2(&[1.0], &[1.0, 2.0]);
    }
}
