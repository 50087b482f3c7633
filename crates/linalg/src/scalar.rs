//! The sealed [`Scalar`] abstraction behind the dtype-generic compute
//! substrate.
//!
//! Every dense kernel in this crate ([`crate::vecops`], [`crate::ops`]) and
//! the sparse kernels in `gcon-graph` are generic over a [`Scalar`] — today
//! `f64` or `f32`, sealed so the per-dtype kernel specializations below stay
//! exhaustive. The trait does **not** route arithmetic through dynamic
//! dispatch: generic fronts call the `kernel_*` hooks, and each hook is a
//! concrete, per-dtype function compiled through
//! [`gcon_runtime::tier_dispatch!`] at both SIMD tiers, with tile widths and
//! unroll factors chosen *per dtype* (f32 kernels use doubled lane counts —
//! see [`crate::vecops::LANES_F32`], [`crate::ops::NR_F32`]) so halving the
//! element width genuinely doubles the SIMD lanes instead of wasting them.
//!
//! # Precision policy (workspace-wide)
//!
//! - **Generic (f64 + f32):** `Mat`, the vecops reductions, the GEMM family,
//!   `Csr` spmm, the serving head (`gcon-nn::HeadWorkspace`, `gcon-serve`).
//! - **f64-only:** training, the `gcon-dp` accountants and DP calibration
//!   (Theorem 1's parameter chain is numerically delicate), and the dense
//!   solvers (`eigen`, `lu`).
//! - **Determinism is per-dtype:** within one dtype, results are bitwise
//!   identical across kernel tiers and `GCON_THREADS` (same fixed
//!   accumulation orders as ever). Across dtypes no bit relation holds —
//!   f32 results carry f32 rounding; accuracy contracts are stated and
//!   tested as relative drift bounds (see `gcon-serve`).
//!
//! `from_f64`/`to_f64` are the **identity for `f64`**, so the generic code
//! paths are bit-for-bit the pre-genericization f64 code paths.

use crate::Mat;

/// Element dtype tag for the two sealed [`Scalar`] types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE-754 binary64 (`f64`) — the default everywhere.
    F64,
    /// IEEE-754 binary32 (`f32`) — the serving-store option.
    F32,
}

impl Dtype {
    /// Lowercase name (`f64` / `f32`), for logs, bench labels, and env knobs.
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F64 => "f64",
            Dtype::F32 => "f32",
        }
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

mod sealed {
    /// Seals [`super::Scalar`]: the per-dtype kernel specializations in
    /// `vecops`/`ops` (and `gcon-graph`'s CSR kernels) are written for
    /// exactly `f64` and `f32`.
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

/// A floating-point element type the compute substrate is generic over.
///
/// Sealed (`f64` and `f32` only). The `kernel_*` hooks bind the generic
/// fronts in [`crate::vecops`] / [`crate::ops`] to concrete per-dtype
/// monomorphizations that go through [`gcon_runtime::tier_dispatch!`] — the
/// hooks are implementation plumbing, not a user-facing API; call the free
/// functions instead.
pub trait Scalar:
    sealed::Sealed
    + Copy
    + Default
    + PartialEq
    + PartialOrd
    + Send
    + Sync
    + 'static
    + std::fmt::Debug
    + std::fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + std::ops::DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// The dtype tag of this type.
    const DTYPE: Dtype;
    /// Packed-panel width of this dtype's `matmul` kernel (columns of `B`
    /// per panel): [`crate::ops::NR`] for f64, [`crate::ops::NR_F32`] for
    /// f32. Sizes the K-block scratch panel the generic front acquires.
    const GEMM_NR: usize;

    /// Converts from `f64`, rounding to nearest for `f32` (identity for
    /// `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widens to `f64` (exact for both dtypes; identity for `f64`).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// True when neither NaN nor infinite.
    fn is_finite(self) -> bool;

    /// Dtype-aware thread-local scratch: `gcon_runtime::with_scratch_f64` /
    /// `with_scratch_f32`, with the same exact-length, unspecified-contents,
    /// re-entrant contract.
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;

    /// Tier-dispatched dot product (bound of [`crate::vecops::dot`]).
    fn kernel_dot(a: &[Self], b: &[Self]) -> Self;
    /// Tier-dispatched `y += alpha·x` (bound of [`crate::vecops::axpy`]).
    fn kernel_axpy(alpha: Self, x: &[Self], y: &mut [Self]);
    /// Tier-dispatched L2 norm (bound of [`crate::vecops::norm2`]).
    fn kernel_norm2(x: &[Self]) -> Self;
    /// Tier-dispatched Euclidean distance (bound of
    /// [`crate::vecops::dist2`]).
    fn kernel_dist2(a: &[Self], b: &[Self]) -> Self;
    /// Tier-dispatched panel-loop stage of the K-blocked GEMM (bound of
    /// [`crate::ops::matmul_into`]); `a` holds `A`'s rows row-major and
    /// `panel` is the packed `KC×GEMM_NR` scratch the generic front
    /// acquired via [`Scalar::with_scratch`].
    fn kernel_matmul_panel(
        a: &[Self],
        b: &Mat<Self>,
        out: &mut [Self],
        start: usize,
        end: usize,
        panel: &mut [Self],
    );
    /// Tier-dispatched `AᵀB` kernel for one sample block (bound of
    /// [`crate::ops::t_matmul_into`] and [`crate::ops::t_matmul_streamed`]).
    fn kernel_t_matmul_block(
        a: &Mat<Self>,
        b_rows: &[Self],
        out: &mut [Self],
        k0: usize,
        k1: usize,
        ib: usize,
        skip: bool,
    );
    /// Tier-dispatched `A·Bᵀ` block kernel (bound of
    /// [`crate::ops::matmul_bt_into`]).
    fn kernel_matmul_bt_block(a: &Mat<Self>, b: &Mat<Self>, block: &mut [Self], start: usize);
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const DTYPE: Dtype = Dtype::F64;
    const GEMM_NR: usize = crate::ops::NR;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    #[inline]
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
        gcon_runtime::with_scratch_f64(len, f)
    }

    #[inline]
    fn kernel_dot(a: &[Self], b: &[Self]) -> Self {
        crate::vecops::dot_f64(a, b)
    }
    #[inline]
    fn kernel_axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
        crate::vecops::axpy_f64(alpha, x, y)
    }
    #[inline]
    fn kernel_norm2(x: &[Self]) -> Self {
        crate::vecops::norm2_f64(x)
    }
    #[inline]
    fn kernel_dist2(a: &[Self], b: &[Self]) -> Self {
        crate::vecops::dist2_f64(a, b)
    }
    #[inline]
    fn kernel_matmul_panel(
        a: &[Self],
        b: &Mat<Self>,
        out: &mut [Self],
        start: usize,
        end: usize,
        panel: &mut [Self],
    ) {
        crate::ops::matmul_panel_f64(a, b, out, start, end, panel)
    }
    #[inline]
    fn kernel_t_matmul_block(
        a: &Mat<Self>,
        b_rows: &[Self],
        out: &mut [Self],
        k0: usize,
        k1: usize,
        ib: usize,
        skip: bool,
    ) {
        crate::ops::t_matmul_block_f64(a, b_rows, out, k0, k1, ib, skip)
    }
    #[inline]
    fn kernel_matmul_bt_block(a: &Mat<Self>, b: &Mat<Self>, block: &mut [Self], start: usize) {
        crate::ops::matmul_bt_block_f64(a, b, block, start)
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const DTYPE: Dtype = Dtype::F32;
    const GEMM_NR: usize = crate::ops::NR_F32;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }

    #[inline]
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
        gcon_runtime::with_scratch_f32(len, f)
    }

    #[inline]
    fn kernel_dot(a: &[Self], b: &[Self]) -> Self {
        crate::vecops::dot_f32(a, b)
    }
    #[inline]
    fn kernel_axpy(alpha: Self, x: &[Self], y: &mut [Self]) {
        crate::vecops::axpy_f32(alpha, x, y)
    }
    #[inline]
    fn kernel_norm2(x: &[Self]) -> Self {
        crate::vecops::norm2_f32(x)
    }
    #[inline]
    fn kernel_dist2(a: &[Self], b: &[Self]) -> Self {
        crate::vecops::dist2_f32(a, b)
    }
    #[inline]
    fn kernel_matmul_panel(
        a: &[Self],
        b: &Mat<Self>,
        out: &mut [Self],
        start: usize,
        end: usize,
        panel: &mut [Self],
    ) {
        crate::ops::matmul_panel_f32(a, b, out, start, end, panel)
    }
    #[inline]
    fn kernel_t_matmul_block(
        a: &Mat<Self>,
        b_rows: &[Self],
        out: &mut [Self],
        k0: usize,
        k1: usize,
        ib: usize,
        skip: bool,
    ) {
        crate::ops::t_matmul_block_f32(a, b_rows, out, k0, k1, ib, skip)
    }
    #[inline]
    fn kernel_matmul_bt_block(a: &Mat<Self>, b: &Mat<Self>, block: &mut [Self], start: usize) {
        crate::ops::matmul_bt_block_f32(a, b, block, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_tags_and_names() {
        assert_eq!(<f64 as Scalar>::DTYPE, Dtype::F64);
        assert_eq!(<f32 as Scalar>::DTYPE, Dtype::F32);
        assert_eq!(Dtype::F64.name(), "f64");
        assert_eq!(Dtype::F32.name(), "f32");
        assert_eq!(Dtype::F64.to_string(), "f64");
    }

    #[test]
    fn f64_conversions_are_the_identity() {
        for v in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 1.0 + f64::EPSILON] {
            assert_eq!(<f64 as Scalar>::from_f64(v).to_bits(), v.to_bits());
            assert_eq!(Scalar::to_f64(v).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f32_roundtrip_is_exact_from_f32() {
        // f32 → f64 → f32 is lossless; f64 → f32 rounds to nearest.
        for v in [0.0f32, -2.75, f32::MAX, f32::MIN_POSITIVE] {
            assert_eq!(<f32 as Scalar>::from_f64(v.to_f64()).to_bits(), v.to_bits());
        }
        assert_eq!(<f32 as Scalar>::from_f64(0.1), 0.1f32);
    }

    #[test]
    fn scratch_is_dtype_separated() {
        <f64 as Scalar>::with_scratch(4, |a| {
            a.fill(1.0);
            <f32 as Scalar>::with_scratch(4, |b| b.fill(2.0));
            assert!(a.iter().all(|&v| v == 1.0));
        });
    }
}
