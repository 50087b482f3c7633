#![deny(missing_docs)]
//! Dense linear-algebra substrate for the GCON reproduction.
//!
//! Every other crate in the workspace builds on the row-major [`Mat`] type and
//! the free-function vector kernels in [`vecops`]. No external linear-algebra
//! dependency is used: the paper's pipeline only needs dense GEMM-like
//! products, row-wise normalization, and norms, all of which are implemented
//! here as cache-blocked, register-tiled loops on the shared `gcon-runtime`
//! worker pool.
//!
//! Design notes
//! - Generic over the element dtype via the sealed [`Scalar`] trait (`f64` +
//!   `f32`), with `f64` as the default type parameter everywhere — `Mat`
//!   written without a parameter *is* the f64 matrix. Training and the
//!   differential-privacy parameter chain of the paper (Theorem 1,
//!   Eq. 17–24) stay f64 (numerically delicate); `f32` exists for the
//!   serving-store path, where halving the element width doubles the usable
//!   SIMD lanes and halves the memory footprint. See [`scalar`] for the
//!   full precision policy.
//! - Matrices are row-major so that "a row = a node's feature vector" is a
//!   contiguous slice, which is the dominant access pattern in graph
//!   convolution.
//!
//! # Kernel tiling parameters and dispatch tiers
//!
//! The GEMM family in [`ops`] is written so stable-Rust LLVM autovectorizes
//! it — no intrinsics. On x86-64 every kernel body is compiled at two
//! feature levels (portable baseline and `avx2,fma`) via
//! [`gcon_runtime::tier_dispatch!`], and the process-wide
//! [`gcon_runtime::kernel_tier`] — CPU detection, overridable with
//! `GCON_KERNEL_TIER` — selects one at run time. The tile constants are
//! exported and **per-dtype**: [`ops::MR`]` × `[`ops::NR`] register tiles
//! for f64 (4×8 accumulators per microkernel pass; f32 uses
//! [`ops::NR_F32`] = 16-wide tiles) over a packed [`ops::KC`]`×NR`
//! cache-blocked panel of `B`, and [`ops::TM_IB`]-sample reduction blocks
//! in the `AᵀB` gradient kernel, which adaptively falls back to a
//! zero-skipping loop on sample blocks above [`ops::TM_SKIP_ZERO_FRAC`]
//! zeros (see [`ops::TmPath`]). The reduction kernels in [`vecops`] use
//! [`vecops::LANES`] (f64) / [`vecops::LANES_F32`] (f32) independent lane
//! accumulators.
//!
//! # Determinism and tolerance policy
//!
//! Tiled accumulation reassociates floating-point sums, so the kernels are
//! **not** bit-identical to a naive sequential loop — equivalence tests
//! compare against naive references at 1e-9 *relative* tolerance
//! (`tests/kernel_properties.rs`, run at every tier the host supports).
//! They **are** bit-identical across `GCON_THREADS` settings *and* across
//! dispatch tiers **within one dtype**: the pool partitions output rows
//! only, every code path accumulates a given output element in the same
//! fixed order regardless of where thread or tile boundaries fall, and all
//! tiers compile the same source under strict FP semantics (no
//! reassociation, no mul-add contraction), so the cross-tier drift bound is
//! exactly **zero** per dtype (`tests/runtime_equivalence.rs` pins both by
//! re-running the kernels in subprocesses over the dtype × tier ×
//! thread-count matrix and comparing raw result bytes). Across dtypes no
//! bit relation holds — f32 results carry f32 rounding at every step.

pub mod eigen;
pub mod lu;
pub mod mat;
pub mod ops;
pub mod reduce;
pub mod scalar;
pub mod vecops;

pub use mat::Mat;
pub use scalar::{Dtype, Scalar};
// The worker pool's row and elementwise splits, for the crates above this
// one (the optimizer step, the activations, the objective's loss terms).
pub use gcon_runtime::{parallel_rows, parallel_zip, PAR_THRESHOLD};

/// Absolute tolerance the unit tests use when comparing floating-point
/// kernels against naive reference implementations.
#[cfg(test)]
pub(crate) const TEST_TOL: f64 = 1e-9;

/// Returns true when `a` and `b` are within `tol` of each other, treating
/// NaN as never close.
#[cfg(test)]
pub(crate) fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
