#![warn(missing_docs)]
//! Graph substrate for the GCON reproduction.
//!
//! Provides the undirected [`Graph`] type backed by sorted adjacency lists,
//! a [`csr::Csr`] sparse-matrix type with a threaded sparse×dense product,
//! the two adjacency normalizations used in the paper
//! (row-stochastic `Ã = D⁻¹(A+I)` from Sec. IV-C2, optionally clipped per
//! Lemma 1, and the symmetric `D^{-1/2}ÂD^{-1/2}` used by the GCN baseline),
//! the homophily ratio of Definition 7, and synthetic graph generators with a
//! homophily dial (used by `gcon-datasets` to stand in for the paper's
//! benchmark graphs).
//!
//! Edge-level neighboring graphs (Definition 2 specialized to edge DP) are
//! first-class: [`Graph::with_edge_removed`] / [`Graph::with_edge_added`]
//! produce the `D'` needed by the sensitivity tests of Lemma 1/2.
//!
//! Dynamic graphs are served by the [`delta`] module: [`CsrDelta`] batches
//! edge inserts/removes and node onboarding, mutates the [`Graph`] in
//! place, and patches only the touched rows of the row-stochastic `Ã` —
//! bitwise identical to a from-scratch rebuild at O(Δ) re-derivation cost
//! (see the module docs for the exact contract).
//!
//! # Sparse-kernel structure and determinism
//!
//! The dense-output sparse kernel follows the same policy as `gcon-linalg`
//! (see its crate docs): [`Csr`] is generic over the element dtype through
//! [`CsrScalar`] (f64 + f32, f64 default), and `Csr::spmm` consumes four
//! nonzeros of a CSR row per pass over the dense output row. The kernel
//! body is compiled per dtype at both [`gcon_runtime::KernelTier`]s
//! (baseline and `avx2,fma`) via [`gcon_runtime::tier_dispatch!`]
//! and selected by the process-wide [`gcon_runtime::kernel_tier`]. The
//! unroll grouping is a function of the row's nonzero count alone — the
//! pool partitions whole rows, and every tier compiles the same source
//! under strict FP semantics — so results are byte-identical across
//! `GCON_THREADS` *and* across tiers within one dtype, and differ from a
//! strictly sequential reduction only by reassociation (≤ 1e-9 relative vs
//! the naive reference, pinned by `tests/kernel_properties.rs` at every
//! available tier).

pub mod csr;
pub mod delta;
pub mod generators;
pub mod graph;
pub mod homophily;
pub mod normalize;
pub mod stats;
pub mod traversal;

pub use csr::{spmm_ops_performed, Csr, CsrScalar};
pub use delta::{CsrDelta, DeltaResult};
pub use graph::Graph;
pub use homophily::homophily_ratio;
