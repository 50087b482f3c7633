#![warn(missing_docs)]
//! # gcon — Differentially Private GCNs via Objective Perturbation
//!
//! A from-scratch Rust reproduction of *GCON: Differentially Private Graph
//! Convolutional Network via Objective Perturbation* (Wei et al., ICDE 2025),
//! including every substrate the paper depends on and every baseline its
//! evaluation compares against.
//!
//! ## Quickstart
//!
//! ```
//! use gcon::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A small homophilous node-classification dataset. Its features are a
//! // sparse `Csr` (bag-of-words rows); dense data enters through
//! // `Csr::from_dense`.
//! let dataset = gcon::datasets::two_moons_graph(0);
//! let mut rng = StdRng::seed_from_u64(0);
//!
//! // Train under (ε = 2, δ = 1/|E|) edge-level differential privacy.
//! let mut config = GconConfig::default();
//! config.encoder.epochs = 40;          // keep the doctest fast
//! config.optimizer.max_iters = 300;
//! let model = train_gcon(
//!     &config,
//!     &dataset.graph,
//!     &dataset.features,
//!     &dataset.labels,
//!     &dataset.split.train,
//!     dataset.num_classes,
//!     2.0,
//!     dataset.default_delta(),
//!     &mut rng,
//! );
//!
//! // Private inference uses only each query node's own edges (Eq. 16).
//! let pred = private_predict(&model, &dataset.graph, &dataset.features);
//! assert_eq!(pred.len(), dataset.num_nodes());
//! println!("spent ε = {}, β = {}", model.report.eps, model.report.params.beta);
//! ```
//!
//! ## Crate map
//!
//! - [`core`]: the paper's contribution — propagation, convex losses,
//!   Theorem 1 calibration, objective perturbation, inference.
//! - [`graph`]: CSR adjacency, normalizations, homophily, generators.
//! - [`linalg`]: dense matrix substrate.
//! - [`nn`]: manual-gradient MLP stack (encoder + baseline heads).
//! - [`dp`]: mechanisms, Erlang/sphere sampling, RDP accountant.
//! - [`datasets`]: Table II stand-ins, splits, metrics.
//! - [`baselines`]: DP-SGD, DPGCN, LPGNet, GAP, ProGAP, MLP, non-DP GCN.
//! - [`serve`]: batched inference serving — precomputed feature store +
//!   dynamic micro-batcher, bitwise-equal to the `core::infer` entry points.
//! - [`runtime`]: the shared execution layer every kernel above runs on.
//!
//! The layer diagram, buffer-reuse convention, determinism policy and the
//! environment-variable knob table live in `ARCHITECTURE.md` at the
//! repository root.
//!
//! ## Architecture / execution layer
//!
//! All hot kernels in the workspace share one execution substrate,
//! `gcon-runtime` (re-exported here as [`runtime`]):
//!
//! - **Persistent worker pool.** [`runtime::pool()`] lazily spawns one
//!   process-wide set of workers (width from the `GCON_THREADS` environment
//!   variable, default: hardware parallelism) and parks them between jobs.
//!   Kernels submit work through [`runtime::parallel_rows`] (row blocks)
//!   and [`runtime::parallel_zip`] (elementwise passes over several
//!   buffers), one block per thread; no kernel spawns threads of its own.
//!   A job returns when a latch counts its last chunk finished, so the
//!   submitter never waits for a parked worker to wake: publishing a job
//!   costs about a microsecond. Layering: `linalg::ops::{matmul, t_matmul,
//!   matmul_bt}` and `graph::Csr::spmm` parallelize on the pool, and
//!   `linalg` re-exports both splits for the elementwise passes of `nn`
//!   (the Adam step, the activations) and `core` (the loss terms of the
//!   perturbed objective); `baselines` inherit it through those.
//! - **Buffer-reusing `_into` kernels.** Every allocating kernel has a twin
//!   writing into a caller-owned [`Mat`](linalg::Mat) that is reshaped in place
//!   (`matmul_into`, `spmm_into`, `forward_into`/`backward_into`,
//!   `softmax_cross_entropy_into`, …). Training loops — the GCON encoder,
//!   the GCN/GAP/ProGAP baselines, `Mlp::train_cross_entropy` — hoist their
//!   buffers (`nn::MlpWorkspace`) outside the epoch loop, so steady-state
//!   epochs perform no matrix allocation.
//! - **Single-pass multi-scale propagation.** The recursion
//!   `Z_m = (1−α)ÃZ_{m−1} + αX` makes each scale a strict continuation of
//!   the previous one, so `core::propagation::propagate_multi` computes all
//!   requested scales `{m₁ < … < m_s}` (Eq. 9–11) in one sweep: `max(mᵢ)`
//!   sparse products instead of `Σ mᵢ`, with PPR `∞` as the final
//!   fixed-point segment. `concat_features` — and with it training, tuning,
//!   public inference and the figure harnesses — ride this sweep.
//! - **One PPR solver.** The PPR limit is the same recursion run to its
//!   fixed point (power iteration), which shrinks the error by at least
//!   `(1−α)` per sweep. `core::propagation::PprSolver`
//!   (`GconConfig::ppr_solver`) only chooses how an incremental refresh
//!   recomputes the limit: forward push or warm power sweeps.

pub use gcon_baselines as baselines;
pub use gcon_core as core;
pub use gcon_datasets as datasets;
pub use gcon_dp as dp;
pub use gcon_graph as graph;
pub use gcon_linalg as linalg;
pub use gcon_nn as nn;
pub use gcon_runtime as runtime;
pub use gcon_serve as serve;

/// The most common imports for using GCON end to end.
pub mod prelude {
    pub use gcon_core::infer::{private_predict, public_predict};
    pub use gcon_core::train::train_gcon;
    pub use gcon_core::{GconConfig, LossKind, PprSolver, PropagationStep, TrainedGcon};
    pub use gcon_datasets::metrics::micro_f1;
    pub use gcon_datasets::Dataset;
    pub use gcon_graph::{Csr, Graph};
    pub use gcon_linalg::Mat;
    pub use gcon_serve::{BatchConfig, BatchQueue, ServingMode, ServingModel, StoreDtype};
}
