#![warn(missing_docs)]
//! Manual-gradient neural-network stack.
//!
//! Rust has no mature autodiff for this workload, so every layer in this
//! crate carries a hand-derived backward pass, verified against central
//! finite differences in the unit tests. The stack is deliberately small —
//! exactly what the paper's pipeline needs:
//!
//! - the MLP **feature encoder** of GCON (Algorithm 3, Sec. IV-C1), trained on
//!   node features/labels only (public under edge DP);
//! - the **MLP baseline** of Figure 1 (edge-free, hence trivially edge-DP);
//! - the 2-layer **GCN baseline** (non-private upper bound) and the network
//!   heads of GAP / ProGAP / LPGNet / DPGCN in `gcon-baselines`;
//! - the **batched serving head** ([`head::HeadWorkspace`]): the
//!   gather-rows-then-linear-head forward `gcon-serve` answers queries with,
//!   on a reusable zero-alloc workspace.
//!
//! Matrix convention: activations are `n × d` (row = sample), weights are
//! `d_in × d_out`, so forward is `Y = X·W + b` and the weight gradient is
//! `Xᵀ·δ` (computed without materializing the transpose).

pub mod activations;
pub mod dropout;
pub mod head;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;

pub use activations::Activation;
pub use head::HeadWorkspace;
pub use linear::{Linear, LinearGrads};
pub use mlp::{Mlp, MlpConfig, MlpWorkspace};
pub use optim::Adam;
