#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! Serving layer for trained GCON models: answer node-classification
//! queries at per-query cost **O(one dense head forward)** instead of
//! O(full-graph propagation).
//!
//! # Why a serving layer
//!
//! The inference entry points in `gcon-core::infer` re-run the entire
//! propagation pipeline — encode, row-normalize, build `Ã`, propagate every
//! scale over the whole graph — on *every* call, so answering one node's
//! query costs the same as answering all of them. That is the right shape
//! for one-shot evaluation harnesses and exactly the wrong shape for a
//! service: propagated features depend only on `(model, graph, features)`,
//! none of which change between queries.
//!
//! This crate splits inference at the seam `gcon-core::infer` exposes:
//!
//! 1. [`ServingModel::build`] runs the **feature stage** once
//!    ([`gcon_core::infer::public_features`] /
//!    [`gcon_core::infer::private_features`], on the shared
//!    `gcon-runtime` pool) and stores the propagated matrix row-per-node.
//! 2. Queries run only the **head stage**: gather the queried rows and
//!    multiply by `Θ_priv` on a reusable [`gcon_nn::HeadWorkspace`] —
//!    a `batch × d × c` GEMM, independent of graph size.
//!
//! On top of the store, [`BatchQueue`] adds **dynamic micro-batching**:
//! concurrent single-node requests share one head forward — whatever
//! queued while the previous one ran, with no timer — amortizing kernel
//! dispatch and letting the pooled GEMM see serving-efficient shapes. Both
//! layers follow the workspace-wide `_into` convention — after warm-up the
//! steady state allocates nothing per batch.
//!
//! The mutation side mirrors the query side: [`DynamicServingModel`]
//! applies graph deltas incrementally and publishes immutable, versioned
//! [`ServingGeneration`]s, and [`DeltaCoalescer`] batches concurrent edits
//! the way [`BatchQueue`] batches queries — a burst of deltas merges into
//! **one** refresh and one published generation. Both are one flat
//! combiner, which answers the requests of a panicking pass with a
//! [`CombineError`] instead of hanging them.
//!
//! The networked tier puts all of this behind a socket: [`wire`] defines
//! a hand-rolled, fail-closed length-prefixed frame protocol, [`Server`]
//! is the thread-per-connection `gcond` daemon (session tokens, socket
//! timeouts, a bounded-inflight gate in front of the [`BatchQueue`]), and
//! [`GconClient`] is the matching blocking client. A store can be
//! persisted with [`ServingModel::save`] and restored with
//! [`ServingModel::load`] — a bitwise round-trip, so a daemon restart
//! costs an `open(2)` instead of a full repropagation.
//!
//! The [`fleet`] layer scales the daemon horizontally: a [`Coordinator`]
//! partitions the store into contiguous row-range shards, ships each
//! slice to `gcond --shard` workers ([`ShardWorker`]) over the same wire
//! protocol, scatter-gathers bulk queries, and — because serving is
//! bitwise-deterministic — cross-checks replicas by store *fingerprint*
//! consensus, quarantining any replica whose bytes diverge and failing
//! over when one dies.
//!
//! # Exactness and the store dtype
//!
//! Serving is not an approximation. Every dense kernel in `gcon-linalg`
//! computes each output row independently of the surrounding row partition
//! (the same property that makes results byte-identical across
//! `GCON_THREADS` and kernel tiers), so for every node, batch size, and
//! batch order the served logits are **bitwise identical** to
//! [`gcon_core::infer::public_logits`] / `private_logits` — pinned by the
//! `serving_equivalence` suite across thread counts and dispatch tiers.
//!
//! The store can instead be frozen in `f32` ([`StoreDtype::F32`], or
//! `GCON_STORE_DTYPE=f32` process-wide): the propagated features and
//! `Θ_priv` are quantized once at build time and the whole head forward
//! runs in `f32` — half the memory traffic, double the SIMD lanes — with
//! only the final `batch × c` logits widened back to `f64`. That trades
//! the cross-checked bitwise guarantee for a documented drift bound
//! ([`F32_STORE_LOGIT_TOL`]); *within* the f32 store all the determinism
//! properties above still hold bitwise. Training and the DP calibration
//! chain are untouched — they always run in `f64`. See [`StoreDtype`] for
//! the full contract.
//!
//! ```
//! use gcon_core::{train::train_gcon, GconConfig};
//! use gcon_graph::generators::{sbm_homophily, SbmConfig};
//! use gcon_linalg::Mat;
//! use gcon_serve::{ServingMode, ServingModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # let mut rng = StdRng::seed_from_u64(5);
//! # let cfg = SbmConfig { n: 30, num_edges: 90, num_classes: 2, homophily: 0.8,
//! #                       degree_exponent: 2.5 };
//! # let (graph, labels) = sbm_homophily(&cfg, &mut rng);
//! # let features = Mat::from_fn(30, 6, |i, j| if j % 2 == labels[i] { 1.0 } else { 0.0 });
//! # let features = gcon_graph::Csr::from_dense(&features);
//! # let train_idx: Vec<usize> = (0..30).collect();
//! # let mut config = GconConfig::default();
//! # config.encoder.epochs = 5;
//! # config.encoder.hidden = 8;
//! # config.encoder.d1 = 4;
//! # config.optimizer.max_iters = 30;
//! let model = train_gcon(&config, &graph, &features, &labels, &train_idx, 2, 4.0, 1e-3, &mut rng);
//!
//! // Pay the full-graph propagation once…
//! let serving = ServingModel::build(&model, &graph, &features, ServingMode::Public);
//! // …then answer queries at dense-head cost, exactly.
//! let mut session = serving.session();
//! assert_eq!(
//!     session.predict_batch(&[3, 7, 3]),
//!     &[serving.predict(3), serving.predict(7), serving.predict(3)],
//! );
//! assert_eq!(
//!     serving.predict_all(),
//!     gcon_core::infer::public_predict(&model, &graph, &features),
//! );
//! ```

mod batch;
mod client;
mod coalesce;
mod combine;
mod dynamic;
pub mod fleet;
mod model;
mod server;
pub mod wire;

pub use batch::{BatchConfig, BatchQueue, BatchStats};
pub use client::GconClient;
pub use coalesce::{CoalesceConfig, CoalesceStats, DeltaCoalescer};
pub use combine::CombineError;
pub use dynamic::{DeltaOutcome, DynamicServingModel, OnboardQuery, ServingGeneration};
pub use fleet::{ConsensusReport, Coordinator, FleetConfig, FleetError, FleetStats, ShardWorker};
pub use gcon_core::InfRefreshKind;
pub use model::{ServingMode, ServingModel, ServingSession, StoreDtype, F32_STORE_LOGIT_TOL};
pub use server::{Server, ServerConfig, ServerHandle};

/// Shared tiny trained model for this crate's unit tests (training once per
/// test binary keeps each test cheap).
#[cfg(test)]
pub(crate) mod testutil {
    use gcon_core::train::train_gcon;
    use gcon_core::{GconConfig, PropagationStep, TrainedGcon};
    use gcon_graph::generators::{sbm_homophily, SbmConfig};
    use gcon_graph::{Csr, Graph};
    use gcon_linalg::Mat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    pub(crate) fn tiny_trained() -> &'static (TrainedGcon, Graph, Csr) {
        static MODEL: OnceLock<(TrainedGcon, Graph, Csr)> = OnceLock::new();
        MODEL.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(1234);
            let cfg = SbmConfig {
                n: 48,
                num_edges: 140,
                num_classes: 3,
                homophily: 0.85,
                degree_exponent: 2.5,
            };
            let (graph, labels) = sbm_homophily(&cfg, &mut rng);
            let x = Csr::from_dense(&Mat::from_fn(48, 9, |i, j| {
                (if j % 3 == labels[i] { 1.2 } else { 0.0 })
                    + 0.3 * (((i * 11 + j * 5) % 13) as f64 / 13.0 - 0.5)
            }));
            let train_idx: Vec<usize> = (0..48).collect();
            let config = GconConfig {
                encoder: gcon_core::encoder::EncoderConfig {
                    hidden: 12,
                    d1: 6,
                    epochs: 40,
                    lr: 0.02,
                    weight_decay: 1e-5,
                },
                steps: vec![PropagationStep::Finite(0), PropagationStep::Finite(2)],
                optimizer: gcon_core::model::OptimizerConfig { max_iters: 200, grad_tol: 1e-7 },
                ..Default::default()
            };
            let model =
                train_gcon(&config, &graph, &x, &labels, &train_idx, 3, 4.0, 1e-3, &mut rng);
            (model, graph, x)
        })
    }

    /// A frozen private-mode `f64` serving store over [`tiny_trained`],
    /// built once per test binary (the fleet tests slice and ship it).
    pub(crate) fn tiny_store() -> &'static crate::ServingModel {
        use crate::{ServingMode, ServingModel, StoreDtype};
        static STORE: OnceLock<ServingModel> = OnceLock::new();
        STORE.get_or_init(|| {
            let (model, graph, x) = tiny_trained();
            ServingModel::build_with_dtype(model, graph, x, ServingMode::Private, StoreDtype::F64)
        })
    }
}
