//! The precomputed feature store and the query interface over it.

use gcon_core::infer::{private_features, public_features};
use gcon_core::{serialize, TrainedGcon};
use gcon_graph::{Csr, Graph};
use gcon_linalg::{reduce, Dtype, Mat};
use gcon_nn::HeadWorkspace;
use std::sync::OnceLock;

/// Which inference protocol the precomputed store reproduces (the two modes
/// of `gcon-core::infer`, Sec. IV-C6 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServingMode {
    /// Full training-time propagation of the (public) test graph — serving
    /// twin of [`gcon_core::infer::public_logits`].
    Public,
    /// One-hop aggregation `R̂ = (1−α_I)Ã + α_I·I` only (Eq. 16) — serving
    /// twin of [`gcon_core::infer::private_logits`]. Row `i` of the store
    /// still depends only on node `i`'s own edges; precomputing it changes
    /// *when* the admissible aggregation happens, not *what* is revealed.
    Private,
}

impl ServingMode {
    /// Lowercase name (`public` / `private`), for logs and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            ServingMode::Public => "public",
            ServingMode::Private => "private",
        }
    }
}

/// Element dtype of the frozen store (and of every head forward over it).
///
/// # Precision contract
///
/// - [`StoreDtype::F64`] (the default): queries are **bitwise identical**
///   to the corresponding `gcon-core::infer` entry point — the exactness
///   guarantee in the crate docs.
/// - [`StoreDtype::F32`]: the propagated store and `Θ_priv` are quantized
///   to `f32` **once at build time** (per-element relative error ≤ 2⁻²⁴),
///   and every head forward runs in `f32` end-to-end — half the memory
///   traffic and double the SIMD lanes of the f64 path — with only the
///   final `batch × c` logit block widened back to `f64` at the API
///   boundary. Logits drift from the f64 path by at most ~`d · ε_f32`
///   relative (store dimensions are small: the workspace pins an absolute
///   drift below [`F32_STORE_LOGIT_TOL`] on its test models). Within the
///   f32 path, results remain bitwise identical across batch sizes/orders,
///   `GCON_THREADS`, and kernel tiers — the determinism matrix is
///   per-dtype, exactly as in `gcon-linalg`.
///
/// Training, the DP accountants, and noise calibration always stay `f64`;
/// this knob quantizes only the *frozen serving copy* of already-released
/// quantities, so it does not touch the privacy analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreDtype {
    /// Double-precision store: exact serving (the default).
    F64,
    /// Single-precision store: fast serving within [`F32_STORE_LOGIT_TOL`].
    F32,
}

impl StoreDtype {
    /// Lowercase name (`f64` / `f32`), as accepted by `GCON_STORE_DTYPE`.
    pub fn name(self) -> &'static str {
        match self {
            StoreDtype::F64 => "f64",
            StoreDtype::F32 => "f32",
        }
    }

    /// The `gcon-linalg` dtype this store mode computes in.
    pub fn dtype(self) -> Dtype {
        match self {
            StoreDtype::F64 => Dtype::F64,
            StoreDtype::F32 => Dtype::F32,
        }
    }

    /// The process-wide default store dtype: `GCON_STORE_DTYPE` (`f64` /
    /// `f32`) if set, else [`StoreDtype::F64`]. Resolved once on first use
    /// (like `GCON_KERNEL_TIER`); an unrecognized value warns on stderr and
    /// falls back to `f64`. [`ServingModel::build`] uses this; tests and
    /// callers that need a specific dtype regardless of environment use
    /// [`ServingModel::build_with_dtype`].
    pub fn from_env() -> Self {
        static INIT: OnceLock<StoreDtype> = OnceLock::new();
        *INIT.get_or_init(|| {
            gcon_runtime::envknob::env_knob(
                "gcon-serve",
                "GCON_STORE_DTYPE",
                StoreDtype::F64,
                "f64|f32",
                "f64",
                parse_store_dtype,
            )
        })
    }
}

/// Pure parser behind [`StoreDtype::from_env`] (case-insensitive); `None`
/// is "unrecognized — fall back to f64 with a warning".
pub(crate) fn parse_store_dtype(value: &str) -> Option<StoreDtype> {
    match value.to_ascii_lowercase().as_str() {
        "f64" => Some(StoreDtype::F64),
        "f32" => Some(StoreDtype::F32),
        _ => None,
    }
}

/// Absolute logits-drift budget of the `f32` store on the workspace's test
/// models: `|logit_f32 − logit_f64| < F32_STORE_LOGIT_TOL` per entry.
///
/// Why this is comfortably safe: with store rows and `Θ_priv` entries of
/// magnitude O(1) and feature dimension `d` in the tens-to-hundreds, each
/// f32 logit accumulates ≤ `d` products each carrying ~2⁻²⁴ relative
/// rounding, for a worst-case absolute drift around `d · 2⁻²⁴ · max|x·θ|`
/// ≈ 10⁻⁵ — two orders of magnitude inside this budget. The
/// `serving_equivalence` and crate tests assert the measured drift against
/// this constant on random graphs.
pub const F32_STORE_LOGIT_TOL: f64 = 1e-3;

/// The frozen store + released parameters, in the dtype picked at build
/// time. The f32 variant holds the quantized copies; nothing f64 is kept
/// (the point is the halved resident footprint).
#[derive(Clone, Debug)]
enum StoreRepr {
    F64 {
        /// Propagated feature store, `n × d` (already `1/s`-scaled).
        store: Mat,
        /// Released parameters `Θ_priv`, `d × c`.
        theta: Mat,
    },
    F32 {
        /// Quantized store, `n × d`.
        store: Mat<f32>,
        /// Quantized `Θ_priv`, `d × c`.
        theta: Mat<f32>,
    },
}

/// Per-session head workspace in the dtype of the model it was created
/// from ([`ServingModel::session_ws`]); the forward paths match it against
/// the store representation.
#[derive(Clone, Debug)]
pub(crate) enum SessionWs {
    F64(HeadWorkspace<f64>),
    F32(HeadWorkspace<f32>),
}

/// A trained GCON model frozen for serving: the propagated feature matrix
/// (one row per node, precomputed once at build time) plus the released
/// parameters `Θ_priv`, in the [`StoreDtype`] picked at build time.
///
/// Queries index rows of the store and run only the dense head, so a query
/// costs `O(d·c)` regardless of graph size — versus the full-graph
/// propagation every `gcon-core::infer` call pays. With the default
/// [`StoreDtype::F64`] store, answers are bitwise identical to the
/// corresponding entry point (crate docs: *Exactness*); the
/// [`StoreDtype::F32`] store trades ≤ [`F32_STORE_LOGIT_TOL`] logits drift
/// for a faster, half-footprint head (see [`StoreDtype`]).
///
/// The model itself is immutable and shareable (`&ServingModel` /
/// `Arc<ServingModel>` across threads); per-thread mutable state lives in
/// [`ServingSession`] (direct calls) or inside [`crate::BatchQueue`]
/// (micro-batched calls).
#[derive(Clone, Debug)]
pub struct ServingModel {
    repr: StoreRepr,
    mode: ServingMode,
}

impl ServingModel {
    /// Builds the store by running the feature stage of `mode` once —
    /// [`gcon_core::infer::public_features`] or
    /// [`gcon_core::infer::private_features`], on the shared runtime pool —
    /// and freezing the result together with `Θ_priv`, in the process-wide
    /// default dtype ([`StoreDtype::from_env`], i.e. `GCON_STORE_DTYPE` or
    /// `f64`).
    ///
    /// Cost equals exactly one call of the corresponding inference entry
    /// point (the propagation itself always runs in `f64`; an f32 store is
    /// quantized from its result, once); every subsequent query is a
    /// dense-head forward.
    pub fn build(model: &TrainedGcon, graph: &Graph, features: &Csr, mode: ServingMode) -> Self {
        Self::build_with_dtype(model, graph, features, mode, StoreDtype::from_env())
    }

    /// [`ServingModel::build`] with an explicit store dtype, ignoring
    /// `GCON_STORE_DTYPE`. See [`StoreDtype`] for the precision contract.
    pub fn build_with_dtype(
        model: &TrainedGcon,
        graph: &Graph,
        features: &Csr,
        mode: ServingMode,
        dtype: StoreDtype,
    ) -> Self {
        assert_eq!(
            graph.num_nodes(),
            features.rows(),
            "ServingModel::build: graph has {} nodes but features have {} rows",
            graph.num_nodes(),
            features.rows()
        );
        let store = match mode {
            ServingMode::Public => public_features(model, graph, features),
            ServingMode::Private => private_features(model, graph, features),
        };
        debug_assert_eq!(store.cols(), model.theta.rows());
        let repr = match dtype {
            StoreDtype::F64 => StoreRepr::F64 { store, theta: model.theta.clone() },
            StoreDtype::F32 => {
                StoreRepr::F32 { store: store.convert(), theta: model.theta.convert() }
            }
        };
        Self { repr, mode }
    }

    /// Freezes an already-assembled f64 feature store (plus `Θ_priv`) into
    /// a serving model in `dtype` — the constructor the dynamic layer uses
    /// to publish a refreshed store generation without re-running the
    /// feature stage. The store must be the `1/s`-scaled concatenation the
    /// feature stage produces; an f32 model quantizes both inputs here,
    /// exactly like [`ServingModel::build_with_dtype`] does.
    pub(crate) fn from_store(
        store: Mat,
        theta: &Mat,
        mode: ServingMode,
        dtype: StoreDtype,
    ) -> Self {
        let repr = match dtype {
            StoreDtype::F64 => StoreRepr::F64 { store, theta: theta.clone() },
            StoreDtype::F32 => StoreRepr::F32 { store: store.convert(), theta: theta.convert() },
        };
        Self { repr, mode }
    }

    /// Number of nodes the store can answer queries for.
    pub fn num_nodes(&self) -> usize {
        match &self.repr {
            StoreRepr::F64 { store, .. } => store.rows(),
            StoreRepr::F32 { store, .. } => store.rows(),
        }
    }

    /// Number of classes (columns of every logit row).
    pub fn num_classes(&self) -> usize {
        match &self.repr {
            StoreRepr::F64 { theta, .. } => theta.cols(),
            StoreRepr::F32 { theta, .. } => theta.cols(),
        }
    }

    /// Propagated feature dimension `d = s·d₁` of the store.
    pub fn feature_dim(&self) -> usize {
        match &self.repr {
            StoreRepr::F64 { store, .. } => store.cols(),
            StoreRepr::F32 { store, .. } => store.cols(),
        }
    }

    /// Which inference protocol this store reproduces.
    pub fn mode(&self) -> ServingMode {
        self.mode
    }

    /// The dtype this store was frozen in.
    pub fn store_dtype(&self) -> StoreDtype {
        match &self.repr {
            StoreRepr::F64 { .. } => StoreDtype::F64,
            StoreRepr::F32 { .. } => StoreDtype::F32,
        }
    }

    /// The frozen f64 feature store (`num_nodes × feature_dim`), if this
    /// model was built with [`StoreDtype::F64`]. Row `i` is the stage-1
    /// feature vector of node `i`.
    pub fn store_f64(&self) -> Option<&Mat> {
        match &self.repr {
            StoreRepr::F64 { store, .. } => Some(store),
            StoreRepr::F32 { .. } => None,
        }
    }

    /// The quantized f32 feature store, if this model was built with
    /// [`StoreDtype::F32`].
    pub fn store_f32(&self) -> Option<&Mat<f32>> {
        match &self.repr {
            StoreRepr::F64 { .. } => None,
            StoreRepr::F32 { store, .. } => Some(store),
        }
    }

    /// A query session bound to this model: owns the reusable head
    /// workspace (in the store's dtype), so repeated queries through one
    /// session allocate nothing at steady state. Create one per serving
    /// thread.
    pub fn session(&self) -> ServingSession<'_> {
        ServingSession {
            model: self,
            ws: self.session_ws(),
            logits64: Mat::default(),
            preds: Vec::new(),
        }
    }

    /// A head workspace matching this model's store dtype (for
    /// [`crate::BatchQueue`], which owns its own instead of a session).
    pub(crate) fn session_ws(&self) -> SessionWs {
        match &self.repr {
            StoreRepr::F64 { .. } => SessionWs::F64(HeadWorkspace::new()),
            StoreRepr::F32 { .. } => SessionWs::F32(HeadWorkspace::new()),
        }
    }

    /// Logits of one node (allocating convenience; serving loops use
    /// [`ServingSession::logits_into`] or the batched paths instead).
    pub fn logits(&self, node: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.session().logits_into(node, &mut out);
        out
    }

    /// Hard class prediction of one node (allocating convenience).
    pub fn predict(&self, node: usize) -> usize {
        let mut session = self.session();
        session.predict(node)
    }

    /// Hard predictions for **every** node in the store — the full-graph
    /// answer [`gcon_core::infer::public_predict`] / `private_predict`
    /// produce, here at head-only cost. (Argmax commutes with the monotone
    /// `f32 → f64` widening, so this is the same per-dtype answer every
    /// query path gives.)
    pub fn predict_all(&self) -> Vec<usize> {
        match &self.repr {
            StoreRepr::F64 { store, theta } => {
                reduce::row_argmax(&gcon_linalg::ops::matmul(store, theta))
            }
            StoreRepr::F32 { store, theta } => {
                reduce::row_argmax(&gcon_linalg::ops::matmul(store, theta))
            }
        }
    }

    /// The head forward every query path funnels through: gather `nodes`
    /// from the store, multiply by `Θ_priv` on `ws` (in the store dtype),
    /// and write the `batch × c` logits into `out` — widened to `f64` for
    /// the f32 store, copied bitwise for the f64 store. The widening/copy
    /// touches only `batch × c` elements, negligible next to the
    /// `batch × d × c` GEMM.
    pub(crate) fn forward_widen_into(&self, nodes: &[usize], ws: &mut SessionWs, out: &mut Mat) {
        let n = self.num_nodes();
        for &node in nodes {
            assert!(node < n, "ServingModel: query for node {node} but the store has {n} nodes");
        }
        match (&self.repr, ws) {
            (StoreRepr::F64 { store, theta }, SessionWs::F64(ws)) => {
                let logits = ws.forward(store, nodes, theta);
                out.reset_to_zeros(logits.rows(), logits.cols());
                out.as_mut_slice().copy_from_slice(logits.as_slice());
            }
            (StoreRepr::F32 { store, theta }, SessionWs::F32(ws)) => {
                let logits = ws.forward(store, nodes, theta);
                out.reset_to_zeros(logits.rows(), logits.cols());
                for (o, &v) in out.as_mut_slice().iter_mut().zip(logits.as_slice()) {
                    *o = v as f64;
                }
            }
            // `SessionWs` values only come from `session_ws()` on the same
            // model, so the dtypes always agree.
            _ => unreachable!("ServingModel: session workspace dtype does not match the store"),
        }
    }

    // ------------------------------------------------- sharding / slicing

    /// A serving model holding only store rows `start..end` (same `Θ_priv`,
    /// mode, and dtype). The slice is a **bitwise copy** — no arithmetic —
    /// so for every global node `g` in `start..end`, `slice.logits(g -
    /// start)` is bitwise equal to `self.logits(g)` (each store row's head
    /// forward depends only on that row and `Θ_priv`). This is the unit a
    /// fleet shard serves; combine with [`ServingModel::to_bytes`] for the
    /// wire handoff, or use [`ServingModel::slice_bytes`] directly.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > num_nodes()` (coordinator-side
    /// shapes are trusted; the decode surface stays fail-closed).
    pub fn slice_rows(&self, start: usize, end: usize) -> ServingModel {
        let repr = match &self.repr {
            StoreRepr::F64 { store, theta } => {
                let art =
                    serialize::StoreArtifact::F64 { store: store.clone(), theta: theta.clone() }
                        .slice_rows(start, end);
                let serialize::StoreArtifact::F64 { store, theta } = art else { unreachable!() };
                StoreRepr::F64 { store, theta }
            }
            StoreRepr::F32 { store, theta } => {
                let art =
                    serialize::StoreArtifact::F32 { store: store.clone(), theta: theta.clone() }
                        .slice_rows(start, end);
                let serialize::StoreArtifact::F32 { store, theta } = art else { unreachable!() };
                StoreRepr::F32 { store, theta }
            }
        };
        Self { repr, mode: self.mode }
    }

    /// The encoded **store-slice artifact** for rows `start..end` — the
    /// shard-handoff payload a coordinator ships in a `ShardAssign` frame.
    /// The bytes are an ordinary v3 store artifact of the slice, so the
    /// worker decodes them with the same fail-closed
    /// [`ServingModel::from_bytes`] path used for whole stores.
    pub fn slice_bytes(&self, start: usize, end: usize) -> bytes::Bytes {
        self.slice_rows(start, end).to_bytes()
    }

    /// Per-chunk fingerprints of the frozen store: one FNV-1a-64 hash over
    /// the **bit patterns** of each `chunk_rows`-row block of the store,
    /// plus one final element hashing `Θ_priv`. Because every query path is
    /// bitwise-deterministic, two replicas holding the same slice must
    /// report identical fingerprints — this is the whole consensus check of
    /// the fleet layer; a single flipped mantissa bit anywhere in a chunk
    /// changes that chunk's fingerprint.
    ///
    /// # Panics
    /// Panics if `chunk_rows == 0`.
    pub fn chunk_fingerprints(&self, chunk_rows: usize) -> Vec<u64> {
        assert!(chunk_rows >= 1, "chunk_fingerprints: chunk_rows must be ≥ 1");
        let mut out = Vec::new();
        match &self.repr {
            StoreRepr::F64 { store, theta } => {
                let row = store.cols().max(1);
                for chunk in store.as_slice().chunks(chunk_rows * row) {
                    out.push(fnv1a_u64(chunk.iter().map(|v| v.to_bits())));
                }
                out.push(fnv1a_u64(theta.as_slice().iter().map(|v| v.to_bits())));
            }
            StoreRepr::F32 { store, theta } => {
                let row = store.cols().max(1);
                for chunk in store.as_slice().chunks(chunk_rows * row) {
                    out.push(fnv1a_u64(chunk.iter().map(|v| u64::from(v.to_bits()))));
                }
                out.push(fnv1a_u64(theta.as_slice().iter().map(|v| u64::from(v.to_bits()))));
            }
        }
        out
    }

    // ------------------------------------------------------- persistence

    /// Serializes the frozen store to the v3 store artifact
    /// ([`gcon_core::serialize::store_to_bytes`]): mode, dtype, and both
    /// payloads bitwise, 8-byte-aligned for a future zero-copy mmap reader.
    pub fn to_bytes(&self) -> bytes::Bytes {
        let data = match &self.repr {
            StoreRepr::F64 { store, theta } => {
                serialize::StoreArtifact::F64 { store: store.clone(), theta: theta.clone() }
            }
            StoreRepr::F32 { store, theta } => {
                serialize::StoreArtifact::F32 { store: store.clone(), theta: theta.clone() }
            }
        };
        serialize::store_to_bytes(&serialize::PersistedStore {
            mode_tag: match self.mode {
                ServingMode::Public => 0,
                ServingMode::Private => 1,
            },
            data,
        })
    }

    /// Decodes a model persisted by [`ServingModel::to_bytes`] /
    /// [`ServingModel::save`]. The restored store is **bitwise identical**
    /// to the one that was saved — no propagation, no re-quantization —
    /// which is the whole point: restart cost is reading the file, not
    /// re-running the feature stage.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, serialize::DecodeError> {
        let persisted = serialize::store_from_bytes(bytes)?;
        let mode = match persisted.mode_tag {
            0 => ServingMode::Public,
            1 => ServingMode::Private,
            t => return Err(serialize::DecodeError::BadTag("serving mode", t)),
        };
        let repr = match persisted.data {
            serialize::StoreArtifact::F64 { store, theta } => {
                if store.cols() != theta.rows() {
                    return Err(serialize::DecodeError::Invalid(
                        "store feature dim does not match theta rows",
                    ));
                }
                StoreRepr::F64 { store, theta }
            }
            serialize::StoreArtifact::F32 { store, theta } => {
                if store.cols() != theta.rows() {
                    return Err(serialize::DecodeError::Invalid(
                        "store feature dim does not match theta rows",
                    ));
                }
                StoreRepr::F32 { store, theta }
            }
        };
        Ok(Self { repr, mode })
    }

    /// Writes the store artifact to a file (see [`ServingModel::to_bytes`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a store artifact back from a file — O(file size), the restart
    /// path `gcond --store` uses instead of re-propagating the graph.
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// FNV-1a over the little-endian bytes of each 64-bit word — the stable,
/// dependency-free hash behind [`ServingModel::chunk_fingerprints`].
fn fnv1a_u64(words: impl Iterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    hash
}

/// A per-thread query interface over a [`ServingModel`]: the model is shared
/// immutably, the session owns the mutable workspace buffers (head
/// workspace in the store dtype + the widened `f64` logit block). At steady
/// state (buffers grown to the largest batch seen) no query path allocates.
#[derive(Clone, Debug)]
pub struct ServingSession<'m> {
    model: &'m ServingModel,
    ws: SessionWs,
    logits64: Mat,
    preds: Vec<usize>,
}

impl ServingSession<'_> {
    /// Logit rows for a batch of nodes, always as `f64`: with an f64 store,
    /// row `r` is bitwise equal to the logits of node `nodes[r]` from the
    /// corresponding `gcon-core::infer` entry point, for any batch
    /// size/order (duplicates allowed); with an f32 store, row `r` is the
    /// widened f32 logits, within [`F32_STORE_LOGIT_TOL`] of that
    /// reference and itself batch-invariant bitwise.
    pub fn logits_batch(&mut self, nodes: &[usize]) -> &Mat {
        self.model.forward_widen_into(nodes, &mut self.ws, &mut self.logits64);
        &self.logits64
    }

    /// Logits of a single node written into `out` (cleared and refilled;
    /// the caller's allocation is reused across calls).
    pub fn logits_into(&mut self, node: usize, out: &mut Vec<f64>) {
        self.model.forward_widen_into(
            std::slice::from_ref(&node),
            &mut self.ws,
            &mut self.logits64,
        );
        out.clear();
        out.extend_from_slice(self.logits64.row(0));
    }

    /// Hard class prediction of a single node.
    pub fn predict(&mut self, node: usize) -> usize {
        self.model.forward_widen_into(
            std::slice::from_ref(&node),
            &mut self.ws,
            &mut self.logits64,
        );
        gcon_linalg::vecops::argmax(self.logits64.row(0))
    }

    /// Hard predictions for a batch of nodes (position `r` answers
    /// `nodes[r]`). The returned slice borrows a session buffer that is
    /// overwritten by the next call.
    pub fn predict_batch(&mut self, nodes: &[usize]) -> &[usize] {
        self.model.forward_widen_into(nodes, &mut self.ws, &mut self.logits64);
        self.preds.clear();
        self.preds.extend(self.logits64.rows_iter().map(gcon_linalg::vecops::argmax));
        &self.preds
    }

    /// The model this session queries.
    pub fn model(&self) -> &ServingModel {
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_trained;
    use gcon_core::infer::{private_logits, public_logits};

    #[test]
    fn build_reports_shapes_and_mode() {
        let (model, graph, x) = tiny_trained();
        for dtype in [StoreDtype::F64, StoreDtype::F32] {
            for mode in [ServingMode::Public, ServingMode::Private] {
                let serving = ServingModel::build_with_dtype(model, graph, x, mode, dtype);
                assert_eq!(serving.num_nodes(), graph.num_nodes());
                assert_eq!(serving.num_classes(), model.num_classes);
                assert_eq!(serving.feature_dim(), model.dim());
                assert_eq!(serving.mode(), mode);
                assert_eq!(serving.store_dtype(), dtype);
                let shape = (graph.num_nodes(), model.dim());
                match dtype {
                    StoreDtype::F64 => {
                        assert_eq!(serving.store_f64().unwrap().shape(), shape);
                        assert!(serving.store_f32().is_none());
                    }
                    StoreDtype::F32 => {
                        assert_eq!(serving.store_f32().unwrap().shape(), shape);
                        assert!(serving.store_f64().is_none());
                    }
                }
            }
        }
        assert_eq!(ServingMode::Public.name(), "public");
        assert_eq!(ServingMode::Private.name(), "private");
        assert_eq!(StoreDtype::F64.name(), "f64");
        assert_eq!(StoreDtype::F32.name(), "f32");
        assert_eq!(StoreDtype::F64.dtype(), gcon_linalg::Dtype::F64);
        assert_eq!(StoreDtype::F32.dtype(), gcon_linalg::Dtype::F32);
    }

    /// `save` → `load` restores the exact frozen store: bitwise-equal
    /// payloads in both dtypes and modes, and bitwise-equal query answers —
    /// the restart path does no arithmetic at all.
    #[test]
    fn save_load_restores_store_bitwise() {
        let (model, graph, x) = tiny_trained();
        let dir = std::env::temp_dir().join("gcon_serve_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        for dtype in [StoreDtype::F64, StoreDtype::F32] {
            for mode in [ServingMode::Public, ServingMode::Private] {
                let built = ServingModel::build_with_dtype(model, graph, x, mode, dtype);
                let path = dir.join(format!("{}_{}.gconstore", mode.name(), dtype.name()));
                built.save(&path).unwrap();
                let loaded = ServingModel::load(&path).unwrap();
                assert_eq!(loaded.mode(), mode);
                assert_eq!(loaded.store_dtype(), dtype);
                match dtype {
                    StoreDtype::F64 => assert_eq!(
                        loaded.store_f64().unwrap().as_slice(),
                        built.store_f64().unwrap().as_slice()
                    ),
                    StoreDtype::F32 => assert_eq!(
                        loaded.store_f32().unwrap().as_slice(),
                        built.store_f32().unwrap().as_slice()
                    ),
                }
                for node in [0, 7, graph.num_nodes() - 1] {
                    assert_eq!(
                        loaded.logits(node),
                        built.logits(node),
                        "{} {} node {node}: loaded store must answer bitwise-identically",
                        mode.name(),
                        dtype.name()
                    );
                }
                std::fs::remove_file(&path).unwrap();
            }
        }
    }

    #[test]
    fn from_bytes_rejects_model_artifacts_and_garbage() {
        let (model, _, _) = tiny_trained();
        let model_bytes = gcon_core::serialize::to_bytes(model);
        assert!(ServingModel::from_bytes(&model_bytes).is_err());
        assert!(ServingModel::from_bytes(b"not a store").is_err());
        assert!(ServingModel::from_bytes(&[]).is_err());
    }

    #[test]
    fn single_queries_match_entry_points_bitwise() {
        let (model, graph, x) = tiny_trained();
        for (mode, reference) in [
            (ServingMode::Public, public_logits(model, graph, x)),
            (ServingMode::Private, private_logits(model, graph, x)),
        ] {
            let serving = ServingModel::build_with_dtype(model, graph, x, mode, StoreDtype::F64);
            let mut session = serving.session();
            let mut out = Vec::new();
            for node in 0..serving.num_nodes() {
                session.logits_into(node, &mut out);
                assert_eq!(out.as_slice(), reference.row(node), "{} node {node}", mode.name());
                assert_eq!(serving.logits(node), reference.row(node));
                assert_eq!(session.predict(node), serving.predict(node));
            }
            assert_eq!(serving.predict_all(), gcon_linalg::reduce::row_argmax(&reference));
        }
    }

    /// The f32 store's accuracy contract: every query path stays within
    /// [`F32_STORE_LOGIT_TOL`] of the f64 reference — with two orders of
    /// magnitude to spare on this model — and hard predictions agree.
    #[test]
    fn f32_store_logits_drift_within_contract() {
        let (model, graph, x) = tiny_trained();
        for (mode, reference) in [
            (ServingMode::Public, public_logits(model, graph, x)),
            (ServingMode::Private, private_logits(model, graph, x)),
        ] {
            let serving = ServingModel::build_with_dtype(model, graph, x, mode, StoreDtype::F32);
            let mut session = serving.session();
            let mut out = Vec::new();
            let mut max_drift: f64 = 0.0;
            for node in 0..serving.num_nodes() {
                session.logits_into(node, &mut out);
                for (a, b) in out.iter().zip(reference.row(node)) {
                    max_drift = max_drift.max((a - b).abs());
                }
            }
            assert!(
                max_drift < F32_STORE_LOGIT_TOL,
                "{}: f32 drift {max_drift:e} exceeds contract {F32_STORE_LOGIT_TOL:e}",
                mode.name()
            );
            // The documented bound argument says the real drift is ~1e-5;
            // leave headroom but catch a broken kernel masquerading as ok.
            assert!(max_drift < F32_STORE_LOGIT_TOL / 10.0, "drift suspiciously large");
            assert_eq!(serving.predict_all(), gcon_linalg::reduce::row_argmax(&reference));
        }
    }

    /// Within the f32 dtype, batching is still exact: any batch reproduces
    /// the single-query answers bitwise (the per-dtype determinism
    /// contract).
    #[test]
    fn f32_batched_queries_match_f32_single_queries_bitwise() {
        let (model, graph, x) = tiny_trained();
        let serving =
            ServingModel::build_with_dtype(model, graph, x, ServingMode::Public, StoreDtype::F32);
        let n = serving.num_nodes();
        let mut session = serving.session();
        let singles: Vec<Vec<f64>> = (0..n).map(|i| serving.logits(i)).collect();
        for nodes in [(0..n).rev().collect::<Vec<_>>(), vec![5, 5, 5], vec![n - 1]] {
            let logits = session.logits_batch(&nodes);
            for (r, &node) in nodes.iter().enumerate() {
                assert_eq!(logits.row(r), singles[node].as_slice(), "row {r} (node {node})");
            }
            let preds = session.predict_batch(&nodes).to_vec();
            for (r, &node) in nodes.iter().enumerate() {
                assert_eq!(preds[r], serving.predict(node));
            }
        }
    }

    #[test]
    fn batched_queries_match_sequential_bitwise_in_any_order() {
        let (model, graph, x) = tiny_trained();
        let serving =
            ServingModel::build_with_dtype(model, graph, x, ServingMode::Public, StoreDtype::F64);
        let reference = public_logits(model, graph, x);
        let n = serving.num_nodes();
        let mut session = serving.session();
        let batches: Vec<Vec<usize>> = vec![
            (0..n).collect(),
            (0..n).rev().collect(),
            vec![5, 5, 5, 5],
            vec![n - 1],
            (0..n).map(|i| (i * 7) % n).collect(),
        ];
        for nodes in &batches {
            let logits = session.logits_batch(nodes);
            assert_eq!(logits.shape(), (nodes.len(), serving.num_classes()));
            for (r, &node) in nodes.iter().enumerate() {
                assert_eq!(logits.row(r), reference.row(node), "row {r} (node {node})");
            }
            let preds = session.predict_batch(nodes).to_vec();
            for (r, &node) in nodes.iter().enumerate() {
                assert_eq!(preds[r], gcon_linalg::vecops::argmax(reference.row(node)));
            }
        }
    }

    /// Slicing is the fleet's correctness kernel: for every dtype, a row
    /// slice answers its global nodes bitwise-identically to the unsliced
    /// store, and the encoded slice round-trips through the ordinary store
    /// decoder.
    #[test]
    fn slice_rows_answers_bitwise_and_roundtrips() {
        let (model, graph, x) = tiny_trained();
        let n = graph.num_nodes();
        for dtype in [StoreDtype::F64, StoreDtype::F32] {
            let full = ServingModel::build_with_dtype(model, graph, x, ServingMode::Private, dtype);
            for (start, end) in [(0, n / 2), (n / 2, n), (3, 3), (0, n)] {
                let slice = full.slice_rows(start, end);
                assert_eq!(slice.num_nodes(), end - start);
                assert_eq!(slice.num_classes(), full.num_classes());
                assert_eq!(slice.mode(), full.mode());
                assert_eq!(slice.store_dtype(), dtype);
                for g in start..end {
                    assert_eq!(slice.logits(g - start), full.logits(g), "node {g}");
                }
                let decoded = ServingModel::from_bytes(&full.slice_bytes(start, end)).unwrap();
                if end > start {
                    assert_eq!(decoded.logits(0), full.logits(start));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_rows_rejects_bad_range() {
        let (model, graph, x) = tiny_trained();
        let full = ServingModel::build(model, graph, x, ServingMode::Public);
        let n = full.num_nodes();
        let _ = full.slice_rows(1, n + 1);
    }

    /// Fingerprints are the consensus primitive: equal slices agree, any
    /// bit flip in any chunk (or in theta) disagrees, and the chunk count
    /// is ⌈rows / chunk_rows⌉ + 1 (the trailing theta fingerprint).
    #[test]
    fn chunk_fingerprints_detect_any_flip() {
        let (model, graph, x) = tiny_trained();
        for dtype in [StoreDtype::F64, StoreDtype::F32] {
            let a = ServingModel::build_with_dtype(model, graph, x, ServingMode::Public, dtype);
            let b = ServingModel::from_bytes(&a.to_bytes()).unwrap();
            let n = a.num_nodes();
            for chunk_rows in [1, 7, n, n + 5] {
                let fa = a.chunk_fingerprints(chunk_rows);
                assert_eq!(fa.len(), n.div_ceil(chunk_rows) + 1);
                assert_eq!(fa, b.chunk_fingerprints(chunk_rows), "replicas must agree");
            }
            // A half slice agrees with the full store's matching prefix
            // only when chunk boundaries line up — and always with itself.
            let half = a.slice_rows(0, n / 2);
            assert_eq!(
                half.chunk_fingerprints(n / 2).first(),
                a.chunk_fingerprints(n / 2).first(),
                "aligned chunk of the same rows must hash identically"
            );
        }
        // Flipping one payload bit flips the owning chunk's fingerprint.
        let a =
            ServingModel::build_with_dtype(model, graph, x, ServingMode::Public, StoreDtype::F64);
        let mut bytes = a.to_bytes().to_vec();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        let corrupted = ServingModel::from_bytes(&bytes).unwrap();
        assert_ne!(a.chunk_fingerprints(8), corrupted.chunk_fingerprints(8));
    }

    #[test]
    #[should_panic(expected = "the store has")]
    fn out_of_bounds_query_panics() {
        let (model, graph, x) = tiny_trained();
        let serving = ServingModel::build(model, graph, x, ServingMode::Public);
        serving.predict(serving.num_nodes());
    }
}
