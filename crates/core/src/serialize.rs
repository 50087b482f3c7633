//! Binary serialization of released models.
//!
//! The paper's deployment story (Sec. IV-C6) is that a server *publishes*
//! the trained `Θ_priv` — the privacy guarantee covers exactly this release.
//! A downstream user therefore needs a durable on-disk representation of
//! [`TrainedGcon`]: the parameters, the (public) feature encoder, the full
//! hyperparameter configuration, and the privacy report documenting what
//! `(ε, δ)` the artifact was trained under.
//!
//! Format: a little-endian tag-free binary layout (`b"GCON"` magic +
//! version), written and parsed with the `bytes` crate. Decoding is
//! fail-closed: any truncation, bad magic, unknown enum tag or non-finite
//! dimension yields a [`DecodeError`] instead of a partially-built model.
//! Since version 3 the same container also carries a second artifact kind —
//! a persisted serving feature store ([`StoreArtifact`], written by
//! `gcon-serve`'s `ServingModel::save`) whose matrix payloads are 8-byte
//! aligned relative to the stream start, so a later `mmap` of the file can
//! point at them zero-copy.
//!
//! This module is also the byte-level trust boundary of the `gcond` wire
//! protocol: the primitive readers ([`get_u8`] … [`get_f64`]) are public so
//! `gcon-serve::wire` parses network frames with exactly the same
//! fail-closed discipline, and every decode path bounds its allocations by
//! the bytes actually present (a hostile header cannot provoke an
//! oversized allocation, let alone a panic).

use crate::encoder::EncoderConfig;
use crate::encoder::FeatureEncoder;
use crate::loss::LossKind;
use crate::model::{GconConfig, OptimizerConfig, PrivacyReport, TrainedGcon};
use crate::params::TheoremOneParams;
use crate::propagation::{PprSolver, PropagationStep};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gcon_linalg::Mat;
use gcon_nn::{Activation, Linear, Mlp};

/// Magic prefix of the format.
pub const MAGIC: &[u8; 4] = b"GCON";
/// Current format version. Version 2 added the `ppr_solver` tag to the
/// configuration block; version 3 added an artifact-kind tag after the
/// version so the container can also carry a persisted serving feature
/// store ([`StoreArtifact`]) with 8-byte-aligned payloads. Version-1/2
/// streams still decode (v1 defaults the solver to `PprSolver::Auto`).
pub const VERSION: u16 = 3;
/// Oldest format version [`from_bytes`] still decodes.
pub const MIN_VERSION: u16 = 1;

/// Artifact-kind tag of a v3 stream: a trained model ([`TrainedGcon`]).
pub const ARTIFACT_MODEL: u8 = 0;
/// Artifact-kind tag of a v3 stream: a serving store ([`StoreArtifact`]).
pub const ARTIFACT_STORE: u8 = 1;

/// Why a byte stream failed to decode into a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ended before the structure was complete.
    Truncated,
    /// The stream does not start with the `GCON` magic.
    BadMagic,
    /// The format version lies outside the `MIN_VERSION..=VERSION` range
    /// this library understands.
    UnsupportedVersion(u16),
    /// An enum tag had no defined meaning.
    BadTag(&'static str, u8),
    /// A structural invariant failed (dimension mismatch, empty layers, …).
    Invalid(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "byte stream truncated"),
            Self::BadMagic => write!(f, "missing GCON magic prefix"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            Self::BadTag(what, t) => write!(f, "invalid {what} tag {t}"),
            Self::Invalid(what) => write!(f, "structural invariant violated: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ------------------------------------------------------------- primitives

/// Checked dimension/length encode: the format stores matrix dimensions and
/// vector lengths as `u32`, so a value that does not fit would previously
/// truncate silently (`as u32`) and round-trip to a *different*, corrupt
/// object. Encoding is infallible for every representable model, so the
/// overflow case asserts instead of threading a `Result` through every
/// writer.
///
/// # Panics
/// Panics when `n > u32::MAX` (only reachable on 64-bit targets, and only
/// for objects far beyond what the format — or memory — supports).
fn dim_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).unwrap_or_else(|_| {
        panic!("gcon serialize: {what} = {n} exceeds the format's u32 dimension limit")
    })
}

fn put_mat(buf: &mut BytesMut, m: &Mat) {
    buf.put_u32_le(dim_u32(m.rows(), "matrix rows"));
    buf.put_u32_le(dim_u32(m.cols(), "matrix cols"));
    for &v in m.as_slice() {
        buf.put_f64_le(v);
    }
}

/// Reads one byte, fail-closed on truncation.
pub fn get_u8(buf: &mut Bytes) -> Result<u8, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Reads a little-endian `u16`, fail-closed on truncation.
pub fn get_u16(buf: &mut Bytes) -> Result<u16, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u16_le())
}

/// Reads a little-endian `u32`, fail-closed on truncation.
pub fn get_u32(buf: &mut Bytes) -> Result<u32, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u32_le())
}

/// Reads a little-endian `u64`, fail-closed on truncation.
pub fn get_u64(buf: &mut Bytes) -> Result<u64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_u64_le())
}

/// Reads a little-endian `f64`, fail-closed on truncation.
pub fn get_f64(buf: &mut Bytes) -> Result<f64, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    Ok(buf.get_f64_le())
}

/// Checks that `count` elements of `elem_size` bytes are actually present
/// before any allocation happens. The arithmetic is checked: a hostile
/// header advertising `u32::MAX × u32::MAX` elements must yield
/// `Err(Truncated)` here, not an overflowed length that slips past the
/// bounds check into a giant `Vec::with_capacity`.
fn check_payload(buf: &Bytes, count: usize, elem_size: usize) -> Result<(), DecodeError> {
    let bytes = count.checked_mul(elem_size).ok_or(DecodeError::Truncated)?;
    if buf.remaining() < bytes {
        return Err(DecodeError::Truncated);
    }
    Ok(())
}

fn get_mat(buf: &mut Bytes) -> Result<Mat, DecodeError> {
    let rows = get_u32(buf)? as usize;
    let cols = get_u32(buf)? as usize;
    let len = rows.checked_mul(cols).ok_or(DecodeError::Invalid("matrix dimensions overflow"))?;
    check_payload(buf, len, 8)?;
    let mut data = Vec::with_capacity(len);
    for _ in 0..len {
        data.push(buf.get_f64_le());
    }
    Ok(Mat::from_vec(rows, cols, data))
}

fn put_vec_f64(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u32_le(dim_u32(v.len(), "vector length"));
    for &x in v {
        buf.put_f64_le(x);
    }
}

fn get_vec_f64(buf: &mut Bytes) -> Result<Vec<f64>, DecodeError> {
    let len = get_u32(buf)? as usize;
    check_payload(buf, len, 8)?;
    Ok((0..len).map(|_| buf.get_f64_le()).collect())
}

// ------------------------------------------------------------ components

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::Tanh => 1,
        Activation::Sigmoid => 2,
        Activation::Identity => 3,
    }
}

fn activation_from_tag(t: u8) -> Result<Activation, DecodeError> {
    Ok(match t {
        0 => Activation::Relu,
        1 => Activation::Tanh,
        2 => Activation::Sigmoid,
        3 => Activation::Identity,
        _ => return Err(DecodeError::BadTag("activation", t)),
    })
}

fn put_linear(buf: &mut BytesMut, l: &Linear) {
    put_mat(buf, &l.w);
    put_vec_f64(buf, &l.b);
}

fn get_linear(buf: &mut Bytes) -> Result<Linear, DecodeError> {
    let w = get_mat(buf)?;
    let b = get_vec_f64(buf)?;
    if b.len() != w.cols() {
        return Err(DecodeError::Invalid("linear bias length"));
    }
    Ok(Linear { w, b })
}

fn put_mlp(buf: &mut BytesMut, net: &Mlp) {
    buf.put_u32_le(dim_u32(net.layers.len(), "MLP depth"));
    for l in &net.layers {
        put_linear(buf, l);
    }
    let (h, o) = net.activations();
    buf.put_u8(activation_tag(h));
    buf.put_u8(activation_tag(o));
}

fn get_mlp(buf: &mut Bytes) -> Result<Mlp, DecodeError> {
    let depth = get_u32(buf)? as usize;
    if depth == 0 {
        return Err(DecodeError::Invalid("empty MLP"));
    }
    let mut layers = Vec::with_capacity(depth);
    for _ in 0..depth {
        layers.push(get_linear(buf)?);
    }
    for w in layers.windows(2) {
        if w[0].d_out() != w[1].d_in() {
            return Err(DecodeError::Invalid("MLP layer dims do not chain"));
        }
    }
    let h = activation_from_tag(get_u8(buf)?)?;
    let o = activation_from_tag(get_u8(buf)?)?;
    Ok(Mlp::from_parts(layers, h, o))
}

fn put_step(buf: &mut BytesMut, s: PropagationStep) {
    match s {
        PropagationStep::Finite(m) => {
            buf.put_u8(0);
            buf.put_u64_le(m as u64);
        }
        PropagationStep::Infinite => buf.put_u8(1),
    }
}

fn get_step(buf: &mut Bytes) -> Result<PropagationStep, DecodeError> {
    match get_u8(buf)? {
        0 => Ok(PropagationStep::Finite(get_u64(buf)? as usize)),
        1 => Ok(PropagationStep::Infinite),
        t => Err(DecodeError::BadTag("propagation step", t)),
    }
}

fn put_loss(buf: &mut BytesMut, l: LossKind) {
    match l {
        LossKind::MultiLabelSoftMargin => buf.put_u8(0),
        LossKind::PseudoHuber { delta } => {
            buf.put_u8(1);
            buf.put_f64_le(delta);
        }
    }
}

fn get_loss(buf: &mut Bytes) -> Result<LossKind, DecodeError> {
    match get_u8(buf)? {
        0 => Ok(LossKind::MultiLabelSoftMargin),
        1 => Ok(LossKind::PseudoHuber { delta: get_f64(buf)? }),
        t => Err(DecodeError::BadTag("loss kind", t)),
    }
}

fn put_config(buf: &mut BytesMut, cfg: &GconConfig, version: u16) {
    buf.put_u64_le(cfg.encoder.hidden as u64);
    buf.put_u64_le(cfg.encoder.d1 as u64);
    buf.put_u64_le(cfg.encoder.epochs as u64);
    buf.put_f64_le(cfg.encoder.lr);
    buf.put_f64_le(cfg.encoder.weight_decay);
    buf.put_f64_le(cfg.alpha);
    buf.put_u32_le(dim_u32(cfg.steps.len(), "step count"));
    for &s in &cfg.steps {
        put_step(buf, s);
    }
    buf.put_f64_le(cfg.lambda);
    put_loss(buf, cfg.loss);
    buf.put_f64_le(cfg.omega);
    buf.put_f64_le(cfg.alpha_inference);
    buf.put_u8(cfg.expand_train_set as u8);
    buf.put_f64_le(cfg.clip_p);
    if version >= 2 {
        buf.put_u8(match cfg.ppr_solver {
            PprSolver::Auto => 0,
            PprSolver::Power => 1,
            PprSolver::Push => 3,
        });
    }
    buf.put_f64_le(0.0); // retired Adam learning-rate slot
    buf.put_u64_le(cfg.optimizer.max_iters as u64);
    buf.put_f64_le(cfg.optimizer.grad_tol);
}

fn get_config(buf: &mut Bytes, version: u16) -> Result<GconConfig, DecodeError> {
    let encoder = EncoderConfig {
        hidden: get_u64(buf)? as usize,
        d1: get_u64(buf)? as usize,
        epochs: get_u64(buf)? as usize,
        lr: get_f64(buf)?,
        weight_decay: get_f64(buf)?,
    };
    let alpha = get_f64(buf)?;
    let num_steps = get_u32(buf)? as usize;
    let mut steps = Vec::with_capacity(num_steps);
    for _ in 0..num_steps {
        steps.push(get_step(buf)?);
    }
    let lambda = get_f64(buf)?;
    let loss = get_loss(buf)?;
    let omega = get_f64(buf)?;
    let alpha_inference = get_f64(buf)?;
    let expand_train_set = match get_u8(buf)? {
        0 => false,
        1 => true,
        t => return Err(DecodeError::BadTag("bool", t)),
    };
    let clip_p = get_f64(buf)?;
    // Version 1 predates the solver tag; those models used what is now the
    // Auto selection.
    let ppr_solver = if version >= 2 {
        match get_u8(buf)? {
            0 => PprSolver::Auto,
            1 => PprSolver::Power,
            // Tag 2 was the retired block-CGNR solver, a global solve like
            // power iteration; artifacts that carry it load as `Power`.
            2 => PprSolver::Power,
            3 => PprSolver::Push,
            t => return Err(DecodeError::BadTag("ppr solver", t)),
        }
    } else {
        PprSolver::Auto
    };
    // The retired Adam learning-rate slot: read and discarded.
    get_f64(buf)?;
    let optimizer = OptimizerConfig { max_iters: get_u64(buf)? as usize, grad_tol: get_f64(buf)? };
    Ok(GconConfig {
        encoder,
        alpha,
        steps,
        lambda,
        loss,
        omega,
        alpha_inference,
        expand_train_set,
        clip_p,
        ppr_solver,
        optimizer,
    })
}

fn put_report(buf: &mut BytesMut, r: &PrivacyReport) {
    buf.put_f64_le(r.eps);
    buf.put_f64_le(r.delta);
    buf.put_f64_le(r.psi_z);
    buf.put_f64_le(r.params.lambda_eff);
    buf.put_f64_le(r.params.csf);
    buf.put_f64_le(r.params.c_theta);
    buf.put_f64_le(r.params.eps_lambda);
    buf.put_f64_le(r.params.lambda_prime);
    buf.put_f64_le(r.params.beta);
    buf.put_u64_le(r.n1 as u64);
}

fn get_report(buf: &mut Bytes) -> Result<PrivacyReport, DecodeError> {
    Ok(PrivacyReport {
        eps: get_f64(buf)?,
        delta: get_f64(buf)?,
        psi_z: get_f64(buf)?,
        params: TheoremOneParams {
            lambda_eff: get_f64(buf)?,
            csf: get_f64(buf)?,
            c_theta: get_f64(buf)?,
            eps_lambda: get_f64(buf)?,
            lambda_prime: get_f64(buf)?,
            beta: get_f64(buf)?,
        },
        n1: get_u64(buf)? as usize,
    })
}

// --------------------------------------------------------------- toplevel

/// Serializes a trained model to its binary representation (the current
/// [`VERSION`]).
pub fn to_bytes(model: &TrainedGcon) -> Bytes {
    to_bytes_versioned(model, VERSION)
}

/// [`to_bytes`] at an explicit format version; older versions drop the
/// fields they predate. Used by the compatibility tests.
fn to_bytes_versioned(model: &TrainedGcon, version: u16) -> Bytes {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u16_le(version);
    if version >= 3 {
        buf.put_u8(ARTIFACT_MODEL);
    }
    put_mat(&mut buf, &model.theta);
    put_mlp(&mut buf, &model.encoder.net);
    put_linear(&mut buf, &model.encoder.head);
    put_config(&mut buf, &model.config, version);
    put_report(&mut buf, &model.report);
    buf.put_u64_le(model.num_classes as u64);
    buf.put_u64_le(model.opt_iterations as u64);
    buf.put_f64_le(model.final_grad_norm);
    buf.freeze()
}

/// Decodes a model from bytes produced by [`to_bytes`] — any format version
/// in `MIN_VERSION..=VERSION`. Fail-closed.
pub fn from_bytes(bytes: &[u8]) -> Result<TrainedGcon, DecodeError> {
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = get_u16(&mut buf)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    // Version 3 introduced the artifact-kind tag; earlier streams are
    // implicitly trained models.
    if version >= 3 {
        match get_u8(&mut buf)? {
            ARTIFACT_MODEL => {}
            ARTIFACT_STORE => return Err(DecodeError::Invalid("artifact is a serving store")),
            t => return Err(DecodeError::BadTag("artifact kind", t)),
        }
    }
    let theta = get_mat(&mut buf)?;
    let net = get_mlp(&mut buf)?;
    let head = get_linear(&mut buf)?;
    let config = get_config(&mut buf, version)?;
    let report = get_report(&mut buf)?;
    let num_classes = get_u64(&mut buf)? as usize;
    let opt_iterations = get_u64(&mut buf)? as usize;
    let final_grad_norm = get_f64(&mut buf)?;

    if theta.cols() != num_classes {
        return Err(DecodeError::Invalid("theta columns vs class count"));
    }
    if head.d_out() != num_classes {
        return Err(DecodeError::Invalid("encoder head vs class count"));
    }
    let d1 = net.layers.last().expect("validated non-empty").d_out();
    if head.d_in() != d1 {
        return Err(DecodeError::Invalid("encoder head vs embedding dim"));
    }
    if theta.rows() != config.steps.len() * d1 {
        return Err(DecodeError::Invalid("theta rows vs s·d₁"));
    }

    Ok(TrainedGcon {
        theta,
        encoder: FeatureEncoder { net, head },
        config,
        report,
        num_classes,
        opt_iterations,
        final_grad_norm,
    })
}

// ---------------------------------------------- serving-store artifact (v3)

/// The matrix payloads of a persisted serving store, in the dtype the store
/// was frozen in (`gcon-serve::StoreDtype`). `store` is the propagated
/// feature matrix (`n × d`, already `1/s`-scaled), `theta` the released
/// parameters (`d × c`); both round-trip bitwise.
#[derive(Clone, Debug)]
pub enum StoreArtifact {
    /// Double-precision store + parameters (the exact-serving default).
    F64 {
        /// Propagated feature store, `n × d`.
        store: Mat,
        /// Released parameters `Θ_priv`, `d × c`.
        theta: Mat,
    },
    /// Single-precision store + parameters (the quantized fast path).
    F32 {
        /// Quantized feature store, `n × d`.
        store: Mat<f32>,
        /// Quantized `Θ_priv`, `d × c`.
        theta: Mat<f32>,
    },
}

impl StoreArtifact {
    /// `(rows, feature_dim, classes)` of the persisted store.
    pub fn shape(&self) -> (usize, usize, usize) {
        match self {
            StoreArtifact::F64 { store, theta } => (store.rows(), store.cols(), theta.cols()),
            StoreArtifact::F32 { store, theta } => (store.rows(), store.cols(), theta.cols()),
        }
    }

    /// The **store-slice artifact**: rows `start..end` of the feature store
    /// together with the full `theta` (every shard needs the whole head).
    /// The slice is a bitwise copy — no arithmetic, no re-quantization — so
    /// a shard serving rows `start..end` of the slice answers exactly what
    /// the unsliced store answers for those rows. This is the shard-handoff
    /// payload of the fleet layer: encode the slice with
    /// [`store_to_bytes`], ship it, and the worker decodes a perfectly
    /// ordinary (smaller) v3 store artifact.
    ///
    /// # Panics
    /// Panics if `start > end` or `end` exceeds the store's row count —
    /// slicing is a coordinator-side operation over trusted shapes, not a
    /// decode surface.
    pub fn slice_rows(&self, start: usize, end: usize) -> StoreArtifact {
        let rows = self.shape().0;
        assert!(
            start <= end && end <= rows,
            "StoreArtifact::slice_rows: range {start}..{end} out of bounds for {rows} rows"
        );
        match self {
            StoreArtifact::F64 { store, theta } => {
                let d = store.cols();
                StoreArtifact::F64 {
                    store: Mat::from_vec(
                        end - start,
                        d,
                        store.as_slice()[start * d..end * d].to_vec(),
                    ),
                    theta: theta.clone(),
                }
            }
            StoreArtifact::F32 { store, theta } => {
                let d = store.cols();
                StoreArtifact::F32 {
                    store: Mat::from_vec(
                        end - start,
                        d,
                        store.as_slice()[start * d..end * d].to_vec(),
                    ),
                    theta: theta.clone(),
                }
            }
        }
    }

    fn dtype_tag(&self) -> u8 {
        match self {
            StoreArtifact::F64 { .. } => 0,
            StoreArtifact::F32 { .. } => 1,
        }
    }
}

/// A persisted serving store plus the serving-mode tag `gcon-serve` stamps
/// on it (0 = public, 1 = private; opaque to this crate — round-tripped,
/// not interpreted).
#[derive(Clone, Debug)]
pub struct PersistedStore {
    /// Serving-mode tag (`gcon-serve::ServingMode`).
    pub mode_tag: u8,
    /// The store + parameter payloads.
    pub data: StoreArtifact,
}

impl PersistedStore {
    /// [`StoreArtifact::slice_rows`] with the mode tag carried along — the
    /// encodable shard-handoff slice.
    pub fn slice_rows(&self, start: usize, end: usize) -> PersistedStore {
        PersistedStore { mode_tag: self.mode_tag, data: self.data.slice_rows(start, end) }
    }
}

/// Pads `buf` with zero bytes until its length is a multiple of 8, so the
/// bytes that follow start 8-byte aligned **relative to the stream start**.
/// `mmap` returns page-aligned bases, so file-relative alignment is
/// pointer alignment — a future reader can point an `&[f64]` (or `&[f32]`)
/// straight at the mapped payload without copying.
fn pad_to_8(buf: &mut BytesMut) {
    while !buf.len().is_multiple_of(8) {
        buf.put_u8(0);
    }
}

/// Skips the padding [`pad_to_8`] wrote: `total_len` is the full stream
/// length, from which the cursor's absolute position is recovered.
fn skip_pad_to_8(buf: &mut Bytes, total_len: usize) -> Result<(), DecodeError> {
    let pos = total_len - buf.remaining();
    let pad = (8 - pos % 8) % 8;
    if buf.remaining() < pad {
        return Err(DecodeError::Truncated);
    }
    for _ in 0..pad {
        buf.get_u8();
    }
    Ok(())
}

/// Serializes a serving store to the v3 container (`GCON` magic, version,
/// [`ARTIFACT_STORE`] tag, header, then the 8-byte-aligned store and theta
/// payloads). Layout after the tag:
///
/// ```text
/// u8  mode_tag        u8  dtype_tag (0 = f64, 1 = f32)
/// u64 store_rows      u32 store_cols      u32 theta_cols
/// ..  zero padding to the next 8-byte boundary (stream-relative)
/// ..  store payload   (rows·cols elements, little-endian)
/// ..  zero padding to the next 8-byte boundary
/// ..  theta payload   (cols·classes elements, little-endian)
/// ```
pub fn store_to_bytes(persisted: &PersistedStore) -> Bytes {
    let (rows, d, c) = persisted.data.shape();
    let elem = match persisted.data {
        StoreArtifact::F64 { .. } => 8,
        StoreArtifact::F32 { .. } => 4,
    };
    let mut buf = BytesMut::with_capacity(64 + (rows * d + d * c) * elem);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(ARTIFACT_STORE);
    buf.put_u8(persisted.mode_tag);
    buf.put_u8(persisted.data.dtype_tag());
    buf.put_u64_le(rows as u64);
    buf.put_u32_le(dim_u32(d, "store cols"));
    buf.put_u32_le(dim_u32(c, "theta cols"));
    match &persisted.data {
        StoreArtifact::F64 { store, theta } => {
            pad_to_8(&mut buf);
            for &v in store.as_slice() {
                buf.put_f64_le(v);
            }
            pad_to_8(&mut buf);
            for &v in theta.as_slice() {
                buf.put_f64_le(v);
            }
        }
        StoreArtifact::F32 { store, theta } => {
            pad_to_8(&mut buf);
            for &v in store.as_slice() {
                buf.put_f32_le(v);
            }
            pad_to_8(&mut buf);
            for &v in theta.as_slice() {
                buf.put_f32_le(v);
            }
        }
    }
    buf.freeze()
}

/// Decodes a serving store from bytes produced by [`store_to_bytes`].
/// Fail-closed exactly like [`from_bytes`]: truncation, bad magic, a
/// model-artifact stream, hostile dimensions — every failure is an `Err`,
/// never a panic or an allocation beyond the bytes actually present.
pub fn store_from_bytes(bytes: &[u8]) -> Result<PersistedStore, DecodeError> {
    let total_len = bytes.len();
    let mut buf = Bytes::copy_from_slice(bytes);
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = get_u16(&mut buf)?;
    // Store artifacts only exist from v3 on.
    if !(3..=VERSION).contains(&version) {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    match get_u8(&mut buf)? {
        ARTIFACT_STORE => {}
        ARTIFACT_MODEL => return Err(DecodeError::Invalid("artifact is a trained model")),
        t => return Err(DecodeError::BadTag("artifact kind", t)),
    }
    let mode_tag = get_u8(&mut buf)?;
    if mode_tag > 1 {
        return Err(DecodeError::BadTag("serving mode", mode_tag));
    }
    let dtype_tag = get_u8(&mut buf)?;
    let rows = usize::try_from(get_u64(&mut buf)?).map_err(|_| DecodeError::Truncated)?;
    let d = get_u32(&mut buf)? as usize;
    let c = get_u32(&mut buf)? as usize;
    let store_len = rows.checked_mul(d).ok_or(DecodeError::Invalid("store dimensions overflow"))?;
    let theta_len = d.checked_mul(c).ok_or(DecodeError::Invalid("theta dimensions overflow"))?;
    let data = match dtype_tag {
        0 => {
            skip_pad_to_8(&mut buf, total_len)?;
            check_payload(&buf, store_len, 8)?;
            let store = Mat::from_vec(rows, d, (0..store_len).map(|_| buf.get_f64_le()).collect());
            skip_pad_to_8(&mut buf, total_len)?;
            check_payload(&buf, theta_len, 8)?;
            let theta = Mat::from_vec(d, c, (0..theta_len).map(|_| buf.get_f64_le()).collect());
            StoreArtifact::F64 { store, theta }
        }
        1 => {
            skip_pad_to_8(&mut buf, total_len)?;
            check_payload(&buf, store_len, 4)?;
            let store = Mat::from_vec(rows, d, (0..store_len).map(|_| buf.get_f32_le()).collect());
            skip_pad_to_8(&mut buf, total_len)?;
            check_payload(&buf, theta_len, 4)?;
            let theta = Mat::from_vec(d, c, (0..theta_len).map(|_| buf.get_f32_le()).collect());
            StoreArtifact::F32 { store, theta }
        }
        t => return Err(DecodeError::BadTag("store dtype", t)),
    };
    Ok(PersistedStore { mode_tag, data })
}

/// Writes a serving store to a file. `gcon-serve`'s `ServingModel::save`
/// writes its own bytes and does not call this.
pub fn save_store(
    persisted: &PersistedStore,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    std::fs::write(path, store_to_bytes(persisted))
}

/// Reads a serving store back from a file. The whole restart cost is this
/// read — O(file size), no propagation.
pub fn load_store(path: impl AsRef<std::path::Path>) -> std::io::Result<PersistedStore> {
    let bytes = std::fs::read(path)?;
    store_from_bytes(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Writes the model to a file.
pub fn save(model: &TrainedGcon, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(model))
}

/// Reads a model back from a file.
pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<TrainedGcon> {
    let bytes = std::fs::read(path)?;
    from_bytes(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::train_gcon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_model(seed: u64) -> (TrainedGcon, gcon_graph::Graph, gcon_graph::Csr) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, labels) = gcon_graph::generators::sbm_homophily(
            &gcon_graph::generators::SbmConfig {
                n: 50,
                num_edges: 120,
                num_classes: 3,
                homophily: 0.8,
                degree_exponent: 2.5,
            },
            &mut rng,
        );
        let x = Mat::from_fn(50, 6, |i, j| if labels[i] == j % 3 { 1.0 } else { 0.2 });
        let x = gcon_graph::Csr::from_dense(&x);
        let idx: Vec<usize> = (0..25).collect();
        let mut cfg = GconConfig::default();
        cfg.encoder.epochs = 20;
        cfg.optimizer.max_iters = 200;
        cfg.steps = vec![PropagationStep::Finite(1), PropagationStep::Infinite];
        cfg.loss = LossKind::PseudoHuber { delta: 0.3 };
        cfg.ppr_solver = PprSolver::Push;
        let model = train_gcon(&cfg, &g, &x, &labels, &idx, 3, 1.5, 1e-4, &mut rng);
        (model, g, x)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (model, _, _) = trained_model(1);
        let bytes = to_bytes(&model);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.theta.as_slice(), model.theta.as_slice());
        assert_eq!(back.num_classes, model.num_classes);
        assert_eq!(back.opt_iterations, model.opt_iterations);
        assert_eq!(back.final_grad_norm, model.final_grad_norm);
        assert_eq!(back.config.steps, model.config.steps);
        assert_eq!(back.config.clip_p, model.config.clip_p);
        assert_eq!(back.config.loss, model.config.loss);
        assert_eq!(back.config.ppr_solver, model.config.ppr_solver);
        assert_eq!(back.report.eps, model.report.eps);
        assert_eq!(back.report.params.beta, model.report.params.beta);
        assert_eq!(back.report.n1, model.report.n1);
    }

    #[test]
    fn roundtrip_model_predicts_identically() {
        let (model, g, x) = trained_model(2);
        let back = from_bytes(&to_bytes(&model)).unwrap();
        let a = crate::infer::private_logits(&model, &g, &x);
        let b = crate::infer::private_logits(&back, &g, &x);
        assert_eq!(a.as_slice(), b.as_slice());
        let c = crate::infer::public_logits(&model, &g, &x);
        let d = crate::infer::public_logits(&back, &g, &x);
        assert_eq!(c.as_slice(), d.as_slice());
    }

    #[test]
    fn file_roundtrip() {
        let (model, _, _) = trained_model(3);
        let dir = std::env::temp_dir().join("gcon_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.gcon");
        save(&model, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.theta.as_slice(), model.theta.as_slice());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let (model, _, _) = trained_model(4);
        let mut bytes = to_bytes(&model).to_vec();
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(DecodeError::BadMagic)));
    }

    #[test]
    fn future_version_rejected() {
        let (model, _, _) = trained_model(5);
        let mut bytes = to_bytes(&model).to_vec();
        bytes[4] = 0xFF; // version LE low byte
        assert!(matches!(from_bytes(&bytes), Err(DecodeError::UnsupportedVersion(_))));
        let mut bytes = to_bytes(&model).to_vec();
        bytes[4] = 0; // version 0 predates MIN_VERSION
        assert!(matches!(from_bytes(&bytes), Err(DecodeError::UnsupportedVersion(0))));
    }

    /// Version-1 artifacts (published before the `ppr_solver` tag existed)
    /// must keep decoding, with the solver defaulting to `Auto`.
    #[test]
    fn version_one_streams_still_decode() {
        let (mut model, g, x) = trained_model(8);
        // v1 cannot carry a non-default solver; encode the equivalent model.
        model.config.ppr_solver = PprSolver::Auto;
        let v1 = to_bytes_versioned(&model, 1);
        let back = from_bytes(&v1).expect("v1 stream must decode");
        assert_eq!(back.config.ppr_solver, PprSolver::Auto);
        assert_eq!(back.theta.as_slice(), model.theta.as_slice());
        assert_eq!(back.config.steps, model.config.steps);
        let a = crate::infer::private_logits(&model, &g, &x);
        let b = crate::infer::private_logits(&back, &g, &x);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    /// Artifacts written while the minimizer was Adam carry its learning
    /// rate (0.05 by default) in the optimizer block; the slot is now
    /// written as 0.0 and read and discarded, at every version.
    #[test]
    fn retired_lr_slot_is_read_and_discarded() {
        let (mut model, _, _) = trained_model(11);
        model.config.ppr_solver = PprSolver::Auto; // v1 cannot carry another
        for version in MIN_VERSION..=VERSION {
            let current = to_bytes_versioned(&model, version).to_vec();
            model.config.optimizer.max_iters += 1;
            let bumped = to_bytes_versioned(&model, version).to_vec();
            model.config.optimizer.max_iters -= 1;
            // The max_iters field is the only difference; the slot precedes it.
            let at = (0..current.len()).find(|&i| current[i] != bumped[i]).expect("differ") - 8;
            assert_eq!(current[at..at + 8], 0.0f64.to_le_bytes(), "v{version} slot");
            let mut legacy = current.clone();
            legacy[at..at + 8].copy_from_slice(&0.05f64.to_le_bytes());
            let back = from_bytes(&legacy).expect("legacy stream decodes");
            let same = from_bytes(&current).expect("current stream decodes");
            let back = to_bytes(&back).to_vec();
            assert_eq!(back, to_bytes(&same).to_vec(), "v{version}");
            assert_eq!(back, to_bytes(&model).to_vec(), "v{version}");
        }
    }

    /// The solver byte of an encoded model: tag 2 (the retired CGNR solver)
    /// loads as `Power`, and unknown tags stay rejected.
    #[test]
    fn retired_cgnr_solver_tag_loads_as_power() {
        let (mut model, _, _) = trained_model(9);
        model.config.ppr_solver = PprSolver::Power;
        let power = to_bytes(&model).to_vec();
        model.config.ppr_solver = PprSolver::Push;
        let push = to_bytes(&model).to_vec();
        let diffs: Vec<usize> = (0..power.len()).filter(|&i| power[i] != push[i]).collect();
        assert_eq!(diffs.len(), 1, "the two encodings differ only in the solver byte");
        let at = diffs[0];
        assert_eq!((power[at], push[at]), (1, 3));

        let mut tagged = power.clone();
        tagged[at] = 2;
        let back = from_bytes(&tagged).expect("tag 2 must decode");
        assert_eq!(back.config.ppr_solver, PprSolver::Power);
        assert_eq!(back.theta.as_slice(), model.theta.as_slice());

        tagged[at] = 4;
        assert!(matches!(from_bytes(&tagged), Err(DecodeError::BadTag("ppr solver", 4))));
    }

    /// Each `PprSolver` is written under its own tag (Auto 0, Power 1,
    /// Push 3; tag 2 is retired) and reads back as itself.
    #[test]
    fn every_ppr_solver_round_trips_under_its_tag() {
        let (mut model, _, _) = trained_model(10);
        let mut encodings = Vec::new();
        for solver in [PprSolver::Auto, PprSolver::Power, PprSolver::Push] {
            model.config.ppr_solver = solver;
            let bytes = to_bytes(&model).to_vec();
            assert_eq!(from_bytes(&bytes).expect("decodes").config.ppr_solver, solver);
            encodings.push(bytes);
        }
        let at = (0..encodings[0].len())
            .find(|&i| encodings[0][i] != encodings[2][i])
            .expect("the encodings differ in the solver byte");
        let tags: Vec<u8> = encodings.iter().map(|b| b[at]).collect();
        assert_eq!(tags, vec![0, 1, 3]);
    }

    #[test]
    fn truncation_rejected_at_every_prefix_length() {
        let (model, _, _) = trained_model(6);
        let bytes = to_bytes(&model);
        // Every strict prefix must fail cleanly (no panic, no partial model).
        for cut in [0, 3, 4, 6, 10, bytes.len() / 2, bytes.len() - 1] {
            let r = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes unexpectedly decoded");
        }
    }

    #[test]
    fn corrupted_enum_tag_rejected() {
        let (model, _, _) = trained_model(7);
        let bytes = to_bytes(&model).to_vec();
        // Scan for the activation tags by decoding successively corrupted
        // copies: flipping any single byte must never panic.
        let stride = (bytes.len() / 64).max(1);
        for i in (0..bytes.len()).step_by(stride) {
            let mut corrupted = bytes.clone();
            corrupted[i] = corrupted[i].wrapping_add(0x7F);
            let _ = from_bytes(&corrupted); // must not panic; Err or Ok both fine
        }
    }

    // ------------------------------------------------ store artifact (v3)

    fn sample_store_f64() -> PersistedStore {
        let store = Mat::from_fn(5, 4, |i, j| (i * 7 + j) as f64 * 0.125 - 1.0);
        let theta = Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * -0.25 + 0.5);
        PersistedStore { mode_tag: 1, data: StoreArtifact::F64 { store, theta } }
    }

    fn sample_store_f32() -> PersistedStore {
        let store = Mat::<f32>::from_fn(6, 3, |i, j| (i * 5 + j) as f32 * 0.5 - 2.0);
        let theta = Mat::<f32>::from_fn(3, 2, |i, j| (i * 2 + j) as f32 * 0.75);
        PersistedStore { mode_tag: 0, data: StoreArtifact::F32 { store, theta } }
    }

    #[test]
    fn store_roundtrip_f64_bitwise() {
        let p = sample_store_f64();
        let back = store_from_bytes(&store_to_bytes(&p)).unwrap();
        assert_eq!(back.mode_tag, 1);
        match (&p.data, &back.data) {
            (
                StoreArtifact::F64 { store: s1, theta: t1 },
                StoreArtifact::F64 { store: s2, theta: t2 },
            ) => {
                assert_eq!((s2.rows(), s2.cols()), (5, 4));
                assert_eq!(s1.as_slice(), s2.as_slice());
                assert_eq!(t1.as_slice(), t2.as_slice());
            }
            _ => panic!("dtype changed across roundtrip"),
        }
    }

    #[test]
    fn store_roundtrip_f32_bitwise() {
        let p = sample_store_f32();
        let back = store_from_bytes(&store_to_bytes(&p)).unwrap();
        assert_eq!(back.mode_tag, 0);
        match (&p.data, &back.data) {
            (
                StoreArtifact::F32 { store: s1, theta: t1 },
                StoreArtifact::F32 { store: s2, theta: t2 },
            ) => {
                assert_eq!((s2.rows(), s2.cols()), (6, 3));
                assert_eq!(s1.as_slice(), s2.as_slice());
                assert_eq!(t1.as_slice(), t2.as_slice());
            }
            _ => panic!("dtype changed across roundtrip"),
        }
    }

    /// The store-slice artifact is a bitwise row-range copy: sliced rows
    /// match the original payload exactly, theta rides along whole, and the
    /// slice encodes/decodes as an ordinary v3 store artifact.
    #[test]
    fn store_slice_rows_is_bitwise_and_roundtrips() {
        let p = sample_store_f64();
        let sliced = p.slice_rows(1, 4);
        assert_eq!(sliced.mode_tag, p.mode_tag);
        let (rows, d, c) = sliced.data.shape();
        assert_eq!((rows, d, c), (3, 4, 3));
        let (
            StoreArtifact::F64 { store: full, theta: full_theta },
            StoreArtifact::F64 { store: part, theta: part_theta },
        ) = (&p.data, &sliced.data)
        else {
            panic!("slice changed dtype")
        };
        assert_eq!(part.as_slice(), &full.as_slice()[d..4 * d]);
        assert_eq!(part_theta.as_slice(), full_theta.as_slice());
        let back = store_from_bytes(&store_to_bytes(&sliced)).unwrap();
        let StoreArtifact::F64 { store: back_store, .. } = &back.data else { unreachable!() };
        assert_eq!(back_store.as_slice(), part.as_slice());

        // f32 slices, the full range, and the empty edge all hold too.
        let p32 = sample_store_f32();
        let full32 = p32.slice_rows(0, 6);
        let (StoreArtifact::F32 { store: a, .. }, StoreArtifact::F32 { store: b, .. }) =
            (&p32.data, &full32.data)
        else {
            panic!("slice changed dtype")
        };
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(p32.slice_rows(2, 2).data.shape().0, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn store_slice_rows_rejects_bad_range() {
        sample_store_f64().slice_rows(2, 6);
    }

    /// The store payload must start on an 8-byte file offset so a future
    /// mmap reader can point an `&[f64]` at it zero-copy.
    #[test]
    fn store_payloads_are_8_byte_aligned() {
        let p = sample_store_f64();
        let bytes = store_to_bytes(&p);
        // Fixed header: magic(4) version(2) artifact(1) mode(1) dtype(1)
        // rows(8) store_cols(4) theta_cols(4) = 25 bytes, padded to 32.
        let store_off = 32;
        assert_eq!(store_off % 8, 0);
        let StoreArtifact::F64 { store, .. } = &p.data else { unreachable!() };
        let first = f64::from_le_bytes(bytes[store_off..store_off + 8].try_into().unwrap());
        assert_eq!(first.to_bits(), store.as_slice()[0].to_bits());
        let theta_off = store_off + store.as_slice().len() * 8;
        assert_eq!(theta_off % 8, 0, "theta payload must stay aligned too");
    }

    /// Hostile headers claiming astronomically large payloads must fail
    /// fast with `Err`, not attempt a giant allocation.
    #[test]
    fn store_hostile_dimensions_rejected() {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u8(ARTIFACT_STORE);
        buf.put_u8(0); // mode
        buf.put_u8(0); // f64
        buf.put_u64_le(u64::MAX); // rows
        buf.put_u32_le(u32::MAX); // store cols
        buf.put_u32_le(u32::MAX); // theta cols
        let bytes = buf.freeze();
        assert!(store_from_bytes(&bytes).is_err());
    }

    #[test]
    fn store_artifact_kinds_do_not_cross_decode() {
        let (model, _, _) = trained_model(9);
        let model_bytes = to_bytes(&model);
        assert!(matches!(store_from_bytes(&model_bytes), Err(DecodeError::Invalid(_))));
        let store_bytes = store_to_bytes(&sample_store_f64());
        assert!(matches!(from_bytes(&store_bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn store_truncation_rejected_at_every_prefix_length() {
        let bytes = store_to_bytes(&sample_store_f64());
        for cut in 0..bytes.len() {
            assert!(
                store_from_bytes(&bytes[..cut]).is_err(),
                "store prefix of {cut} bytes unexpectedly decoded"
            );
        }
    }

    #[test]
    fn store_bad_tags_rejected() {
        let good = store_to_bytes(&sample_store_f64()).to_vec();
        let mut bad_mode = good.clone();
        bad_mode[7] = 9;
        assert!(matches!(store_from_bytes(&bad_mode), Err(DecodeError::BadTag("serving mode", 9))));
        let mut bad_dtype = good.clone();
        bad_dtype[8] = 5;
        assert!(matches!(store_from_bytes(&bad_dtype), Err(DecodeError::BadTag("store dtype", 5))));
    }

    #[test]
    fn store_file_roundtrip() {
        let p = sample_store_f32();
        let dir = std::env::temp_dir().join("gcon_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.gconstore");
        save_store(&p, &path).unwrap();
        let back = load_store(&path).unwrap();
        match (&p.data, &back.data) {
            (
                StoreArtifact::F32 { store: s1, theta: t1 },
                StoreArtifact::F32 { store: s2, theta: t2 },
            ) => {
                assert_eq!(s1.as_slice(), s2.as_slice());
                assert_eq!(t1.as_slice(), t2.as_slice());
            }
            _ => panic!("dtype changed across file roundtrip"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Encoding a dimension that does not fit the format's u32 limit must
    /// abort loudly instead of silently truncating to a corrupt artifact.
    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "u32 dimension limit")]
    fn encode_dimension_overflow_panics() {
        dim_u32(u32::MAX as usize + 1, "test dimension");
    }

    #[test]
    fn encode_dimension_boundary_ok() {
        assert_eq!(dim_u32(u32::MAX as usize, "test dimension"), u32::MAX);
        assert_eq!(dim_u32(0, "test dimension"), 0);
    }

    #[test]
    fn display_of_errors_is_informative() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
        assert!(DecodeError::BadTag("loss kind", 9).to_string().contains("loss kind"));
        assert!(DecodeError::UnsupportedVersion(7).to_string().contains('7'));
    }

    mod prop {
        use super::super::*;
        use crate::encoder::FeatureEncoder;
        use gcon_nn::{Activation, Linear, Mlp, MlpConfig};
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        /// Builds a structurally valid TrainedGcon with random shapes and
        /// weights, no training required.
        fn random_model(
            seed: u64,
            d0: usize,
            d1: usize,
            c: usize,
            s: usize,
            huber: bool,
            clip_p: f64,
        ) -> TrainedGcon {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = Mlp::new(
                &MlpConfig {
                    dims: vec![d0, 6, d1],
                    hidden_activation: Activation::Relu,
                    output_activation: Activation::Tanh,
                },
                &mut rng,
            );
            let head = Linear::xavier(d1, c, &mut rng);
            let mut config = GconConfig::default();
            config.encoder.d1 = d1;
            config.clip_p = clip_p;
            config.steps = (0..s)
                .map(|i| {
                    if i == 0 {
                        PropagationStep::Infinite
                    } else {
                        PropagationStep::Finite(i * 2)
                    }
                })
                .collect();
            config.loss = if huber {
                LossKind::PseudoHuber { delta: 0.25 }
            } else {
                LossKind::MultiLabelSoftMargin
            };
            TrainedGcon {
                theta: Mat::gaussian(s * d1, c, 1.0, &mut rng),
                encoder: FeatureEncoder { net, head },
                config,
                report: PrivacyReport {
                    eps: 1.5,
                    delta: 1e-4,
                    psi_z: 0.7,
                    params: TheoremOneParams {
                        lambda_eff: 0.3,
                        csf: 21.0,
                        c_theta: 4.2,
                        eps_lambda: 0.01,
                        lambda_prime: 0.0,
                        beta: 2.5,
                    },
                    n1: 123,
                },
                num_classes: c,
                opt_iterations: 77,
                final_grad_norm: 1e-9,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Roundtrip over randomized shapes, losses, step sets and clips.
            #[test]
            fn roundtrip_any_shape(
                seed in 0u64..1000,
                d0 in 1usize..9,
                d1 in 1usize..7,
                c in 2usize..5,
                s in 1usize..4,
                huber: bool,
                clip_p in 0.05f64..0.5,
            ) {
                let m = random_model(seed, d0, d1, c, s, huber, clip_p);
                let back = from_bytes(&to_bytes(&m)).unwrap();
                prop_assert_eq!(back.theta.as_slice(), m.theta.as_slice());
                prop_assert_eq!(back.config.steps, m.config.steps);
                prop_assert_eq!(back.config.loss, m.config.loss);
                prop_assert!((back.config.clip_p - m.config.clip_p).abs() < 1e-15);
                prop_assert_eq!(back.num_classes, m.num_classes);
                // Encoder weights byte-identical.
                for (l1, l2) in back.encoder.net.layers.iter().zip(&m.encoder.net.layers) {
                    prop_assert_eq!(l1.w.as_slice(), l2.w.as_slice());
                    prop_assert_eq!(&l1.b, &l2.b);
                }
            }

            /// Any truncation fails cleanly; never panics, never Ok.
            #[test]
            fn any_truncation_rejected(seed in 0u64..200, frac in 0.0f64..1.0) {
                let m = random_model(seed, 4, 3, 3, 2, false, 0.5);
                let bytes = to_bytes(&m);
                let cut = ((bytes.len() - 1) as f64 * frac) as usize;
                prop_assert!(from_bytes(&bytes[..cut]).is_err());
            }
        }
    }
}
