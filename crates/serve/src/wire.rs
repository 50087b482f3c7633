//! The `gcond` wire protocol: hand-rolled, length-prefixed binary frames.
//!
//! Everything on the socket is a **frame**: a little-endian `u32` body
//! length followed by the body, whose first byte is the opcode. Both sides
//! enforce a maximum body length *before* allocating ([`read_frame`]), and
//! every decoder is fail-closed — hostile bytes (truncated, bit-flipped,
//! oversized counts, unknown opcodes, trailing garbage) produce a
//! [`WireError`], never a panic and never an allocation beyond the bytes
//! actually received. Frame bodies reuse the `gcon-core::serialize`
//! primitive getters, so the socket shares one trust boundary with the
//! on-disk formats.
//!
//! # Frame catalogue
//!
//! ```text
//!            ┌──────────────┬─────────┬───────────────────────────────┐
//! frame    = │ u32 body_len │ u8 op   │ payload (body_len − 1 bytes)  │
//!            └──────────────┴─────────┴───────────────────────────────┘
//!
//! requests                       payload
//!   0x01 Hello                   b"GCON", u16 proto
//!   0x02 Query                   u64 token, u64 node
//!   0x03 Bulk                    u64 token, u32 count, count × u64 node
//!   0x04 Stats                   u64 token
//!   0x05 Health                  —
//!   0x06 Bye                     —
//!   0x07 ShardAssign             u64 token, u32 shard_id, u64 row_start,
//!                                u32 len, len × u8 store-slice artifact (v3)
//!   0x08 ShardQuery              u64 token, u32 count, count × u64 global node
//!   0x09 ShardFingerprint        u64 token, u64 chunk_rows
//!
//! responses
//!   0x81 HelloAck                u64 token, ServerInfo
//!   0x82 Logits                  u32 count, count × f64
//!   0x83 BulkChunk               u64 start, u32 rows, u32 cols, rows·cols × f64
//!   0x84 BulkDone                u64 total_rows
//!   0x85 StatsReply              7 × u64 counters, u8 degraded
//!   0x86 HealthReply             u8 ok
//!   0x87 Error                   u8 code, u32 len, len × u8 UTF-8 message
//!   0x88 ShardReady              u32 shard_id, u64 rows
//!   0x89 ShardLogits             u64 start, u32 rows, u32 cols, rows·cols × f64
//!   0x8A ShardFingerprintReply   u64 chunk_rows, u32 count, count × u64
//! ```
//!
//! # Fleet frames
//!
//! The `0x07`–`0x09` requests (and their `0x88`–`0x8A` responses) are the
//! coordinator → shard-worker protocol of [`crate::fleet`]. `ShardAssign`
//! hands a worker its row range as an embedded **store-slice artifact** —
//! the same v3 container `ServingModel::save` writes, so the worker reuses
//! the fail-closed on-disk decoder verbatim. `ShardQuery` carries *global*
//! node ids (the worker translates by its `row_start`), answered by a
//! bounded `ShardLogits` chunk stream terminated by `BulkDone`.
//! `ShardFingerprint` asks for the per-chunk store fingerprints the
//! coordinator cross-checks for replica consensus.
//!
//! # Session model
//!
//! A connection starts with `Hello` (client magic + protocol version) and
//! gets back `HelloAck` carrying a per-connection **session token** and the
//! [`ServerInfo`] store handshake (mode, dtype, shape). Every subsequent
//! authenticated request carries that token; a mismatch is answered with
//! [`ErrorCode::BadToken`] and the connection is dropped. The token is not
//! a cryptographic credential — it is a cheap guard against desynchronized
//! or replayed frames on a trusted network (same spirit as an RPC
//! connection id).
//!
//! # Streaming bulk answers
//!
//! A `Bulk` request of `q` nodes is answered by one or more `BulkChunk`
//! frames (row ranges of the `q × c` logit matrix, in order, each under the
//! frame-size bound) terminated by `BulkDone` — the client reassembles by
//! `start` offset. This keeps every frame bounded regardless of `q`.

use crate::model::{ServingMode, StoreDtype};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gcon_core::serialize::{get_u16, get_u32, get_u64, get_u8, DecodeError};

/// Protocol version carried in `Hello`/`HelloAck`; bumped on any
/// incompatible frame change. v2 added the fleet frames and widened
/// `StatsReply` with the `quarantined` / `failovers` counters.
pub const PROTO_VERSION: u16 = 2;

/// Client magic in `Hello` — same four bytes as the on-disk artifacts.
pub const WIRE_MAGIC: &[u8; 4] = b"GCON";

/// Default maximum frame body length (bytes) either side will accept
/// before allocating; override with `GCON_SERVER_MAX_FRAME`.
pub const DEFAULT_MAX_FRAME: usize = 8 << 20;

/// Machine-readable failure class carried in an `Error` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame could not be decoded (bad opcode, truncated payload,
    /// trailing garbage).
    BadFrame = 1,
    /// The `Hello` handshake was malformed or version-incompatible.
    BadHandshake = 2,
    /// The request's session token does not match this connection.
    BadToken = 3,
    /// A queried node id is outside the store.
    NodeOutOfRange = 4,
    /// The frame exceeded the server's size bound.
    TooLarge = 5,
    /// The bounded-inflight gate rejected the request; retry later.
    Overloaded = 6,
    /// The server hit an internal failure serving the request.
    Internal = 7,
    /// A shard frame arrived before the worker received its
    /// `ShardAssign` (or a plain query hit a shard worker).
    NotAssigned = 8,
}

impl ErrorCode {
    /// Decodes the on-wire tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadHandshake,
            3 => ErrorCode::BadToken,
            4 => ErrorCode::NodeOutOfRange,
            5 => ErrorCode::TooLarge,
            6 => ErrorCode::Overloaded,
            7 => ErrorCode::Internal,
            8 => ErrorCode::NotAssigned,
            _ => return None,
        })
    }
}

/// Anything that can go wrong reading, writing, or decoding frames.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes read/write timeouts).
    Io(std::io::Error),
    /// A frame header announced a body larger than the configured bound.
    FrameTooLarge {
        /// Announced body length.
        len: usize,
        /// The bound it violated.
        max: usize,
    },
    /// The frame body failed to decode.
    Decode(DecodeError),
    /// Structurally invalid traffic (empty frame, mid-frame disconnect,
    /// trailing bytes, unknown opcode…).
    Malformed(&'static str),
    /// The peer answered with an `Error` frame (client-side surface).
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte bound")
            }
            WireError::Decode(e) => write!(f, "frame decode error: {e}"),
            WireError::Malformed(what) => write!(f, "malformed wire traffic: {what}"),
            WireError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

/// The store handshake a server announces in `HelloAck`: what the frozen
/// store serves, so a client can validate queries locally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Protocol version the server speaks.
    pub proto: u16,
    /// Which inference protocol the store reproduces.
    pub mode: ServingMode,
    /// The dtype the store is frozen in.
    pub dtype: StoreDtype,
    /// Number of nodes the store answers for.
    pub nodes: u64,
    /// Propagated feature dimension `d` of the store.
    pub feature_dim: u32,
    /// Number of classes per logit row.
    pub classes: u32,
}

/// Counters in a `StatsReply` frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Queries answered (bulk counts each node).
    pub requests: u64,
    /// Micro-batches executed by the underlying [`crate::BatchQueue`].
    pub batches: u64,
    /// Largest micro-batch executed.
    pub largest_batch: u64,
    /// Requests rejected by the bounded-inflight gate.
    pub rejected_overload: u64,
    /// Replicas currently quarantined by the fleet consensus check
    /// (always 0 on a plain single-store server).
    pub quarantined: u64,
    /// Queries rerouted to another replica after a shard died or timed
    /// out (always 0 on a plain single-store server).
    pub failovers: u64,
    /// On `gcond`, latched by a failed query batch (a forward that
    /// panicked); `Health` then answers not-ok. A shard worker always
    /// reports `false`; [`crate::Coordinator::wire_stats`] sets it while
    /// any replica is quarantined or dead.
    pub degraded: bool,
}

/// A client → server frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Opens a session: client magic + protocol version.
    Hello {
        /// The client's protocol version ([`PROTO_VERSION`]).
        proto: u16,
    },
    /// Logits of a single node.
    Query {
        /// Session token from `HelloAck`.
        token: u64,
        /// Node id to answer for.
        node: u64,
    },
    /// Logits of many nodes, answered as a `BulkChunk` stream.
    Bulk {
        /// Session token from `HelloAck`.
        token: u64,
        /// Node ids to answer for, in answer order.
        nodes: Vec<u64>,
    },
    /// Server counter snapshot.
    Stats {
        /// Session token from `HelloAck`.
        token: u64,
    },
    /// Liveness probe; the only request valid without a handshake.
    Health,
    /// Graceful goodbye; the server closes the connection.
    Bye,
    /// Coordinator → worker: adopt this row range. The artifact bytes are
    /// a complete v3 store-slice artifact (rows `row_start ..
    /// row_start + slice_rows` of the fleet store).
    ShardAssign {
        /// Session token from `HelloAck`.
        token: u64,
        /// Shard index within the fleet partition.
        shard_id: u32,
        /// Global row id of the slice's first row.
        row_start: u64,
        /// Encoded store-slice artifact (decoded by the same fail-closed
        /// path as an on-disk store).
        artifact: Vec<u8>,
    },
    /// Coordinator → worker: logits for **global** node ids inside the
    /// worker's assigned range, answered as a `ShardLogits` stream
    /// terminated by `BulkDone`.
    ShardQuery {
        /// Session token from `HelloAck`.
        token: u64,
        /// Global node ids, in answer order.
        nodes: Vec<u64>,
    },
    /// Coordinator → worker: report per-chunk store fingerprints (the
    /// consensus check; see `ServingModel::chunk_fingerprints`).
    ShardFingerprint {
        /// Session token from `HelloAck`.
        token: u64,
        /// Rows per fingerprint chunk (≥ 1).
        chunk_rows: u64,
    },
}

/// A server → client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Handshake accepted: the session token + store description.
    HelloAck {
        /// Token every later request on this connection must carry.
        token: u64,
        /// What the store serves.
        info: ServerInfo,
    },
    /// Answer to `Query`: one logit row.
    Logits {
        /// The node's logits (`classes` values).
        values: Vec<f64>,
    },
    /// One row range of a `Bulk` answer.
    BulkChunk {
        /// First answer row this chunk carries.
        start: u64,
        /// Number of columns (classes) per row.
        cols: u32,
        /// `rows × cols` logits, row-major.
        values: Vec<f64>,
    },
    /// Terminates a `BulkChunk` stream.
    BulkDone {
        /// Total rows streamed (must equal the request's node count).
        total_rows: u64,
    },
    /// Answer to `Stats`.
    StatsReply(WireStats),
    /// Answer to `Health`.
    HealthReply {
        /// True when the serving path is healthy (not degraded).
        ok: bool,
    },
    /// The request failed; the connection may be closed afterwards.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Worker → coordinator: the `ShardAssign` slice was decoded and the
    /// worker now serves it.
    ShardReady {
        /// Echo of the assigned shard index.
        shard_id: u32,
        /// Rows the worker holds (the slice's row count).
        rows: u64,
    },
    /// One row range of a `ShardQuery` answer (same shape as `BulkChunk`;
    /// `start` indexes the *request's* node list).
    ShardLogits {
        /// First answer row this chunk carries.
        start: u64,
        /// Number of columns (classes) per row.
        cols: u32,
        /// `rows × cols` logits, row-major.
        values: Vec<f64>,
    },
    /// Worker → coordinator: the per-chunk store fingerprints.
    ShardFingerprintReply {
        /// Echo of the requested chunk granularity.
        chunk_rows: u64,
        /// One FNV-1a-64 fingerprint per store chunk, plus the trailing
        /// theta fingerprint.
        fingerprints: Vec<u64>,
    },
}

// ------------------------------------------------------------- frame I/O

/// Reads one frame body (opcode + payload) from `r`.
///
/// Returns `Ok(None)` on a clean disconnect (EOF at a frame boundary).
/// The body length is validated against `max_frame` **before** the body
/// buffer is allocated, so a hostile 4-byte header cannot trigger an
/// oversized allocation.
pub fn read_frame(
    r: &mut impl std::io::Read,
    max_frame: usize,
) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Malformed("connection closed mid-header")),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 {
        return Err(WireError::Malformed("empty frame"));
    }
    if len > max_frame {
        return Err(WireError::FrameTooLarge { len, max: max_frame });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Writes one frame (header + body) to `w`. The caller batches/flushes.
///
/// # Panics
/// Panics if `body` exceeds `u32::MAX` bytes — encoders bound their output
/// far below that, so this indicates a caller bug, not hostile input.
pub fn write_frame(w: &mut impl std::io::Write, body: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(body.len()).expect("frame body exceeds u32::MAX bytes");
    w.write_all(&len.to_le_bytes())?;
    w.write_all(body)?;
    Ok(())
}

// ------------------------------------------------------------- encoding

impl Request {
    /// The session token an authenticated request carries; `None` for the
    /// three frames valid without one (`Hello`, `Health`, `Bye`).
    pub(crate) fn token(&self) -> Option<u64> {
        match self {
            Request::Hello { .. } | Request::Health | Request::Bye => None,
            Request::Query { token, .. }
            | Request::Bulk { token, .. }
            | Request::Stats { token }
            | Request::ShardAssign { token, .. }
            | Request::ShardQuery { token, .. }
            | Request::ShardFingerprint { token, .. } => Some(*token),
        }
    }

    /// Encodes the frame body (opcode + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            Request::Hello { proto } => {
                buf.put_u8(0x01);
                buf.put_slice(WIRE_MAGIC);
                buf.put_u16_le(*proto);
            }
            Request::Query { token, node } => {
                buf.put_u8(0x02);
                buf.put_u64_le(*token);
                buf.put_u64_le(*node);
            }
            Request::Bulk { token, nodes } => put_nodes(&mut buf, 0x03, *token, nodes),
            Request::Stats { token } => {
                buf.put_u8(0x04);
                buf.put_u64_le(*token);
            }
            Request::Health => buf.put_u8(0x05),
            Request::Bye => buf.put_u8(0x06),
            Request::ShardAssign { token, shard_id, row_start, artifact } => {
                buf.put_u8(0x07);
                buf.put_u64_le(*token);
                buf.put_u32_le(*shard_id);
                buf.put_u64_le(*row_start);
                buf.put_u32_le(u32::try_from(artifact.len()).expect("shard artifact too large"));
                buf.put_slice(artifact);
            }
            Request::ShardQuery { token, nodes } => put_nodes(&mut buf, 0x08, *token, nodes),
            Request::ShardFingerprint { token, chunk_rows } => {
                buf.put_u8(0x09);
                buf.put_u64_le(*token);
                buf.put_u64_le(*chunk_rows);
            }
        }
        buf.freeze().to_vec()
    }

    /// Decodes a frame body. Strict: trailing bytes are an error.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut buf = Bytes::copy_from_slice(body);
        let op = get_u8(&mut buf)?;
        let req = match op {
            0x01 => {
                let mut magic = [0u8; 4];
                if buf.remaining() < 4 {
                    return Err(DecodeError::Truncated.into());
                }
                buf.copy_to_slice(&mut magic);
                if &magic != WIRE_MAGIC {
                    return Err(WireError::Malformed("bad hello magic"));
                }
                Request::Hello { proto: get_u16(&mut buf)? }
            }
            0x02 => Request::Query { token: get_u64(&mut buf)?, node: get_u64(&mut buf)? },
            0x03 => Request::Bulk { token: get_u64(&mut buf)?, nodes: get_nodes(&mut buf)? },
            0x04 => Request::Stats { token: get_u64(&mut buf)? },
            0x05 => Request::Health,
            0x06 => Request::Bye,
            0x07 => {
                let token = get_u64(&mut buf)?;
                let shard_id = get_u32(&mut buf)?;
                let row_start = get_u64(&mut buf)?;
                let len = get_u32(&mut buf)? as usize;
                // Bound the allocation by the bytes actually present.
                if buf.remaining() < len {
                    return Err(DecodeError::Truncated.into());
                }
                let mut artifact = vec![0u8; len];
                buf.copy_to_slice(&mut artifact);
                Request::ShardAssign { token, shard_id, row_start, artifact }
            }
            0x08 => Request::ShardQuery { token: get_u64(&mut buf)?, nodes: get_nodes(&mut buf)? },
            0x09 => Request::ShardFingerprint {
                token: get_u64(&mut buf)?,
                chunk_rows: get_u64(&mut buf)?,
            },
            _ => return Err(WireError::Malformed("unknown request opcode")),
        };
        if buf.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after request"));
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes the frame body (opcode + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        match self {
            Response::HelloAck { token, info } => {
                buf.put_u8(0x81);
                buf.put_u64_le(*token);
                buf.put_u16_le(info.proto);
                buf.put_u8(mode_tag(info.mode));
                buf.put_u8(dtype_tag(info.dtype));
                buf.put_u64_le(info.nodes);
                buf.put_u32_le(info.feature_dim);
                buf.put_u32_le(info.classes);
            }
            Response::Logits { values } => {
                buf.put_u8(0x82);
                buf.put_u32_le(u32::try_from(values.len()).expect("logit row too large"));
                for &v in values {
                    buf.put_f64_le(v);
                }
            }
            Response::BulkChunk { start, cols, values } => {
                put_chunk(&mut buf, 0x83, *start, *cols, values)
            }
            Response::BulkDone { total_rows } => {
                buf.put_u8(0x84);
                buf.put_u64_le(*total_rows);
            }
            Response::StatsReply(s) => {
                buf.put_u8(0x85);
                buf.put_u64_le(s.connections);
                buf.put_u64_le(s.requests);
                buf.put_u64_le(s.batches);
                buf.put_u64_le(s.largest_batch);
                buf.put_u64_le(s.rejected_overload);
                buf.put_u64_le(s.quarantined);
                buf.put_u64_le(s.failovers);
                buf.put_u8(s.degraded as u8);
            }
            Response::HealthReply { ok } => {
                buf.put_u8(0x86);
                buf.put_u8(*ok as u8);
            }
            Response::Error { code, message } => {
                buf.put_u8(0x87);
                buf.put_u8(*code as u8);
                let msg = message.as_bytes();
                let take = msg.len().min(1024);
                buf.put_u32_le(take as u32);
                buf.put_slice(&msg[..take]);
            }
            Response::ShardReady { shard_id, rows } => {
                buf.put_u8(0x88);
                buf.put_u32_le(*shard_id);
                buf.put_u64_le(*rows);
            }
            Response::ShardLogits { start, cols, values } => {
                put_chunk(&mut buf, 0x89, *start, *cols, values)
            }
            Response::ShardFingerprintReply { chunk_rows, fingerprints } => {
                buf.put_u8(0x8A);
                buf.put_u64_le(*chunk_rows);
                buf.put_u32_le(
                    u32::try_from(fingerprints.len()).expect("fingerprint reply too large"),
                );
                for &f in fingerprints {
                    buf.put_u64_le(f);
                }
            }
        }
        buf.freeze().to_vec()
    }

    /// Decodes a frame body. Strict: trailing bytes are an error.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut buf = Bytes::copy_from_slice(body);
        let op = get_u8(&mut buf)?;
        let resp = match op {
            0x81 => {
                let token = get_u64(&mut buf)?;
                let proto = get_u16(&mut buf)?;
                let mode = match get_u8(&mut buf)? {
                    0 => ServingMode::Public,
                    1 => ServingMode::Private,
                    _ => return Err(WireError::Malformed("bad serving-mode tag")),
                };
                let dtype = match get_u8(&mut buf)? {
                    0 => StoreDtype::F64,
                    1 => StoreDtype::F32,
                    _ => return Err(WireError::Malformed("bad store-dtype tag")),
                };
                let nodes = get_u64(&mut buf)?;
                let feature_dim = get_u32(&mut buf)?;
                let classes = get_u32(&mut buf)?;
                Response::HelloAck {
                    token,
                    info: ServerInfo { proto, mode, dtype, nodes, feature_dim, classes },
                }
            }
            0x82 => {
                let count = get_u32(&mut buf)? as usize;
                if count.checked_mul(8).is_none_or(|b| buf.remaining() < b) {
                    return Err(DecodeError::Truncated.into());
                }
                Response::Logits { values: (0..count).map(|_| buf.get_f64_le()).collect() }
            }
            0x83 => {
                let (start, cols, values) = get_chunk(&mut buf)?;
                Response::BulkChunk { start, cols, values }
            }
            0x84 => Response::BulkDone { total_rows: get_u64(&mut buf)? },
            0x85 => Response::StatsReply(WireStats {
                connections: get_u64(&mut buf)?,
                requests: get_u64(&mut buf)?,
                batches: get_u64(&mut buf)?,
                largest_batch: get_u64(&mut buf)?,
                rejected_overload: get_u64(&mut buf)?,
                quarantined: get_u64(&mut buf)?,
                failovers: get_u64(&mut buf)?,
                degraded: match get_u8(&mut buf)? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("bad degraded flag")),
                },
            }),
            0x86 => Response::HealthReply {
                ok: match get_u8(&mut buf)? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Malformed("bad health flag")),
                },
            },
            0x87 => {
                let code = ErrorCode::from_tag(get_u8(&mut buf)?)
                    .ok_or(WireError::Malformed("unknown error code"))?;
                let len = get_u32(&mut buf)? as usize;
                if len > 1024 || buf.remaining() < len {
                    return Err(DecodeError::Truncated.into());
                }
                let mut msg = vec![0u8; len];
                buf.copy_to_slice(&mut msg);
                Response::Error { code, message: String::from_utf8_lossy(&msg).into_owned() }
            }
            0x88 => Response::ShardReady { shard_id: get_u32(&mut buf)?, rows: get_u64(&mut buf)? },
            0x89 => {
                let (start, cols, values) = get_chunk(&mut buf)?;
                Response::ShardLogits { start, cols, values }
            }
            0x8A => {
                let chunk_rows = get_u64(&mut buf)?;
                let count = get_u32(&mut buf)? as usize;
                if count.checked_mul(8).is_none_or(|b| buf.remaining() < b) {
                    return Err(DecodeError::Truncated.into());
                }
                Response::ShardFingerprintReply {
                    chunk_rows,
                    fingerprints: (0..count).map(|_| buf.get_u64_le()).collect(),
                }
            }
            _ => return Err(WireError::Malformed("unknown response opcode")),
        };
        if buf.remaining() != 0 {
            return Err(WireError::Malformed("trailing bytes after response"));
        }
        Ok(resp)
    }
}

/// `Bulk`/`ShardQuery` body: opcode, token, `u32` count, the node ids.
fn put_nodes(buf: &mut BytesMut, op: u8, token: u64, nodes: &[u64]) {
    buf.put_u8(op);
    buf.put_u64_le(token);
    buf.put_u32_le(u32::try_from(nodes.len()).expect("node list too large"));
    for &n in nodes {
        buf.put_u64_le(n);
    }
}

/// The node list of a `Bulk`/`ShardQuery` body, the allocation bounded by
/// the bytes actually present.
fn get_nodes(buf: &mut Bytes) -> Result<Vec<u64>, WireError> {
    let count = get_u32(buf)? as usize;
    if count.checked_mul(8).is_none_or(|b| buf.remaining() < b) {
        return Err(DecodeError::Truncated.into());
    }
    Ok((0..count).map(|_| buf.get_u64_le()).collect())
}

/// `BulkChunk`/`ShardLogits` body: opcode, start, rows, cols, the values.
fn put_chunk(buf: &mut BytesMut, op: u8, start: u64, cols: u32, values: &[f64]) {
    buf.put_u8(op);
    buf.put_u64_le(start);
    let cols_usize = cols as usize;
    debug_assert!(cols_usize > 0 && values.len().is_multiple_of(cols_usize));
    buf.put_u32_le(u32::try_from(values.len() / cols_usize).expect("chunk too tall"));
    buf.put_u32_le(cols);
    for &v in values {
        buf.put_f64_le(v);
    }
}

/// The `(start, cols, values)` of a `BulkChunk`/`ShardLogits` body; an
/// overflowing `rows × cols` or a count beyond the bytes present is an
/// error before any allocation.
fn get_chunk(buf: &mut Bytes) -> Result<(u64, u32, Vec<f64>), WireError> {
    let start = get_u64(buf)?;
    let rows = get_u32(buf)? as usize;
    let cols = get_u32(buf)?;
    let count =
        rows.checked_mul(cols as usize).ok_or(WireError::Malformed("chunk dimensions overflow"))?;
    if count.checked_mul(8).is_none_or(|b| buf.remaining() < b) {
        return Err(DecodeError::Truncated.into());
    }
    Ok((start, cols, (0..count).map(|_| buf.get_f64_le()).collect()))
}

fn mode_tag(mode: ServingMode) -> u8 {
    match mode {
        ServingMode::Public => 0,
        ServingMode::Private => 1,
    }
}

fn dtype_tag(dtype: StoreDtype) -> u8 {
    match dtype {
        StoreDtype::F64 => 0,
        StoreDtype::F32 => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { proto: PROTO_VERSION },
            Request::Query { token: 0xDEAD_BEEF, node: 42 },
            Request::Bulk { token: 7, nodes: vec![0, 1, 9, u64::MAX] },
            Request::Bulk { token: 7, nodes: vec![] },
            Request::Stats { token: 1 },
            Request::Health,
            Request::Bye,
            Request::ShardAssign {
                token: 7,
                shard_id: 2,
                row_start: 24,
                artifact: vec![0xDE, 0xAD, 0xBE, 0xEF, 0x00],
            },
            Request::ShardAssign { token: 7, shard_id: 0, row_start: 0, artifact: vec![] },
            Request::ShardQuery { token: 7, nodes: vec![24, 25, u64::MAX] },
            Request::ShardQuery { token: 7, nodes: vec![] },
            Request::ShardFingerprint { token: 7, chunk_rows: 64 },
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::HelloAck {
                token: 99,
                info: ServerInfo {
                    proto: PROTO_VERSION,
                    mode: ServingMode::Private,
                    dtype: StoreDtype::F32,
                    nodes: 48,
                    feature_dim: 12,
                    classes: 3,
                },
            },
            Response::Logits { values: vec![0.5, -1.25, f64::MIN_POSITIVE] },
            Response::BulkChunk { start: 3, cols: 2, values: vec![1.0, 2.0, 3.0, 4.0] },
            Response::BulkDone { total_rows: 5 },
            Response::StatsReply(WireStats {
                connections: 1,
                requests: 2,
                batches: 3,
                largest_batch: 4,
                rejected_overload: 5,
                quarantined: 6,
                failovers: 7,
                degraded: true,
            }),
            Response::HealthReply { ok: true },
            Response::Error { code: ErrorCode::Overloaded, message: "busy".into() },
            Response::ShardReady { shard_id: 2, rows: 24 },
            Response::ShardLogits { start: 8, cols: 3, values: vec![1.5, -2.0, 0.25] },
            Response::ShardFingerprintReply {
                chunk_rows: 64,
                fingerprints: vec![0xCBF2_9CE4, 0, u64::MAX],
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let body = req.encode();
            assert_eq!(Request::decode(&body).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in sample_responses() {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn every_truncation_errs_never_panics() {
        for body in sample_requests().iter().map(Request::encode) {
            for cut in 0..body.len() {
                assert!(Request::decode(&body[..cut]).is_err(), "request prefix {cut}");
            }
        }
        for body in sample_responses().iter().map(Response::encode) {
            for cut in 0..body.len() {
                assert!(Response::decode(&body[..cut]).is_err(), "response prefix {cut}");
            }
        }
    }

    #[test]
    fn every_single_byte_flip_is_err_or_ok_never_panic() {
        for body in sample_requests().iter().map(Request::encode) {
            for i in 0..body.len() {
                let mut flipped = body.clone();
                flipped[i] ^= 0xA5;
                let _ = Request::decode(&flipped);
            }
        }
        for body in sample_responses().iter().map(Response::encode) {
            for i in 0..body.len() {
                let mut flipped = body.clone();
                flipped[i] ^= 0xA5;
                let _ = Response::decode(&flipped);
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut body = Request::Health.encode();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(WireError::Malformed(_))));
    }

    #[test]
    fn unknown_opcodes_rejected() {
        assert!(Request::decode(&[0x7F]).is_err());
        assert!(Response::decode(&[0x01]).is_err());
        assert!(Request::decode(&[]).is_err());
    }

    /// A hostile bulk count larger than the actual payload must not
    /// trigger a count-sized allocation.
    #[test]
    fn hostile_bulk_count_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x03);
        buf.put_u64_le(0);
        buf.put_u32_le(u32::MAX);
        let body = buf.freeze().to_vec();
        assert!(Request::decode(&body).is_err());
    }

    /// Same discipline for every fleet frame carrying a count or length:
    /// a hostile header larger than the payload present is rejected before
    /// any count-sized allocation.
    #[test]
    fn hostile_shard_counts_rejected() {
        // ShardAssign with an artifact length beyond the body.
        let mut buf = BytesMut::new();
        buf.put_u8(0x07);
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(u32::MAX);
        assert!(Request::decode(&buf.freeze()).is_err());
        // ShardQuery with a hostile node count.
        let mut buf = BytesMut::new();
        buf.put_u8(0x08);
        buf.put_u64_le(0);
        buf.put_u32_le(u32::MAX);
        assert!(Request::decode(&buf.freeze()).is_err());
        // ShardLogits with overflowing dims.
        let mut buf = BytesMut::new();
        buf.put_u8(0x89);
        buf.put_u64_le(0);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        assert!(Response::decode(&buf.freeze()).is_err());
        // ShardFingerprintReply with a hostile fingerprint count.
        let mut buf = BytesMut::new();
        buf.put_u8(0x8A);
        buf.put_u64_le(64);
        buf.put_u32_le(u32::MAX);
        assert!(Response::decode(&buf.freeze()).is_err());
    }

    /// Hostile chunk dims whose product overflows must be rejected, not
    /// wrap into a small allocation.
    #[test]
    fn hostile_chunk_dims_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x83);
        buf.put_u64_le(0);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        let body = buf.freeze().to_vec();
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn frame_io_roundtrip_and_eof() {
        let mut wire = Vec::new();
        let body1 = Request::Health.encode();
        let body2 = Request::Bye.encode();
        write_frame(&mut wire, &body1).unwrap();
        write_frame(&mut wire, &body2).unwrap();
        let mut cursor = &wire[..];
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(), body1);
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(), body2);
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_frame_header_rejected_before_allocation() {
        let header = (u32::MAX).to_le_bytes();
        let mut cursor = &header[..];
        match read_frame(&mut cursor, 1024) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, 1024);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_torn_frames_rejected() {
        let zero = 0u32.to_le_bytes();
        let mut cursor = &zero[..];
        assert!(matches!(read_frame(&mut cursor, 1024), Err(WireError::Malformed(_))));
        // Header promises 8 bytes, stream ends after 3.
        let mut torn = 8u32.to_le_bytes().to_vec();
        torn.extend_from_slice(&[1, 2, 3]);
        let mut cursor = &torn[..];
        assert!(read_frame(&mut cursor, 1024).is_err());
        // Stream dies inside the header itself.
        let mut cursor = &[0x04u8, 0x00][..];
        assert!(read_frame(&mut cursor, 1024).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = WireError::FrameTooLarge { len: 10, max: 5 };
        assert!(e.to_string().contains("10"));
        let e = WireError::Server { code: ErrorCode::BadToken, message: "nope".into() };
        assert!(e.to_string().contains("nope"));
        assert!(ErrorCode::from_tag(200).is_none());
    }
}
