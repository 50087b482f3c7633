//! Decode robustness under hostile bytes, for every binary surface the
//! repo persists or ships: trained-model artifacts, serving-store
//! artifacts (format v3), and wire frames.
//!
//! The contract under test is **fail-closed decoding**: truncation is
//! always a typed error, bit flips and random byte soup may be rejected or
//! (rarely) decode to a valid value, but must never panic and never
//! trigger an allocation beyond the bytes actually presented. These
//! property tests drive randomized corruption; the exhaustive
//! every-prefix/every-byte sweeps live next to the codecs' unit tests.

use gcon::core::serialize::{self, PersistedStore, StoreArtifact};
use gcon::core::train::train_gcon;
use gcon::core::{GconConfig, TrainedGcon};
use gcon::linalg::Mat;
use gcon::serve::wire::{Request, Response, PROTO_VERSION};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One tiny trained model per process, encoded once: the model-artifact
/// corpus for the corruption tests.
fn model_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = gcon::graph::generators::erdos_renyi_gnm(24, 48, &mut rng);
        let x = Mat::from_fn(24, 6, |i, j| ((i * 7 + j * 5) % 13) as f64 / 13.0 - 0.4);
        let x = gcon::graph::Csr::from_dense(&x);
        let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
        let train_idx: Vec<usize> = (0..24).step_by(2).collect();
        let mut config = GconConfig::default();
        config.encoder.epochs = 5;
        config.optimizer.max_iters = 30;
        let model = train_gcon(&config, &graph, &x, &labels, &train_idx, 2, 3.0, 1e-3, &mut rng);
        serialize::to_bytes(&model).to_vec()
    })
}

/// A small store artifact (f64, f32, and a row-range **slice** — the
/// shard-handoff payload the fleet coordinator ships in `ShardAssign`
/// frames) encoded once.
fn store_bytes() -> &'static [Vec<u8>; 3] {
    static BYTES: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    BYTES.get_or_init(|| {
        let store = Mat::from_fn(9, 4, |i, j| (i as f64 - 3.5) * 0.25 + j as f64);
        let theta = Mat::from_fn(4, 3, |i, j| 1.0 / (1.0 + (i * 3 + j) as f64));
        let f64_store = PersistedStore {
            mode_tag: 1,
            data: StoreArtifact::F64 { store: store.clone(), theta: theta.clone() },
        };
        let f64_bytes = serialize::store_to_bytes(&f64_store);
        let slice_bytes = serialize::store_to_bytes(&f64_store.slice_rows(2, 7));
        let store32 = Mat::<f32>::from_fn(9, 4, |i, j| (i as f32) * 0.5 - j as f32);
        let theta32 = Mat::<f32>::from_fn(4, 3, |i, j| ((i + j) as f32).sin());
        let f32_bytes = serialize::store_to_bytes(&PersistedStore {
            mode_tag: 0,
            data: StoreArtifact::F32 { store: store32, theta: theta32 },
        });
        [f64_bytes.to_vec(), f32_bytes.to_vec(), slice_bytes.to_vec()]
    })
}

/// Every valid wire frame body shape, as a corruption corpus.
fn wire_bodies() -> Vec<Vec<u8>> {
    let mut bodies: Vec<Vec<u8>> = vec![
        Request::Hello { proto: PROTO_VERSION }.encode(),
        Request::Query { token: 77, node: 5 }.encode(),
        Request::Bulk { token: 77, nodes: vec![0, 3, 9] }.encode(),
        Request::Stats { token: 77 }.encode(),
        Request::Health.encode(),
        Request::Bye.encode(),
        // Fleet shard frames (proto v2): the assign payload carries an
        // embedded artifact blob, the query carries global node ids.
        Request::ShardAssign { token: 77, shard_id: 1, row_start: 4, artifact: vec![9; 24] }
            .encode(),
        Request::ShardQuery { token: 77, nodes: vec![4, 5, 6] }.encode(),
        Request::ShardFingerprint { token: 77, chunk_rows: 64 }.encode(),
    ];
    bodies.push(Response::Logits { values: vec![0.25, -3.5] }.encode());
    bodies.push(Response::BulkChunk { start: 2, cols: 2, values: vec![1.0, 2.0] }.encode());
    bodies.push(Response::BulkDone { total_rows: 3 }.encode());
    bodies.push(Response::ShardReady { shard_id: 1, rows: 5 }.encode());
    bodies.push(Response::ShardLogits { start: 1, cols: 2, values: vec![0.5, -1.5] }.encode());
    bodies.push(
        Response::ShardFingerprintReply { chunk_rows: 64, fingerprints: vec![7, 8] }.encode(),
    );
    bodies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a model artifact anywhere is a typed decode error —
    /// never a panic, never an `Ok` on partial data.
    #[test]
    fn truncated_model_artifact_is_always_err(seed: u64) {
        let bytes = model_bytes();
        let cut = (seed % bytes.len() as u64) as usize;
        prop_assert!(serialize::from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes");
    }

    /// Same for store artifacts, both dtypes.
    #[test]
    fn truncated_store_artifact_is_always_err(seed: u64) {
        for bytes in store_bytes() {
            let cut = (seed % bytes.len() as u64) as usize;
            prop_assert!(
                serialize::store_from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes"
            );
        }
    }

    /// Random bit flips in a model artifact never panic; when the decoder
    /// does accept (flips confined to payload values), the result is a
    /// well-formed model that re-encodes without panicking.
    #[test]
    fn bit_flipped_model_artifact_never_panics(seed: u64, byte: u64, bit in 0u32..8) {
        let mut bytes = model_bytes().to_vec();
        let i = (byte % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        // A second flip at a seed-derived offset, to hit multi-field damage.
        let j = (seed % bytes.len() as u64) as usize;
        bytes[j] ^= 0x80;
        if let Ok(model) = serialize::from_bytes(&bytes) {
            let _: TrainedGcon = model;
        }
    }

    /// Random bit flips in store artifacts never panic, and an accepted
    /// decode still satisfies the shape invariant (`store.cols == theta.rows`
    /// is re-checked downstream; here the artifact-level shape is coherent).
    #[test]
    fn bit_flipped_store_artifact_never_panics(byte: u64, bit in 0u32..8) {
        for bytes in store_bytes() {
            let mut bytes = bytes.clone();
            let i = (byte % bytes.len() as u64) as usize;
            bytes[i] ^= 1 << bit;
            if let Ok(persisted) = serialize::store_from_bytes(&bytes) {
                let (rows, d, c) = persisted.data.shape();
                prop_assert!(rows > 0 && d > 0 && c > 0);
            }
        }
    }

    /// Random byte soup is rejected by both artifact decoders (it cannot
    /// even present the magic), with a typed error.
    #[test]
    fn random_bytes_are_rejected_by_artifact_decoders(
        soup in proptest::collection::vec(0u8..=255, 0..200),
    ) {
        prop_assert!(serialize::from_bytes(&soup).is_err());
        prop_assert!(serialize::store_from_bytes(&soup).is_err());
    }

    /// Wire frames: truncation of any valid body is an error; a bit flip
    /// never panics; and any request the decoder does accept re-encodes to
    /// exactly the bytes it was decoded from (the encoding is canonical).
    #[test]
    fn corrupted_wire_frames_fail_closed(seed: u64, bit in 0u32..8) {
        for body in wire_bodies() {
            let cut = (seed % body.len() as u64) as usize;
            prop_assert!(Request::decode(&body[..cut]).is_err());
            prop_assert!(Response::decode(&body[..cut]).is_err());

            let mut flipped = body.clone();
            let i = (seed % body.len() as u64) as usize;
            flipped[i] ^= 1 << bit;
            if let Ok(request) = Request::decode(&flipped) {
                prop_assert_eq!(request.encode(), flipped, "request encoding must be canonical");
            }
            let _ = Response::decode(&flipped); // must not panic
        }
    }

    /// Random byte soup against the wire decoders: never a panic, and any
    /// accepted request re-encodes canonically.
    #[test]
    fn random_bytes_never_panic_wire_decoders(
        soup in proptest::collection::vec(0u8..=255, 1..64),
    ) {
        if let Ok(request) = Request::decode(&soup) {
            prop_assert_eq!(request.encode(), soup.clone(), "request encoding must be canonical");
        }
        let _ = Response::decode(&soup);
    }
}
