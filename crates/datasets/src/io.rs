//! Binary serialization for datasets.
//!
//! Synthetic generation of the full-scale PubMed stand-in takes seconds;
//! pipelines that re-run sweeps benefit from caching datasets on disk. The
//! format is a small explicit little-endian codec built on `bytes` (no
//! serde format crate is available in this workspace):
//!
//! ```text
//! magic "GCDS" | version u32 | name len u32 + utf8 | num_classes u32
//! | n u32 | num_edges u32 | edges (u32, u32)* | features
//! | labels u32* | 3 × (len u32 + u32*) splits
//! ```
//!
//! Version 2 (written by [`encode_dataset`]) stores the features sparse,
//! as `rows u32 | cols u32 | nnz u32` followed by each row's
//! `len u32 | (column u32, value f64)*`, columns ascending. Version 1
//! stored them dense, `rows u32 | cols u32 | f64*` row-major;
//! [`decode_dataset`] still reads it, keeping the nonzero entries. The
//! decoder checks every count (nodes, edges, columns, nonzeros) against the
//! bytes left, with checked arithmetic, before it allocates for it.

use crate::dataset::{Dataset, Split};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gcon_graph::{Csr, Graph};

const MAGIC: &[u8; 4] = b"GCDS";
const VERSION: u32 = 2;
/// The dense-feature version [`decode_dataset`] still reads.
const VERSION_DENSE: u32 = 1;

/// Errors from [`decode_dataset`].
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the `GCDS` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended before the declared payload.
    Truncated,
    /// A length/index field is inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a GCDS dataset buffer"),
            DecodeError::BadVersion(v) => write!(f, "unsupported GCDS version {v}"),
            DecodeError::Truncated => write!(f, "dataset buffer truncated"),
            DecodeError::Corrupt(what) => write!(f, "corrupt dataset buffer: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Serializes a dataset into an owned byte buffer.
pub fn encode_dataset(d: &Dataset) -> Bytes {
    let n = d.num_nodes();
    let edges = d.graph.edges();
    let x = &d.features;
    let mut buf = BytesMut::with_capacity(
        64 + d.name.len() + edges.len() * 8 + x.rows() * 4 + x.nnz() * 12 + n * 4,
    );
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(d.name.len() as u32);
    buf.put_slice(d.name.as_bytes());
    buf.put_u32_le(d.num_classes as u32);
    buf.put_u32_le(n as u32);
    buf.put_u32_le(edges.len() as u32);
    for (u, v) in edges {
        buf.put_u32_le(u);
        buf.put_u32_le(v);
    }
    buf.put_u32_le(x.rows() as u32);
    buf.put_u32_le(x.cols() as u32);
    buf.put_u32_le(u32::try_from(x.nnz()).expect("encode_dataset: nonzeros overflow u32"));
    for i in 0..x.rows() {
        let (cols, vals) = x.row(i);
        buf.put_u32_le(cols.len() as u32);
        for (&j, &v) in cols.iter().zip(vals) {
            buf.put_u32_le(j);
            buf.put_f64_le(v);
        }
    }
    for &l in &d.labels {
        buf.put_u32_le(l as u32);
    }
    for part in [&d.split.train, &d.split.val, &d.split.test] {
        buf.put_u32_le(part.len() as u32);
        for &i in part {
            buf.put_u32_le(i as u32);
        }
    }
    buf.freeze()
}

fn need(buf: &impl Buf, bytes: usize) -> Result<(), DecodeError> {
    if buf.remaining() < bytes {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

/// `need` for `count` items of `size` bytes each plus `extra` bytes; a
/// total that overflows `usize` cannot fit either.
fn need_items(buf: &impl Buf, count: usize, size: usize, extra: usize) -> Result<(), DecodeError> {
    let total = count.checked_mul(size).and_then(|b| b.checked_add(extra));
    need(buf, total.ok_or(DecodeError::Truncated)?)
}

fn get_index_vec(buf: &mut impl Buf, max: usize) -> Result<Vec<usize>, DecodeError> {
    need(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    need_items(buf, len, 4, 0)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let i = buf.get_u32_le() as usize;
        if i >= max {
            return Err(DecodeError::Corrupt("split index out of range"));
        }
        out.push(i);
    }
    Ok(out)
}

/// Deserializes a dataset from a byte buffer produced by [`encode_dataset`].
pub fn decode_dataset(mut buf: &[u8]) -> Result<Dataset, DecodeError> {
    need(&buf, 8)?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION && version != VERSION_DENSE {
        return Err(DecodeError::BadVersion(version));
    }
    need(&buf, 4)?;
    let name_len = buf.get_u32_le() as usize;
    need(&buf, name_len)?;
    let mut name_bytes = vec![0u8; name_len];
    buf.copy_to_slice(&mut name_bytes);
    let name = String::from_utf8(name_bytes).map_err(|_| DecodeError::Corrupt("name not utf8"))?;
    need(&buf, 12)?;
    let num_classes = buf.get_u32_le() as usize;
    let n = buf.get_u32_le() as usize;
    let num_edges = buf.get_u32_le() as usize;
    // The edges, the feature header and a label per node must all fit
    // before the graph's n adjacency lists are allocated.
    let edge_bytes = num_edges.checked_mul(8).ok_or(DecodeError::Truncated)?;
    need_items(&buf, n, 4, edge_bytes.checked_add(8).ok_or(DecodeError::Truncated)?)?;
    let mut graph = Graph::empty(n);
    for _ in 0..num_edges {
        let u = buf.get_u32_le();
        let v = buf.get_u32_le();
        if u as usize >= n || v as usize >= n {
            return Err(DecodeError::Corrupt("edge endpoint out of range"));
        }
        graph.add_edge(u, v);
    }
    let features = if version == VERSION_DENSE {
        get_dense_features(&mut buf, n)?
    } else {
        get_sparse_features(&mut buf, n)?
    };
    need_items(&buf, n, 4, 0)?;
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let l = buf.get_u32_le() as usize;
        if l >= num_classes {
            return Err(DecodeError::Corrupt("label out of range"));
        }
        labels.push(l);
    }
    let train = get_index_vec(&mut buf, n)?;
    let val = get_index_vec(&mut buf, n)?;
    let test = get_index_vec(&mut buf, n)?;
    Ok(Dataset { name, graph, features, labels, num_classes, split: Split { train, val, test } })
}

/// The version-2 feature block: `rows | cols | nnz`, then each row's length
/// and `(column, value)` entries.
fn get_sparse_features(buf: &mut &[u8], n: usize) -> Result<Csr, DecodeError> {
    need(buf, 12)?;
    let rows = buf.get_u32_le() as usize;
    let cols = buf.get_u32_le() as usize;
    let nnz = buf.get_u32_le() as usize;
    if rows != n {
        return Err(DecodeError::Corrupt("feature rows must equal node count"));
    }
    // A length per row and 12 bytes per entry; the rows may not claim more
    // than `nnz` entries in total, so every read below is in bounds.
    need_items(buf, nnz, 12, rows.checked_mul(4).ok_or(DecodeError::Truncated)?)?;
    let mut x = Csr::new(cols);
    let mut row: Vec<(u32, f64)> = Vec::new();
    let mut seen = 0usize;
    for _ in 0..rows {
        let len = buf.get_u32_le() as usize;
        seen = seen
            .checked_add(len)
            .filter(|&s| s <= nnz)
            .ok_or(DecodeError::Corrupt("feature rows hold more than nnz entries"))?;
        row.clear();
        for _ in 0..len {
            let (j, v) = (buf.get_u32_le(), buf.get_f64_le());
            if j as usize >= cols || row.last().is_some_and(|&(prev, _)| prev >= j) {
                return Err(DecodeError::Corrupt("feature columns out of range or not ascending"));
            }
            row.push((j, v));
        }
        x.push_row(row.iter().copied());
    }
    if seen != nnz {
        return Err(DecodeError::Corrupt("feature rows hold fewer than nnz entries"));
    }
    Ok(x)
}

/// The version-1 feature block: `rows | cols`, then the dense values
/// row-major, of which the nonzero ones are kept.
fn get_dense_features(buf: &mut &[u8], n: usize) -> Result<Csr, DecodeError> {
    need(buf, 8)?;
    let rows = buf.get_u32_le() as usize;
    let cols = buf.get_u32_le() as usize;
    if rows != n {
        return Err(DecodeError::Corrupt("feature rows must equal node count"));
    }
    need_items(buf, rows.checked_mul(cols).ok_or(DecodeError::Truncated)?, 8, 0)?;
    let mut x = Csr::new(cols);
    for _ in 0..rows {
        x.push_row((0..cols as u32).filter_map(|j| {
            let v = buf.get_f64_le();
            (v != 0.0).then_some((j, v))
        }));
    }
    Ok(x)
}

/// Writes a dataset to a file.
pub fn save_dataset(d: &Dataset, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode_dataset(d))
}

/// Reads a dataset from a file.
pub fn load_dataset(path: &std::path::Path) -> std::io::Result<Dataset> {
    let bytes = std::fs::read(path)?;
    decode_dataset(&bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_moons_graph;

    #[test]
    fn roundtrip_preserves_everything() {
        let d = two_moons_graph(7);
        let bytes = encode_dataset(&d);
        let back = decode_dataset(&bytes).unwrap();
        assert_eq!(back.name, d.name);
        assert_eq!(back.num_classes, d.num_classes);
        assert_eq!(back.labels, d.labels);
        assert_eq!(back.graph.edges(), d.graph.edges());
        assert_eq!(back.features, d.features);
        assert_eq!(back.split.train, d.split.train);
        assert_eq!(back.split.val, d.split.val);
        assert_eq!(back.split.test, d.split.test);
        back.validate();
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(decode_dataset(b"NOPE1234").unwrap_err(), DecodeError::BadMagic);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let d = two_moons_graph(8);
        let bytes = encode_dataset(&d);
        // Chop at a few strategic points; every prefix must fail cleanly.
        for cut in [0, 3, 7, 11, 40, bytes.len() / 2, bytes.len() - 1] {
            let res = decode_dataset(&bytes[..cut]);
            assert!(res.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn rejects_corrupt_label() {
        let d = two_moons_graph(9);
        let mut bytes = encode_dataset(&d).to_vec();
        // Labels sit right after the feature block; find their offset.
        let name_len = d.name.len();
        let edges = d.graph.num_edges();
        let (rows, nnz) = (d.features.rows(), d.features.nnz());
        let label_off = 4 + 4 + 4 + name_len + 4 + 4 + 4 + edges * 8 + 12 + rows * 4 + nnz * 12;
        bytes[label_off..label_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_dataset(&bytes).unwrap_err(), DecodeError::Corrupt("label out of range"));
    }

    /// The version-1 writer, features dense, kept to check that old files
    /// still decode.
    fn encode_v1(d: &Dataset) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u32_le(VERSION_DENSE);
        buf.put_u32_le(d.name.len() as u32);
        buf.put_slice(d.name.as_bytes());
        buf.put_u32_le(d.num_classes as u32);
        buf.put_u32_le(d.num_nodes() as u32);
        buf.put_u32_le(d.graph.num_edges() as u32);
        for (u, v) in d.graph.edges() {
            buf.put_u32_le(u);
            buf.put_u32_le(v);
        }
        let x = d.features.to_dense();
        buf.put_u32_le(x.rows() as u32);
        buf.put_u32_le(x.cols() as u32);
        for &v in x.as_slice() {
            buf.put_f64_le(v);
        }
        for &l in &d.labels {
            buf.put_u32_le(l as u32);
        }
        for part in [&d.split.train, &d.split.val, &d.split.test] {
            buf.put_u32_le(part.len() as u32);
            for &i in part {
                buf.put_u32_le(i as u32);
            }
        }
        buf.freeze().to_vec()
    }

    /// A v1 (dense) buffer decodes to the same dataset as the v2 (sparse)
    /// encoding of the same data, and the v2 block is the smaller.
    #[test]
    fn v1_dense_buffer_decodes_like_its_v2_encoding() {
        let d = crate::citeseer(0.1, 11);
        let (old, new) = (encode_v1(&d), encode_dataset(&d));
        assert!(new.len() < old.len() / 4, "v2 {} bytes vs v1 {}", new.len(), old.len());
        let (a, b) = (decode_dataset(&old).unwrap(), decode_dataset(&new).unwrap());
        assert_eq!(a.features, d.features);
        assert_eq!(b.features, d.features);
        assert_eq!((a.name, a.num_classes, &a.labels), (b.name, b.num_classes, &b.labels));
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert_eq!(
            (a.split.train, a.split.val, a.split.test),
            (b.split.train, b.split.val, b.split.test)
        );
    }

    /// Raw bytes: a header with `n` nodes, no edges and no name, then
    /// `words` (u32 or f64 each), then zero padding.
    fn buffer(version: u32, n: u32, num_edges: u32, words: &[Word]) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        for v in [version, 0, 2, n, num_edges] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        for w in words {
            match *w {
                Word::U(v) => b.extend_from_slice(&v.to_le_bytes()),
                Word::F(v) => b.extend_from_slice(&v.to_le_bytes()),
            }
        }
        b.extend_from_slice(&[0; 64]);
        b
    }

    enum Word {
        U(u32),
        F(f64),
    }

    /// Each count (nodes, edges, columns, nonzeros) is checked against the
    /// bytes left before anything is allocated for it, and the sparse
    /// block's structure before a row is stored.
    #[test]
    fn every_count_is_checked_before_allocating() {
        use Word::{F, U};
        let err = |b: Vec<u8>| decode_dataset(&b).unwrap_err();
        // A 24-byte header claiming u32::MAX nodes.
        let mut b = buffer(VERSION, u32::MAX, 0, &[]);
        b.truncate(24);
        assert_eq!(err(b), DecodeError::Truncated);
        assert_eq!(err(buffer(VERSION, u32::MAX, 0, &[])), DecodeError::Truncated);
        assert_eq!(err(buffer(VERSION, 2, u32::MAX, &[])), DecodeError::Truncated);
        // v1: 2 rows of u32::MAX columns; v2: u32::MAX nonzeros.
        assert_eq!(err(buffer(VERSION_DENSE, 2, 0, &[U(2), U(u32::MAX)])), DecodeError::Truncated);
        assert_eq!(err(buffer(VERSION, 2, 0, &[U(2), U(4), U(u32::MAX)])), DecodeError::Truncated);
        // v2 structure: row lengths against nnz, columns in range and
        // ascending.
        let corrupt = |words: &[Word]| match err(buffer(VERSION, 2, 0, words)) {
            DecodeError::Corrupt(what) => what,
            other => panic!("expected Corrupt, got {other:?}"),
        };
        assert!(corrupt(&[U(2), U(4), U(1), U(2)]).contains("more than nnz"));
        assert!(corrupt(&[U(2), U(4), U(2), U(1), U(0), F(1.0), U(0)]).contains("fewer than nnz"));
        assert!(corrupt(&[U(2), U(4), U(1), U(1), U(4), F(1.0), U(0)]).contains("out of range"));
        let unsorted = [U(2), U(4), U(2), U(2), U(3), F(1.0), U(1), F(1.0), U(0)];
        assert!(corrupt(&unsorted).contains("not ascending"));
        // A well-formed block of the same shape decodes.
        let ok = [U(2), U(4), U(2), U(2), U(1), F(1.0), U(3), F(-2.0), U(0)];
        let mut b = buffer(VERSION, 2, 0, &ok);
        b.truncate(b.len() - 64);
        b.extend_from_slice(&[0; 8]); // two labels
        b.extend_from_slice(&1u32.to_le_bytes()); // train = [0]
        b.extend_from_slice(&[0; 4]);
        b.extend_from_slice(&[0; 8]); // empty val and test
        let d = decode_dataset(&b).unwrap();
        assert_eq!(d.features.row(0), (&[1u32, 3][..], &[1.0, -2.0][..]));
        assert!(d.features.row(1).0.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let d = two_moons_graph(10);
        let path = std::env::temp_dir().join("gcon_io_test.gcds");
        save_dataset(&d, &path).unwrap();
        let back = load_dataset(&path).unwrap();
        assert_eq!(back.labels, d.labels);
        let _ = std::fs::remove_file(&path);
    }
}
