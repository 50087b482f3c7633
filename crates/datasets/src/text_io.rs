//! Plain-text loaders for **real** benchmark data.
//!
//! The repository ships deterministic synthetic stand-ins for the paper's
//! datasets (Table II), but a user who has the actual Planetoid/film files
//! can run the paper's exact graphs through this module. The accepted
//! formats are the common denominators of public graph releases:
//!
//! - **edge list** — one `u v` pair per line, whitespace-separated,
//!   `#`-prefixed comment lines ignored; node ids are arbitrary
//!   non-negative integers and are compacted to `0..n`;
//! - **features** — one node per line: `id v₁ v₂ … v_d` (dense), or the
//!   sparse `id idx:val …` form, parsed straight into a [`Csr`];
//! - **labels** — one `id label` pair per line; string labels are interned
//!   in first-appearance order.
//!
//! [`assemble`] stitches the three into a [`Dataset`] with a deterministic
//! stratified split, re-using the same id compaction across the files so
//! row `i` of the features is node `i` of the graph.

use crate::dataset::Dataset;
use crate::splits::stratified_split;
use gcon_graph::{Csr, Graph};
use std::collections::HashMap;

/// Errors from the text loaders.
#[derive(Debug)]
pub enum TextError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line did not match the expected grammar; carries (line number,
    /// explanation).
    Parse(usize, String),
    /// The three files disagree (unknown node id, missing features, …).
    Inconsistent(String),
    /// A feature file gives a node id a second row; carries (line number,
    /// node id).
    RepeatedRow(usize, u64),
    /// A sparse feature row names an index twice; carries (line number,
    /// index).
    RepeatedIndex(usize, u32),
    /// A sparse feature index is `2³²` or more, beyond a `u32` column;
    /// carries (line number, index).
    IndexTooLarge(usize, u64),
}

impl std::fmt::Display for TextError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TextError::Io(e) => write!(f, "io error: {e}"),
            TextError::Parse(line, what) => write!(f, "line {line}: {what}"),
            TextError::Inconsistent(what) => write!(f, "inconsistent inputs: {what}"),
            TextError::RepeatedRow(line, id) => {
                write!(f, "line {line}: second feature row for node {id}")
            }
            TextError::RepeatedIndex(line, idx) => {
                write!(f, "line {line}: feature index {idx} given twice")
            }
            TextError::IndexTooLarge(line, idx) => {
                write!(f, "line {line}: feature index {idx} does not fit a u32 column")
            }
        }
    }
}

impl std::error::Error for TextError {}

impl From<std::io::Error> for TextError {
    fn from(e: std::io::Error) -> Self {
        TextError::Io(e)
    }
}

/// Raw node-id vocabulary: maps external ids to compact `0..n` indices in
/// first-appearance order (deterministic for a fixed file).
#[derive(Debug, Default, Clone)]
pub struct NodeVocab {
    map: HashMap<u64, u32>,
}

impl NodeVocab {
    /// Interns an external id.
    pub fn intern(&mut self, ext: u64) -> u32 {
        let next = self.map.len() as u32;
        *self.map.entry(ext).or_insert(next)
    }

    /// Looks up an already-interned id.
    pub fn get(&self, ext: u64) -> Option<u32> {
        self.map.get(&ext).copied()
    }

    /// Number of distinct nodes seen.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no id has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Parses an edge list from a string. Returns the edges in compacted ids
/// plus the vocabulary. Self-loops and duplicate edges are dropped
/// (the paper's graphs are simple).
pub fn parse_edge_list(text: &str) -> Result<(Vec<(u32, u32)>, NodeVocab), TextError> {
    let mut vocab = NodeVocab::default();
    let mut edges = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let u: u64 = parts
            .next()
            .unwrap()
            .parse()
            .map_err(|_| TextError::Parse(lineno + 1, format!("bad node id in `{line}`")))?;
        let v: u64 = parts
            .next()
            .ok_or_else(|| TextError::Parse(lineno + 1, format!("need two ids in `{line}`")))?
            .parse()
            .map_err(|_| TextError::Parse(lineno + 1, format!("bad node id in `{line}`")))?;
        if parts.next().is_some() {
            return Err(TextError::Parse(lineno + 1, format!("trailing tokens in `{line}`")));
        }
        let cu = vocab.intern(u);
        let cv = vocab.intern(v);
        if cu != cv {
            edges.push((cu.min(cv), cu.max(cv)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Ok((edges, vocab))
}

/// Parses a feature file against an existing vocabulary. Supports dense
/// (`id v …`) and sparse (`id idx:val …`) rows. A row for an id the
/// vocabulary has not seen interns it (an isolated node); nodes without a
/// row get a zero row. Zero values are not stored, so the result is
/// `Csr::from_dense` of the `n × d` matrix the file describes.
///
/// Besides malformed tokens, rejects a file that mixes the two grammars,
/// dense rows of different widths, a second row for one id
/// ([`TextError::RepeatedRow`]), an index given twice in a sparse row
/// ([`TextError::RepeatedIndex`]) and an index of `2³²` or more
/// ([`TextError::IndexTooLarge`]).
pub fn parse_features(text: &str, vocab: &mut NodeVocab) -> Result<Csr, TextError> {
    // Per node, its row's entries sorted by index, zeros dropped.
    let mut rows: Vec<Option<Vec<(u32, f64)>>> = Vec::new();
    let mut dim = 0usize;
    let mut dense_width: Option<usize> = None;
    let (mut any_sparse, mut any_dense) = (false, false);
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = lineno + 1;
        let mut parts = line.split_whitespace();
        let id: u64 = parts
            .next()
            .unwrap()
            .parse()
            .map_err(|_| TextError::Parse(lineno, format!("bad node id in `{line}`")))?;
        let node = vocab.intern(id) as usize;
        let mut entries = Vec::new();
        let mut width = 0u32;
        for tok in parts {
            if let Some((i, v)) = tok.split_once(':') {
                let idx: u64 = i
                    .parse()
                    .map_err(|_| TextError::Parse(lineno, format!("bad sparse index `{tok}`")))?;
                let idx = u32::try_from(idx).map_err(|_| TextError::IndexTooLarge(lineno, idx))?;
                let val: f64 = v
                    .parse()
                    .map_err(|_| TextError::Parse(lineno, format!("bad sparse value `{tok}`")))?;
                entries.push((idx, val));
                dim = dim.max(idx as usize + 1);
                any_sparse = true;
            } else {
                let val: f64 = tok
                    .parse()
                    .map_err(|_| TextError::Parse(lineno, format!("bad feature value `{tok}`")))?;
                entries.push((width, val));
                width += 1;
                any_dense = true;
            }
        }
        if any_sparse && any_dense {
            return Err(TextError::Inconsistent("feature file mixes dense and sparse rows".into()));
        }
        if width > 0 {
            let width = width as usize;
            let first = *dense_width.get_or_insert(width);
            if width != first {
                return Err(TextError::Inconsistent(format!(
                    "dense feature rows have inconsistent widths ({width} vs {first})"
                )));
            }
            dim = width;
        }
        entries.sort_unstable_by_key(|&(j, _)| j);
        if let Some(pair) = entries.windows(2).find(|p| p[0].0 == p[1].0) {
            return Err(TextError::RepeatedIndex(lineno, pair[0].0));
        }
        entries.retain(|&(_, v)| v != 0.0);
        if rows.len() <= node {
            rows.resize(node + 1, None);
        }
        if rows[node].replace(entries).is_some() {
            return Err(TextError::RepeatedRow(lineno, id));
        }
    }
    let mut x = Csr::new(dim);
    rows.resize(vocab.len(), None);
    for row in rows {
        x.push_row(row.unwrap_or_default());
    }
    Ok(x)
}

/// Parses a label file against an existing vocabulary. String labels are
/// interned in first-appearance order. Returns `(labels per node, c)`;
/// unlabeled nodes get class 0 (they should not be placed in train/test
/// splits by the caller — [`assemble`] only splits labeled nodes).
pub fn parse_labels(
    text: &str,
    vocab: &mut NodeVocab,
) -> Result<(Vec<usize>, usize, Vec<u32>), TextError> {
    let mut class_vocab: HashMap<String, usize> = HashMap::new();
    let mut pairs: Vec<(u32, usize)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let id: u64 = parts
            .next()
            .unwrap()
            .parse()
            .map_err(|_| TextError::Parse(lineno + 1, format!("bad node id in `{line}`")))?;
        let label = parts
            .next()
            .ok_or_else(|| TextError::Parse(lineno + 1, format!("need `id label` in `{line}`")))?;
        if parts.next().is_some() {
            return Err(TextError::Parse(lineno + 1, format!("trailing tokens in `{line}`")));
        }
        let next = class_vocab.len();
        let cls = *class_vocab.entry(label.to_string()).or_insert(next);
        pairs.push((vocab.intern(id), cls));
    }
    let n = vocab.len();
    let mut labels = vec![0usize; n];
    let mut labeled: Vec<u32> = Vec::with_capacity(pairs.len());
    for (node, cls) in pairs {
        labels[node as usize] = cls;
        labeled.push(node);
    }
    labeled.sort_unstable();
    labeled.dedup();
    Ok((labels, class_vocab.len().max(1), labeled))
}

/// Assembles a [`Dataset`] from the three text blobs, with a deterministic
/// stratified split over the labeled nodes (`train_frac`/`val_frac`, rest
/// test).
pub fn assemble(
    name: &str,
    edge_text: &str,
    feature_text: &str,
    label_text: &str,
    train_frac: f64,
    val_frac: f64,
    seed: u64,
) -> Result<Dataset, TextError> {
    let (edges, mut vocab) = parse_edge_list(edge_text)?;
    let mut x = parse_features(feature_text, &mut vocab)?;
    let (labels, num_classes, labeled) = parse_labels(label_text, &mut vocab)?;
    let n = vocab.len();
    // Ids the label file introduced after the features were parsed get
    // zero rows.
    while x.rows() < n {
        x.push_row([]);
    }
    if n == 0 {
        return Err(TextError::Inconsistent("no nodes in input".into()));
    }
    let graph = Graph::from_edges(n, &edges);
    let labeled_idx: Vec<usize> = labeled.iter().map(|&v| v as usize).collect();
    let split = stratified_split(&labels, &labeled_idx, train_frac, val_frac, seed);
    Ok(Dataset { name: name.to_string(), graph, features: x, labels, num_classes, split })
}

/// Loads the three files from disk and assembles the dataset.
pub fn load_from_files(
    name: &str,
    edges: &std::path::Path,
    features: &std::path::Path,
    labels: &std::path::Path,
    train_frac: f64,
    val_frac: f64,
    seed: u64,
) -> Result<Dataset, TextError> {
    let e = std::fs::read_to_string(edges)?;
    let f = std::fs::read_to_string(features)?;
    let l = std::fs::read_to_string(labels)?;
    assemble(name, &e, &f, &l, train_frac, val_frac, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EDGES: &str = "# a comment\n10 20\n20 30\n10 30\n30 30\n10 20\n";
    const FEATS_DENSE: &str = "10 1.0 0.0\n20 0.5 0.5\n30 0.0 1.0\n";
    const FEATS_SPARSE: &str = "10 0:1.0\n20 0:0.5 1:0.5\n30 1:1.0\n";
    const LABELS: &str = "10 cat\n20 dog\n30 cat\n";

    #[test]
    fn edge_list_compacts_dedups_and_drops_loops() {
        let (edges, vocab) = parse_edge_list(EDGES).unwrap();
        assert_eq!(vocab.len(), 3);
        // 10→0, 20→1, 30→2 in first-appearance order; loop 30-30 dropped,
        // duplicate 10-20 dropped.
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(matches!(parse_edge_list("1 two\n"), Err(TextError::Parse(1, _))));
        assert!(matches!(parse_edge_list("1\n"), Err(TextError::Parse(1, _))));
        assert!(matches!(parse_edge_list("1 2 3\n"), Err(TextError::Parse(1, _))));
    }

    #[test]
    fn dense_and_sparse_features_agree() {
        let (_, mut v1) = parse_edge_list(EDGES).unwrap();
        let (_, mut v2) = parse_edge_list(EDGES).unwrap();
        let d = parse_features(FEATS_DENSE, &mut v1).unwrap();
        let s = parse_features(FEATS_SPARSE, &mut v2).unwrap();
        assert_eq!((d.rows(), d.cols()), (3, 2));
        assert_eq!(d, s);
    }

    /// An accepted file parses to `from_dense` of the matrix it describes:
    /// zeros (`-0` too) are not stored, sparse indices may come in any
    /// order, and an id-only line or a node without a row is a zero row.
    #[test]
    fn parsed_features_equal_from_dense_of_the_described_matrix() {
        use gcon_linalg::Mat;
        let want = Mat::from_rows(&[&[1.5, 0.0, 0.0], &[0.0, 0.0, 0.0], &[0.0, 0.0, 2.0]]);
        let (_, mut vocab) = parse_edge_list(EDGES).unwrap();
        let dense = parse_features("10 1.5 0 -0\n30 0.0 0.0 2\n", &mut vocab).unwrap();
        assert_eq!(dense, Csr::from_dense(&want));
        let (_, mut vocab) = parse_edge_list(EDGES).unwrap();
        let sparse = parse_features("30 2:2 0:0\n10 0:1.5 1:-0\n20\n", &mut vocab).unwrap();
        assert_eq!(sparse, Csr::from_dense(&want));
    }

    #[test]
    fn repeated_rows_are_rejected_in_both_grammars() {
        let mut v = NodeVocab::default();
        let r = parse_features("1 1.0 2.0\n2 0 0\n1 3.0 4.0\n", &mut v);
        assert!(matches!(r, Err(TextError::RepeatedRow(3, 1))), "{r:?}");
        let mut v = NodeVocab::default();
        let r = parse_features("7 0:1.0\n# note\n7 1:1.0\n", &mut v);
        assert!(matches!(r, Err(TextError::RepeatedRow(3, 7))), "{r:?}");
    }

    #[test]
    fn repeated_sparse_index_is_rejected() {
        let mut v = NodeVocab::default();
        let r = parse_features("1 3:1.0 0:2.0 3:5.0\n", &mut v);
        assert!(matches!(r, Err(TextError::RepeatedIndex(1, 3))), "{r:?}");
        // Also when one of the two values is zero.
        let mut v = NodeVocab::default();
        let r = parse_features("1 1:4\n2 0:0 0:2\n", &mut v);
        assert!(matches!(r, Err(TextError::RepeatedIndex(2, 0))), "{r:?}");
    }

    /// An index of 2³² is rejected; the largest `u32` index is a column
    /// like any other and allocates nothing for the columns below it.
    #[test]
    fn sparse_index_beyond_u32_is_rejected() {
        let mut v = NodeVocab::default();
        let r = parse_features("1 4294967296:1.0\n", &mut v);
        assert!(matches!(r, Err(TextError::IndexTooLarge(1, 4_294_967_296))), "{r:?}");
        let mut v = NodeVocab::default();
        let x = parse_features("1 4294967295:1.0\n", &mut v).unwrap();
        assert_eq!((x.rows(), x.cols(), x.nnz()), (1, 1 << 32, 1));
    }

    /// A feature row for an id no edge names interns it: an isolated node.
    #[test]
    fn feature_rows_for_unknown_ids_become_isolated_nodes() {
        let (_, mut vocab) = parse_edge_list(EDGES).unwrap();
        let x = parse_features("10 1.0\n99 2.0\n", &mut vocab).unwrap();
        assert_eq!((vocab.len(), x.rows()), (4, 4));
        assert_eq!(x.row(3), (&[0u32][..], &[2.0][..]));
        assert!(x.row(1).0.is_empty());
    }

    #[test]
    fn mixed_feature_grammars_rejected() {
        let mut v = NodeVocab::default();
        let r = parse_features("1 0:1.0\n2 0.5 0.5\n", &mut v);
        assert!(matches!(r, Err(TextError::Inconsistent(_))));
    }

    #[test]
    fn ragged_dense_rows_rejected() {
        let mut v = NodeVocab::default();
        let r = parse_features("1 1.0 2.0\n2 1.0\n", &mut v);
        assert!(matches!(r, Err(TextError::Inconsistent(_))));
    }

    #[test]
    fn labels_interned_in_first_appearance_order() {
        let (_, mut vocab) = parse_edge_list(EDGES).unwrap();
        let (labels, c, labeled) = parse_labels(LABELS, &mut vocab).unwrap();
        assert_eq!(c, 2);
        assert_eq!(labels, vec![0, 1, 0]); // cat=0, dog=1
        assert_eq!(labeled, vec![0, 1, 2]);
    }

    #[test]
    fn assemble_builds_a_consistent_dataset() {
        let d = assemble("toy", EDGES, FEATS_DENSE, LABELS, 0.34, 0.33, 7).unwrap();
        assert_eq!(d.num_nodes(), 3);
        assert_eq!(d.graph.num_edges(), 3);
        assert_eq!(d.num_classes, 2);
        assert_eq!((d.features.rows(), d.features.cols()), (3, 2));
        // Every labeled node appears in exactly one split bucket.
        let mut all: Vec<usize> =
            d.split.train.iter().chain(&d.split.val).chain(&d.split.test).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), d.split.train.len() + d.split.val.len() + d.split.test.len());
    }

    #[test]
    fn assemble_handles_feature_less_nodes() {
        // Node 40 appears only in the label file: gets a zero feature row.
        let labels = "10 cat\n20 dog\n30 cat\n40 dog\n";
        let d = assemble("toy", EDGES, FEATS_DENSE, labels, 0.5, 0.25, 3).unwrap();
        assert_eq!(d.num_nodes(), 4);
        assert_eq!(d.features.rows(), 4);
        assert!(d.features.row(3).0.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("gcon_text_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let e = dir.join("edges.txt");
        let f = dir.join("feats.txt");
        let l = dir.join("labels.txt");
        std::fs::write(&e, EDGES).unwrap();
        std::fs::write(&f, FEATS_SPARSE).unwrap();
        std::fs::write(&l, LABELS).unwrap();
        let d = load_from_files("disk-toy", &e, &f, &l, 0.34, 0.33, 1).unwrap();
        assert_eq!(d.name, "disk-toy");
        assert_eq!(d.num_nodes(), 3);
        for p in [e, f, l] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(assemble("x", "", "", "", 0.5, 0.2, 0), Err(TextError::Inconsistent(_))));
    }
}
