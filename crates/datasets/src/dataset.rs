//! The dataset container and its summary statistics.

use gcon_graph::{homophily_ratio, Csr, Graph};

/// Train/validation/test node-index split (Appendix P).
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// Labeled training nodes.
    pub train: Vec<usize>,
    /// Validation nodes.
    pub val: Vec<usize>,
    /// Test nodes.
    pub test: Vec<usize>,
}

/// A node-classification dataset: graph + features + labels + fixed split.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Human-readable name ("cora-ml", …).
    pub name: String,
    /// The (private-edge) graph.
    pub graph: Graph,
    /// Node features, `n × d₀`, sparse: the bag-of-words rows are a few
    /// percent nonzero.
    pub features: Csr,
    /// Class index per node.
    pub labels: Vec<usize>,
    /// Number of classes `c`.
    pub num_classes: usize,
    /// The fixed split.
    pub split: Split,
}

/// The Table II row for a dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Feature dimension d₀.
    pub features: usize,
    /// Number of classes.
    pub classes: usize,
    /// Homophily ratio (Definition 7).
    pub homophily: f64,
}

impl Dataset {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Labels of the training nodes, parallel to `split.train`.
    pub fn train_labels(&self) -> Vec<usize> {
        self.split.train.iter().map(|&i| self.labels[i]).collect()
    }

    /// Labels of the test nodes, parallel to `split.test`.
    pub fn test_labels(&self) -> Vec<usize> {
        self.split.test.iter().map(|&i| self.labels[i]).collect()
    }

    /// `δ = 1/|E|`, the paper's experimental choice (Sec. VI-A).
    pub fn default_delta(&self) -> f64 {
        1.0 / self.graph.num_edges().max(1) as f64
    }

    /// Computes the Table II statistics row.
    pub fn stats(&self) -> DatasetStats {
        DatasetStats {
            vertices: self.num_nodes(),
            edges: self.graph.num_edges(),
            features: self.features.cols(),
            classes: self.num_classes,
            homophily: homophily_ratio(&self.graph, &self.labels),
        }
    }

    /// Sanity validation: shapes agree, split indices are in range and
    /// pairwise disjoint. Panics on violation (used by tests and harness).
    pub fn validate(&self) {
        let n = self.num_nodes();
        assert_eq!(self.features.rows(), n, "{}: feature rows", self.name);
        assert_eq!(self.labels.len(), n, "{}: label count", self.name);
        assert!(self.labels.iter().all(|&l| l < self.num_classes), "{}: label range", self.name);
        let mut seen = vec![false; n];
        for part in [&self.split.train, &self.split.val, &self.split.test] {
            for &i in part {
                assert!(i < n, "{}: split index {i} out of range", self.name);
                assert!(!seen[i], "{}: split overlap at {i}", self.name);
                seen[i] = true;
            }
        }
        assert!(!self.split.train.is_empty(), "{}: empty train split", self.name);
        assert!(!self.split.test.is_empty(), "{}: empty test split", self.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_graph::generators;
    use gcon_linalg::Mat;

    fn tiny() -> Dataset {
        let graph = generators::cycle(10);
        Dataset {
            name: "tiny".into(),
            graph,
            features: Csr::from_dense(&Mat::from_fn(10, 3, |i, j| (i * 3 + j) as f64)),
            labels: (0..10).map(|i| i % 2).collect(),
            num_classes: 2,
            split: Split { train: vec![0, 1, 2, 3], val: vec![4, 5], test: vec![6, 7, 8, 9] },
        }
    }

    #[test]
    fn validate_accepts_consistent_dataset() {
        tiny().validate();
    }

    #[test]
    #[should_panic(expected = "split overlap")]
    fn validate_rejects_overlapping_split() {
        let mut d = tiny();
        d.split.val.push(0);
        d.validate();
    }

    #[test]
    fn stats_and_labels() {
        let d = tiny();
        let s = d.stats();
        assert_eq!(s.vertices, 10);
        assert_eq!(s.edges, 10);
        assert_eq!(s.features, 3);
        assert_eq!(s.classes, 2);
        assert_eq!(d.train_labels(), vec![0, 1, 0, 1]);
        assert!((d.default_delta() - 0.1).abs() < 1e-12);
    }
}
