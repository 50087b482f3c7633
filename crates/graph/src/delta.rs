//! O(Δ) mutation of a graph and its row-stochastic normalization — the
//! dynamic-graph substrate.
//!
//! The batch pipeline builds `Ã = D⁻¹(A+I)` once ([`normalize::row_stochastic`])
//! and every downstream layer treats it as immutable. Production graphs
//! mutate; rebuilding `Ã` from scratch for a handful of edges costs O(n + m)
//! re-normalization and a full per-row sort. [`CsrDelta`] batches edge
//! inserts/removes and node onboarding, applies them to the [`Graph`]
//! in place, and patches only the **touched rows** of `Ã`:
//!
//! - An edge `{u, v}` change affects exactly rows `u` and `v` of the
//!   row-stochastic normalization (each row depends only on that node's
//!   degree and neighbor list), so the re-derivation work is O(Δ) — the sum
//!   of the touched rows' degrees — independent of graph size.
//! - The structural splice ([`Csr::with_rows_replaced`]) bulk-copies every
//!   untouched row span verbatim and never sorts: replacement rows are
//!   emitted pre-sorted straight from the sorted adjacency lists.
//!
//! The patched matrix is **bitwise identical** to a from-scratch
//! [`normalize::row_stochastic`] on the mutated graph (same clip `p`):
//! untouched rows are byte copies, and touched rows come from the rebuild's
//! own row code — including its off-diagonal sum of `k` repeated
//! additions, not a single multiply — so the downstream
//! propagation refresh starts from the very matrix a cold rebuild would
//! see. This equality is pinned per-application here and for random delta
//! sequences by the `dynamic_properties` proptest suite.

use crate::csr::CsrScalar;
use crate::{normalize, Csr, Graph};
use std::collections::HashMap;
use std::ops::Range;

/// A batch of graph mutations: edge inserts, edge removes, and node
/// onboarding, applied atomically by [`CsrDelta::apply`].
///
/// Application order is fixed and documented: **onboard nodes, then remove
/// edges, then insert edges** — so inserts may reference nodes onboarded by
/// the same delta, and a remove+insert of the same edge within one delta
/// nets to the edge being present. Edge operations that do not change the
/// graph (inserting an existing edge or a self-loop, removing an absent
/// edge) are ignored and do **not** mark their endpoints touched, mirroring
/// the `bool` returns of [`Graph::add_edge`] / [`Graph::remove_edge`].
#[derive(Clone, Debug, Default)]
pub struct CsrDelta {
    edge_inserts: Vec<(u32, u32)>,
    edge_removes: Vec<(u32, u32)>,
    new_nodes: usize,
}

/// Outcome of [`CsrDelta::apply`]: the patched normalization plus the
/// bookkeeping the incremental-refresh layers key on.
#[derive(Clone, Debug)]
pub struct DeltaResult<S: CsrScalar = f64> {
    /// The updated row-stochastic normalization of the mutated graph —
    /// bitwise identical to rebuilding it from scratch.
    pub a_tilde: Csr<S>,
    /// Row indices whose `Ã` rows changed (sorted, deduplicated; includes
    /// every onboarded node). Exactly the endpoints of effective edge
    /// operations plus the onboarded range.
    pub touched: Vec<u32>,
    /// Ids of the nodes onboarded by this delta (empty range when none).
    pub onboarded: Range<u32>,
}

impl CsrDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues insertion of the undirected edge `{u, v}`.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> &mut Self {
        self.edge_inserts.push((u, v));
        self
    }

    /// Queues removal of the undirected edge `{u, v}`.
    pub fn remove_edge(&mut self, u: u32, v: u32) -> &mut Self {
        self.edge_removes.push((u, v));
        self
    }

    /// Queues onboarding of `count` new nodes. Their ids start at the
    /// graph's current node count and may be referenced by edges queued on
    /// the same delta.
    pub fn add_nodes(&mut self, count: usize) -> &mut Self {
        self.new_nodes += count;
        self
    }

    /// True when no mutation is queued.
    pub fn is_empty(&self) -> bool {
        self.edge_inserts.is_empty() && self.edge_removes.is_empty() && self.new_nodes == 0
    }

    /// Number of queued node onboardings.
    pub fn num_new_nodes(&self) -> usize {
        self.new_nodes
    }

    /// Folds `other` into `self` so that applying the merged delta once is
    /// equivalent to applying `self` then `other` sequentially — for **any**
    /// starting graph.
    ///
    /// Edge operations are state-setters (insert ≡ ensure-present, remove ≡
    /// ensure-absent), and the combined stream applies in the order
    /// `self.removes, self.inserts, other.removes, other.inserts` (removes
    /// precede inserts within one delta — see [`CsrDelta::apply`]). The
    /// **last** operation per undirected edge therefore decides its final
    /// state; earlier ones are dropped. An insert-then-remove pair nets to a
    /// single remove (a no-op if the edge was absent to begin with), never
    /// to a blind cancellation — cancelling both ops would be wrong when the
    /// edge pre-existed. Use [`CsrDelta::prune`] afterwards to discard netted
    /// operations that are provably ineffective against a concrete graph.
    ///
    /// Onboard counts concatenate: node ids are absolute and assigned
    /// sequentially, so edges in `other` that reference nodes onboarded by
    /// `self` stay valid in the merged delta.
    pub fn merge(&mut self, other: &CsrDelta) -> &mut Self {
        let stream = self
            .edge_removes
            .iter()
            .map(|&e| (e, false))
            .chain(self.edge_inserts.iter().map(|&e| (e, true)))
            .chain(other.edge_removes.iter().map(|&e| (e, false)))
            .chain(other.edge_inserts.iter().map(|&e| (e, true)));
        // Net to last-op-wins per undirected edge, preserving first-seen
        // order so the merged delta is deterministic for a given stream.
        let mut last: HashMap<(u32, u32), bool> = HashMap::new();
        let mut order: Vec<(u32, u32)> = Vec::new();
        for ((u, v), is_insert) in stream {
            let key = (u.min(v), u.max(v));
            if last.insert(key, is_insert).is_none() {
                order.push(key);
            }
        }
        self.edge_inserts.clear();
        self.edge_removes.clear();
        for key in order {
            if last[&key] {
                self.edge_inserts.push(key);
            } else {
                self.edge_removes.push(key);
            }
        }
        self.new_nodes += other.new_nodes;
        self
    }

    /// Drops queued edge operations that provably cannot change `graph`:
    /// inserts of already-present edges or self-loops, and removes of absent
    /// edges. Operations referencing nodes this delta onboards (id ≥
    /// `graph.num_nodes()`) are kept — their effect cannot be judged against
    /// the pre-delta graph.
    ///
    /// After [`CsrDelta::merge`] nets a window's operations, pruning reduces
    /// a fully-cancelled window (e.g. insert then remove of an edge that was
    /// absent) to an empty delta, letting a scheduler skip the refresh
    /// entirely via [`CsrDelta::is_empty`].
    pub fn prune(&mut self, graph: &Graph) -> &mut Self {
        let n = graph.num_nodes() as u32;
        self.edge_inserts.retain(|&(u, v)| {
            if u >= n || v >= n {
                true
            } else {
                u != v && !graph.has_edge(u, v)
            }
        });
        self.edge_removes.retain(|&(u, v)| u >= n || v >= n || graph.has_edge(u, v));
        self
    }

    /// Applies the delta: mutates `graph` in place and patches `a_tilde`
    /// (its row-stochastic normalization with clip `p`) by re-deriving only
    /// the touched rows. See the module docs for the cost model and the
    /// bitwise-equality contract.
    ///
    /// # Panics
    /// Panics if `a_tilde` is not `n × n` for the current `graph`, if `p`
    /// is outside `(0, 0.5]`, or if a queued edge references a node id that
    /// is out of range after onboarding.
    pub fn apply<S: CsrScalar>(
        &self,
        graph: &mut Graph,
        a_tilde: &Csr<S>,
        p: f64,
    ) -> DeltaResult<S> {
        let n_old = graph.num_nodes();
        assert_eq!(
            (a_tilde.rows(), a_tilde.cols()),
            (n_old, n_old),
            "CsrDelta::apply: a_tilde shape does not match the graph"
        );
        assert!(p > 0.0 && p <= 0.5, "CsrDelta::apply: clip p must lie in (0, 0.5], got {p}");

        // 1. Onboard nodes, 2. remove edges, 3. insert edges.
        let first_new = graph.add_nodes(self.new_nodes);
        let onboarded = first_new..first_new + self.new_nodes as u32;
        let n_new = graph.num_nodes();
        let mut touched: Vec<u32> = onboarded.clone().collect();
        for &(u, v) in &self.edge_removes {
            assert!(
                (u as usize) < n_new && (v as usize) < n_new,
                "CsrDelta::apply: remove_edge({u}, {v}) out of range"
            );
            if graph.remove_edge(u, v) {
                touched.push(u);
                touched.push(v);
            }
        }
        for &(u, v) in &self.edge_inserts {
            if graph.add_edge(u, v) {
                touched.push(u);
                touched.push(v);
            }
        }
        touched.sort_unstable();
        touched.dedup();

        let replaced: Vec<(usize, Vec<(u32, S)>)> =
            touched.iter().map(|&u| (u as usize, normalized_row(graph, u, p))).collect();
        let a_tilde = a_tilde.with_rows_replaced(n_new, n_new, &replaced);
        DeltaResult { a_tilde, touched, onboarded }
    }
}

/// Row `u` of the row-stochastic normalization with clip `p`, emitted
/// column-sorted by the very code [`normalize::row_stochastic`] builds its
/// rows with.
fn normalized_row<S: CsrScalar>(graph: &Graph, u: u32, p: f64) -> Vec<(u32, S)> {
    normalize::row_stochastic_entries(graph, u, p).map(|(v, x)| (v, S::from_f64(x))).collect()
}

/// Convenience check used by tests and debug assertions: the patched matrix
/// equals a from-scratch rebuild of the mutated graph, bitwise.
pub fn matches_rebuild(patched: &Csr, graph: &Graph, p: f64) -> bool {
    *patched == normalize::row_stochastic(graph, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::erdos_renyi_gnm;
    use crate::normalize::{row_stochastic, row_stochastic_default};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, m: usize, seed: u64) -> (Graph, Csr) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_gnm(n, m, &mut rng);
        let a = row_stochastic_default(&g);
        (g, a)
    }

    #[test]
    fn single_insert_is_bitwise_equal_to_rebuild() {
        let (mut g, a) = setup(30, 60, 1);
        let mut d = CsrDelta::new();
        // Find an absent edge deterministically.
        let (u, v) = (0..30u32)
            .flat_map(|u| (u + 1..30).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .unwrap();
        d.insert_edge(u, v);
        let res = d.apply(&mut g, &a, 0.5);
        assert_eq!(res.touched, vec![u, v]);
        assert!(res.onboarded.is_empty());
        assert!(matches_rebuild(&res.a_tilde, &g, 0.5));
    }

    #[test]
    fn single_remove_is_bitwise_equal_to_rebuild() {
        let (mut g, a) = setup(30, 60, 2);
        let (u, v) = g.edges()[7];
        let mut d = CsrDelta::new();
        d.remove_edge(v, u); // either endpoint order
        let res = d.apply(&mut g, &a, 0.5);
        assert_eq!(res.touched, vec![u.min(v), u.max(v)]);
        assert!(matches_rebuild(&res.a_tilde, &g, 0.5));
    }

    #[test]
    fn onboarding_then_connecting_new_nodes() {
        let (mut g, a) = setup(20, 40, 3);
        let mut d = CsrDelta::new();
        d.add_nodes(2).insert_edge(20, 5).insert_edge(21, 20);
        let res = d.apply(&mut g, &a, 0.5);
        assert_eq!(g.num_nodes(), 22);
        assert_eq!(res.onboarded, 20..22);
        assert_eq!(res.touched, vec![5, 20, 21]);
        assert_eq!((res.a_tilde.rows(), res.a_tilde.cols()), (22, 22));
        assert!(matches_rebuild(&res.a_tilde, &g, 0.5));
    }

    #[test]
    fn onboarded_isolated_node_is_a_pure_self_loop() {
        let (mut g, a) = setup(10, 15, 4);
        let mut d = CsrDelta::new();
        d.add_nodes(1);
        let res = d.apply(&mut g, &a, 0.5);
        assert_eq!(res.touched, vec![10]);
        let (cols, vals) = res.a_tilde.row(10);
        assert_eq!(cols, &[10]);
        assert_eq!(vals, &[1.0]);
        assert!(matches_rebuild(&res.a_tilde, &g, 0.5));
    }

    #[test]
    fn noop_operations_touch_nothing_and_preserve_bits() {
        let (mut g, a) = setup(25, 50, 5);
        let (u, v) = g.edges()[0];
        let absent = (0..25u32)
            .flat_map(|x| (x + 1..25).map(move |y| (x, y)))
            .find(|&(x, y)| !g.has_edge(x, y))
            .unwrap();
        let mut d = CsrDelta::new();
        d.insert_edge(u, v); // already present
        d.remove_edge(absent.0, absent.1); // absent
        d.insert_edge(3, 3); // self-loop
        let g_before = g.clone();
        let res = d.apply(&mut g, &a, 0.5);
        assert!(res.touched.is_empty());
        assert_eq!(g, g_before);
        assert_eq!(res.a_tilde, a); // byte-copied untouched rows
    }

    #[test]
    fn remove_then_insert_same_edge_nets_to_present() {
        let (mut g, a) = setup(20, 40, 6);
        let (u, v) = g.edges()[3];
        let mut d = CsrDelta::new();
        d.remove_edge(u, v).insert_edge(u, v);
        let res = d.apply(&mut g, &a, 0.5);
        assert!(g.has_edge(u, v));
        // Both operations were effective, so the endpoints report touched —
        // and the re-derived rows still match the (identical) rebuild.
        assert_eq!(res.touched, vec![u.min(v), u.max(v)]);
        assert_eq!(res.a_tilde, a);
    }

    #[test]
    fn clipped_normalization_is_preserved() {
        let (mut g, _) = setup(30, 90, 7);
        let p = 0.2;
        let a = row_stochastic(&g, p);
        let mut d = CsrDelta::new();
        let (u, v) = g.edges()[11];
        d.remove_edge(u, v).insert_edge(u, (v + 1) % 30).add_nodes(1).insert_edge(30, u);
        let res = d.apply(&mut g, &a, p);
        assert!(matches_rebuild(&res.a_tilde, &g, p));
    }

    #[test]
    fn random_delta_sequence_stays_bitwise_equal() {
        let mut rng = StdRng::seed_from_u64(99);
        let (mut g, mut a) = setup(40, 100, 8);
        for _ in 0..20 {
            let mut d = CsrDelta::new();
            for _ in 0..rng.gen_range(1..5) {
                let n = g.num_nodes() as u32;
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if rng.gen_bool(0.5) {
                    d.insert_edge(u, v);
                } else {
                    d.remove_edge(u, v);
                }
            }
            if rng.gen_bool(0.2) {
                d.add_nodes(1);
            }
            let res = d.apply(&mut g, &a, 0.5);
            assert!(matches_rebuild(&res.a_tilde, &g, 0.5));
            a = res.a_tilde;
        }
    }

    #[test]
    fn f32_patch_matches_converted_rebuild() {
        let (mut g, a64) = setup(25, 60, 9);
        let a32: Csr<f32> = a64.convert();
        let mut d = CsrDelta::new();
        let (u, v) = g.edges()[5];
        d.remove_edge(u, v).add_nodes(1).insert_edge(25, u);
        let mut g32 = g.clone();
        let res32 = d.apply(&mut g32, &a32, 0.5);
        let res64 = d.apply(&mut g, &a64, 0.5);
        assert_eq!(g, g32);
        // Patching the converted matrix == converting the patched matrix:
        // values flow through the same f64 arithmetic before quantization.
        assert_eq!(res32.a_tilde, res64.a_tilde.convert());
        assert_eq!(res32.touched, res64.touched);
    }

    #[test]
    fn merge_matches_sequential_application() {
        let (mut g_seq, a) = setup(30, 70, 20);
        let mut g_merged = g_seq.clone();
        let present = g_seq.edges()[4];
        let absent = (0..30u32)
            .flat_map(|x| (x + 1..30).map(move |y| (x, y)))
            .find(|&(x, y)| !g_seq.has_edge(x, y))
            .unwrap();
        let mut d1 = CsrDelta::new();
        d1.insert_edge(absent.0, absent.1).remove_edge(present.0, present.1).add_nodes(1);
        let mut d2 = CsrDelta::new();
        // References the node d1 onboarded, re-inserts the edge d1 removed,
        // and removes the edge d1 inserted (nets to a remove of `absent`).
        d2.insert_edge(30, 2)
            .insert_edge(present.1, present.0)
            .remove_edge(absent.0, absent.1)
            .add_nodes(1);

        let r1 = d1.apply(&mut g_seq, &a, 0.5);
        let r2 = d2.apply(&mut g_seq, &r1.a_tilde, 0.5);

        let mut merged = d1.clone();
        merged.merge(&d2);
        assert_eq!(merged.num_new_nodes(), 2);
        let rm = merged.apply(&mut g_merged, &a, 0.5);
        assert_eq!(g_merged, g_seq);
        assert_eq!(rm.a_tilde, r2.a_tilde);
        assert_eq!(rm.onboarded, 30..32);
    }

    #[test]
    fn merged_insert_then_remove_prunes_to_empty() {
        let (g, _) = setup(20, 40, 21);
        let absent = (0..20u32)
            .flat_map(|x| (x + 1..20).map(move |y| (x, y)))
            .find(|&(x, y)| !g.has_edge(x, y))
            .unwrap();
        let mut d1 = CsrDelta::new();
        d1.insert_edge(absent.0, absent.1);
        let mut d2 = CsrDelta::new();
        d2.remove_edge(absent.1, absent.0); // opposite endpoint order
        d1.merge(&d2);
        // Netting keeps the final remove (sound for any start state)...
        assert_eq!((d1.edge_inserts.len(), d1.edge_removes.len()), (0, 1));
        // ...and pruning against the concrete graph discards it: the edge
        // was absent, so the whole window is a no-op.
        d1.prune(&g);
        assert!(d1.is_empty());
    }

    #[test]
    fn merged_remove_then_insert_of_present_edge_prunes_to_empty() {
        let (g, _) = setup(20, 40, 22);
        let (u, v) = g.edges()[2];
        let mut d1 = CsrDelta::new();
        d1.remove_edge(u, v);
        let mut d2 = CsrDelta::new();
        d2.insert_edge(u, v);
        d1.merge(&d2);
        assert_eq!((d1.edge_inserts.len(), d1.edge_removes.len()), (1, 0)); // nets to the insert
        d1.prune(&g);
        assert!(d1.is_empty()); // ...which is a no-op: edge already present
    }

    #[test]
    fn prune_keeps_operations_on_onboarded_nodes() {
        let (g, _) = setup(15, 30, 23);
        let mut d = CsrDelta::new();
        d.add_nodes(1).insert_edge(15, 3).insert_edge(3, 3);
        d.prune(&g);
        // The self-loop dies, the onboard edge survives (node 15 does not
        // exist yet, so it cannot be judged against the pre-delta graph).
        assert_eq!(d.edge_inserts, vec![(15, 3)]);
        assert!(d.edge_removes.is_empty());
        assert_eq!(d.num_new_nodes(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    #[should_panic(expected = "shape does not match")]
    fn mismatched_a_tilde_shape_panics() {
        let (mut g, _) = setup(10, 15, 10);
        let wrong: Csr = Csr::eye(9);
        CsrDelta::new().insert_edge(0, 1).apply(&mut g, &wrong, 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let (mut g, a) = setup(10, 15, 11);
        CsrDelta::new().remove_edge(0, 99).apply(&mut g, &a, 0.5);
    }
}
