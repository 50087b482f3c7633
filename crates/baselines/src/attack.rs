//! Edge-inference attacks — the threat model that motivates the paper
//! (Sec. I cites LinkTeller \[9\] and the link-stealing attacks of \[10\]).
//!
//! Implements the *posterior-similarity* attack of He et al. (USENIX
//! Security 2021): connected nodes tend to receive similar model outputs
//! (graph convolution smooths predictions along edges), so an adversary
//! scores a candidate pair `(u, v)` by the similarity of the released
//! model's posteriors and predicts "edge" for high scores. Attack strength
//! is summarized as the AUC of that score over true edges vs non-edges —
//! 0.5 is random guessing, 1.0 is full link recovery.
//!
//! Used by the `link_attack` example and the integration tests to show the
//! defense GCON buys: on the non-private GCN the attack is far above
//! chance, while the DP-trained GCON pushes it toward 0.5.

use gcon_graph::Graph;
use gcon_linalg::{vecops, Mat};
use rand::Rng;

/// Cosine similarity of two posterior rows (0 when either is zero).
fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let na = vecops::norm2(a);
    let nb = vecops::norm2(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    vecops::dot(a, b) / (na * nb)
}

/// Converts logits to softmax posteriors row-wise.
pub fn posteriors(logits: &Mat) -> Mat {
    let mut out = Mat::zeros(logits.rows(), logits.cols());
    let mut buf = vec![0.0; logits.cols()];
    for i in 0..logits.rows() {
        vecops::softmax_into(logits.row(i), &mut buf);
        out.row_mut(i).copy_from_slice(&buf);
    }
    out
}

/// AUC of a score list labelled edge (true) / non-edge (false), computed by
/// the rank statistic (ties get half credit).
pub fn auc(scores_pos: &[f64], scores_neg: &[f64]) -> f64 {
    if scores_pos.is_empty() || scores_neg.is_empty() {
        return 0.5;
    }
    let mut wins = 0.0;
    for &p in scores_pos {
        for &n in scores_neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    wins / (scores_pos.len() * scores_neg.len()) as f64
}

/// Runs the posterior-similarity link-inference attack against a released
/// logit matrix. Samples up to `num_pairs` true edges and as many random
/// non-edges, scores each by posterior cosine similarity, and returns the
/// attack AUC.
pub fn posterior_similarity_attack_auc<R: Rng + ?Sized>(
    logits: &Mat,
    graph: &Graph,
    num_pairs: usize,
    rng: &mut R,
) -> f64 {
    assert_eq!(logits.rows(), graph.num_nodes(), "attack: logits/graph mismatch");
    let post = posteriors(logits);
    let edges = graph.edges();
    assert!(!edges.is_empty(), "attack: graph has no edges");
    let k = num_pairs.min(edges.len());

    // Sample true edges.
    let mut pos = Vec::with_capacity(k);
    for _ in 0..k {
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        pos.push(cosine(post.row(u as usize), post.row(v as usize)));
    }
    // Sample non-edges.
    let n = graph.num_nodes() as u32;
    let mut neg = Vec::with_capacity(k);
    let mut attempts = 0;
    while neg.len() < k && attempts < 100 * k + 1000 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        neg.push(cosine(post.row(u as usize), post.row(v as usize)));
    }
    auc(&pos, &neg)
}

/// LinkTeller-style **influence attack** (Wu et al., S&P 2022): to test the
/// candidate edge `(u, v)`, nudge node `u`'s features and measure how much
/// node `v`'s output moves. Graph convolution transports influence along
/// edges, so connected pairs show much larger cross-influence than
/// disconnected ones. `forward` is the released model as a black box
/// (features in, logits out) so the same attack runs against any method.
///
/// Returns the attack AUC over `num_pairs` sampled edges vs non-edges.
pub fn influence_attack_auc<R, F>(
    features: &Mat,
    graph: &Graph,
    forward: F,
    num_pairs: usize,
    rng: &mut R,
) -> f64
where
    R: Rng + ?Sized,
    F: Fn(&Mat) -> Mat,
{
    assert_eq!(features.rows(), graph.num_nodes());
    let base = forward(features);
    let edges = graph.edges();
    assert!(!edges.is_empty());
    let k = num_pairs.min(edges.len());
    let n = graph.num_nodes() as u32;
    let delta = 0.1;

    let influence = |u: u32, v: u32| -> f64 {
        let mut perturbed = features.clone();
        for x in perturbed.row_mut(u as usize) {
            *x += delta;
        }
        let out = forward(&perturbed);
        gcon_linalg::vecops::dist2(out.row(v as usize), base.row(v as usize))
    };

    let mut pos = Vec::with_capacity(k);
    for _ in 0..k {
        let (u, v) = edges[rng.gen_range(0..edges.len())];
        pos.push(influence(u, v));
    }
    let mut neg = Vec::with_capacity(k);
    let mut attempts = 0;
    while neg.len() < k && attempts < 100 * k + 1000 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || graph.has_edge(u, v) {
            continue;
        }
        neg.push(influence(u, v));
    }
    auc(&pos, &neg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn auc_perfect_and_random() {
        assert_eq!(auc(&[0.9, 0.8], &[0.1, 0.2]), 1.0);
        assert_eq!(auc(&[0.5, 0.5], &[0.5, 0.5]), 0.5);
        assert_eq!(auc(&[0.1], &[0.9]), 0.0);
        assert_eq!(auc(&[], &[1.0]), 0.5);
    }

    #[test]
    fn posteriors_rows_sum_to_one() {
        let logits = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[-1.0, 0.0, 1.0]]);
        let p = posteriors(&logits);
        for i in 0..2 {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn attack_detects_smoothed_outputs() {
        // Build a graph where connected nodes share identical logits —
        // the attack must reach AUC ≈ 1.
        let mut rng = StdRng::seed_from_u64(91);
        let g = gcon_graph::generators::sbm_homophily(
            &gcon_graph::generators::SbmConfig {
                n: 200,
                num_edges: 600,
                num_classes: 4,
                homophily: 1.0, // every edge intra-class
                degree_exponent: 3.0,
            },
            &mut rng,
        );
        let (graph, labels) = g;
        let logits = Mat::from_fn(200, 4, |i, j| if labels[i] == j { 5.0 } else { 0.0 });
        // True edges always score 1.0; random non-edge pairs are same-class
        // only ~1/4 of the time, so the theoretical AUC is ≈ 7/8.
        let a = posterior_similarity_attack_auc(&logits, &graph, 200, &mut rng);
        assert!(a > 0.8, "attack AUC {a} should be ≈ 7/8 on class-pure edges");
    }

    #[test]
    fn influence_attack_recovers_edges_of_a_gcn() {
        // A 1-hop averaging "model" transports influence exactly along
        // edges: the attack must reach AUC ≈ 1.
        let mut rng = StdRng::seed_from_u64(93);
        let graph = gcon_graph::generators::erdos_renyi_gnm(80, 200, &mut rng);
        let a_tilde = gcon_graph::normalize::row_stochastic_default(&graph);
        let x = Mat::uniform(80, 6, 1.0, &mut rng);
        let auc_val = influence_attack_auc(&x, &graph, |feat| a_tilde.spmm(feat), 100, &mut rng);
        assert!(auc_val > 0.95, "influence AUC {auc_val} should be ≈ 1 on 1-hop GCN");
    }

    #[test]
    fn influence_attack_blind_against_edge_free_model() {
        // An MLP-like model (row-wise map) leaks no cross-node influence:
        // AUC must be ≈ 0.5 (all influences are exactly 0).
        let mut rng = StdRng::seed_from_u64(94);
        let graph = gcon_graph::generators::erdos_renyi_gnm(60, 150, &mut rng);
        let x = Mat::uniform(60, 4, 1.0, &mut rng);
        let auc_val = influence_attack_auc(&x, &graph, |feat| feat.map(|v| v * 2.0), 80, &mut rng);
        assert!((auc_val - 0.5).abs() < 1e-9, "AUC {auc_val}");
    }

    #[test]
    fn attack_leaks_on_graph_smoothed_logits() {
        // Two-hop smoothing of class logits over a homophilous graph makes
        // connected nodes' posteriors alike, so the attack must beat chance.
        let mut rng = StdRng::seed_from_u64(95);
        let (graph, labels) = gcon_graph::generators::sbm_homophily(
            &gcon_graph::generators::SbmConfig {
                n: 300,
                num_edges: 900,
                num_classes: 3,
                homophily: 0.9,
                degree_exponent: 2.5,
            },
            &mut rng,
        );
        let a = gcon_graph::normalize::row_stochastic_default(&graph);
        let onehot = Mat::from_fn(300, 3, |i, j| if labels[i] == j { 4.0 } else { 0.0 });
        let logits = a.spmm(&a.spmm(&onehot));
        let easy = posterior_similarity_attack_auc(&logits, &graph, 250, &mut rng);
        assert!(easy > 0.6, "smoothed logits should leak: easy AUC {easy}");
    }

    #[test]
    fn attack_is_chance_on_uninformative_outputs() {
        let mut rng = StdRng::seed_from_u64(92);
        let graph = gcon_graph::generators::erdos_renyi_gnm(150, 450, &mut rng);
        let logits = Mat::zeros(150, 3); // uniform posteriors everywhere
        let a = posterior_similarity_attack_auc(&logits, &graph, 150, &mut rng);
        assert!((a - 0.5).abs() < 0.1, "attack AUC {a} should be ≈ 0.5");
    }
}
