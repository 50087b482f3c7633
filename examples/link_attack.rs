#![allow(clippy::field_reassign_with_default)] // config knobs read clearer as assignments
//! The threat that motivates the paper: **edge-inference attacks**. A
//! released model's outputs leak who-is-connected-to-whom because graph
//! convolution smooths predictions along edges (He et al., USENIX Sec. '21;
//! LinkTeller, S&P '22).
//!
//! This example mounts the posterior-similarity link attack against
//! (a) the non-private GCN and (b) GCON trained at several ε, and reports
//! the attack AUC (0.5 = the adversary learns nothing).
//!
//! ```text
//! cargo run --release --example link_attack
//! ```

use gcon::baselines::attack::{influence_attack_auc, posterior_similarity_attack_auc};
use gcon::baselines::gcn::{train_gcn, GcnConfig};
use gcon::core::infer::private_logits;
use gcon::prelude::*;
use gcon_graph::normalize::symmetric;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dataset = gcon::datasets::cora_ml(0.15, 3);
    println!(
        "dataset: {} — {} nodes, {} private edges",
        dataset.name,
        dataset.num_nodes(),
        dataset.graph.num_edges()
    );

    let pairs = 400;
    // The GCN and the influence attack's feature nudges work on dense rows.
    let x = dataset.features.to_dense();
    let test_f1 = |pred: &[usize]| {
        let t: Vec<usize> = dataset.split.test.iter().map(|&i| pred[i]).collect();
        micro_f1(&t, &dataset.test_labels())
    };

    // (a) Non-private GCN: full utility, full leakage.
    let mut rng = StdRng::seed_from_u64(1);
    let gcn = train_gcn(
        &GcnConfig::default(),
        &dataset.graph,
        &x,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        &mut rng,
    );
    let a_hat = symmetric(&dataset.graph);
    let gcn_logits = gcn.forward(&a_hat, &x);
    let gcn_auc = posterior_similarity_attack_auc(&gcn_logits, &dataset.graph, pairs, &mut rng);
    // The LinkTeller-style influence attack treats the released model as a
    // black box: nudge u's features, watch v's logits. The non-private GCN's
    // forward pass routes influence along every private edge.
    let gcn_infl =
        influence_attack_auc(&x, &dataset.graph, |feat| gcn.forward(&a_hat, feat), 80, &mut rng);
    let gcn_pred = gcon::linalg::reduce::row_argmax(&gcn_logits);
    println!("\n{:<22} {:>9} {:>12} {:>14}", "model", "micro-F1", "posterior AUC", "influence AUC");
    println!(
        "{:<22} {:>9.3} {:>12.3} {:>14.3}",
        "GCN (non-DP)",
        test_f1(&gcn_pred),
        gcn_auc,
        gcn_infl
    );

    // (b) GCON at decreasing privacy budgets.
    for eps in [4.0, 1.0, 0.5] {
        let mut cfg = GconConfig::default();
        cfg.alpha = 0.8;
        cfg.alpha_inference = 0.8;
        let mut rng = StdRng::seed_from_u64(2);
        let model = train_gcon(
            &cfg,
            &dataset.graph,
            &dataset.features,
            &dataset.labels,
            &dataset.split.train,
            dataset.num_classes,
            eps,
            dataset.default_delta(),
            &mut rng,
        );
        let logits = private_logits(&model, &dataset.graph, &dataset.features);
        let auc = posterior_similarity_attack_auc(&logits, &dataset.graph, pairs, &mut rng);
        // Influence through Θ_priv alone (no graph at inference): the DP
        // guarantee says this path must leak (almost) nothing about edges.
        let infl = influence_attack_auc(
            &x,
            &dataset.graph,
            |feat| {
                let encoded = model.encoder.encode(&Csr::from_dense(feat));
                let s = model.config.steps.len();
                let zero_hop = gcon::linalg::ops::matmul(
                    &gcon::linalg::Mat::hcat_all(&vec![&encoded; s]),
                    &model.theta,
                );
                gcon::linalg::ops::scale(&zero_hop, 1.0 / s as f64)
            },
            80,
            &mut rng,
        );
        let pred = gcon::linalg::reduce::row_argmax(&logits);
        println!(
            "{:<22} {:>9.3} {:>12.3} {:>14.3}",
            format!("GCON (ε = {eps})"),
            test_f1(&pred),
            auc,
            infl
        );
    }
    println!("\nReading: the influence column probes leakage through Θ_priv");
    println!("alone (graph-free forward pass): the GCN's forward pass routes");
    println!("influence along every private edge (AUC ≈ 1), while a model");
    println!("whose release satisfies edge-DP cannot carry edge signal in its");
    println!("parameters beyond e^ε odds (AUC ≈ 0.5).");
    println!("\nFor the posterior column: much of the AUC on a homophilous graph comes from");
    println!("class-level correlation the adversary could infer without any");
    println!("edge (same-class nodes get similar posteriors). What edge-DP");
    println!("bounds is the *marginal* leakage of each individual edge: GCON's");
    println!("(ε, δ) guarantee caps the odds-ratio of any attack on any single");
    println!("edge at e^ε, no matter how clever the attack — the non-private");
    println!("GCN offers no such cap.");
}
