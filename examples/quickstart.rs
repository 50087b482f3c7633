//! Quickstart: train GCON under edge-level differential privacy and inspect
//! the privacy report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gcon::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A small homophilous node-classification dataset (240 nodes,
    //    2 classes). In a real deployment this graph's edges are the private
    //    record set — e.g. who-knows-whom.
    let dataset = gcon::datasets::two_moons_graph(42);
    println!("dataset: {} ({:?})", dataset.name, dataset.stats());

    // 2. Configure GCON. The defaults follow the paper's recommendations:
    //    APPR with m₁ = 2 steps, restart probability α = 0.6, ω = 0.9.
    let config = GconConfig::default();

    // 3. Train under (ε = 2, δ = 1/|E|) edge-DP.
    let eps = 2.0;
    let delta = dataset.default_delta();
    let mut rng = StdRng::seed_from_u64(0);
    let model = train_gcon(
        &config,
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        eps,
        delta,
        &mut rng,
    );

    // 4. The privacy report: everything Theorem 1 computed.
    println!("\n--- privacy report ---");
    print!("{}", model.report);
    println!(
        "optimizer         : {} Newton steps, final ‖∇‖ = {:.2e}, ‖Θ − Θ*‖ ≤ {:.2e}",
        model.opt_iterations,
        model.final_grad_norm,
        model.minimizer_distance_bound()
    );

    // 5. Private inference (Eq. 16): each query node uses only its own edges.
    let pred = private_predict(&model, &dataset.graph, &dataset.features);
    let test_pred: Vec<usize> = dataset.split.test.iter().map(|&i| pred[i]).collect();
    let f1 = micro_f1(&test_pred, &dataset.test_labels());
    println!("\ntest micro-F1 (private inference): {f1:.3}");

    // 6. For comparison: public inference with the full propagation.
    let pred_pub = public_predict(&model, &dataset.graph, &dataset.features);
    let test_pub: Vec<usize> = dataset.split.test.iter().map(|&i| pred_pub[i]).collect();
    println!(
        "test micro-F1 (public inference) : {:.3}",
        micro_f1(&test_pub, &dataset.test_labels())
    );
}
