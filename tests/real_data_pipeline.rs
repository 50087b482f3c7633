#![allow(clippy::needless_range_loop)] // index-parallel loops mirror the math
//! The real-data path end to end: text files on disk → `text_io` loaders →
//! Algorithm 1 training → released artifact → reload → inference. This is
//! the workflow a user with the actual Planetoid files would run (the rest
//! of the suite uses the synthetic Table II stand-ins).

use gcon::core::serialize;
use gcon::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Writes a small homophilous dataset to disk in the text formats and
/// returns the three paths.
fn write_text_dataset(
    dir: &std::path::Path,
) -> (std::path::PathBuf, std::path::PathBuf, std::path::PathBuf) {
    std::fs::create_dir_all(dir).unwrap();
    let n = 90usize;
    let c = 3usize;
    // Deterministic homophilous wiring: ring within each class + sparse
    // cross links.
    let mut edges = String::new();
    for i in 0..n {
        let same_class_next = (i + c) % n;
        writeln!(edges, "{i} {same_class_next}").unwrap();
        if i % 7 == 0 {
            writeln!(edges, "{i} {}", (i + 1) % n).unwrap();
        }
    }
    let mut feats = String::new();
    for i in 0..n {
        let mut row = format!("{i}");
        for k in 0..5 {
            let v = if k == i % c { 1.0 } else { 0.15 } + 0.01 * ((i * 13 + k) % 7) as f64;
            write!(row, " {v:.4}").unwrap();
        }
        writeln!(feats, "{row}").unwrap();
    }
    let mut labels = String::new();
    for i in 0..n {
        writeln!(labels, "{i} class-{}", i % c).unwrap();
    }
    let e = dir.join("edges.txt");
    let f = dir.join("features.txt");
    let l = dir.join("labels.txt");
    std::fs::write(&e, edges).unwrap();
    std::fs::write(&f, feats).unwrap();
    std::fs::write(&l, labels).unwrap();
    (e, f, l)
}

#[test]
fn text_files_through_algorithm1_and_release() {
    let dir = std::env::temp_dir().join("gcon_real_data_pipeline");
    let (e, f, l) = write_text_dataset(&dir);

    let dataset =
        gcon::datasets::text_io::load_from_files("disk-homophilous", &e, &f, &l, 0.5, 0.2, 42)
            .expect("load text dataset");
    assert_eq!(dataset.num_nodes(), 90);
    assert_eq!(dataset.num_classes, 3);
    // The wiring above is class-pure except the sparse cross links.
    let stats = dataset.stats();
    assert!(stats.homophily > 0.7, "homophily {}", stats.homophily);

    let mut cfg = GconConfig::default();
    cfg.encoder.epochs = 60;
    cfg.optimizer.max_iters = 500;
    cfg.alpha = 0.6;
    let mut rng = StdRng::seed_from_u64(9);
    let model = train_gcon(
        &cfg,
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        4.0,
        dataset.default_delta(),
        &mut rng,
    );

    // Release + reload, then evaluate on the held-out split.
    let path = dir.join("model.gcon");
    serialize::save(&model, &path).unwrap();
    let loaded = serialize::load(&path).unwrap();
    let pred = private_predict(&loaded, &dataset.graph, &dataset.features);
    let test_pred: Vec<usize> = dataset.split.test.iter().map(|&i| pred[i]).collect();
    let f1 = micro_f1(&test_pred, &dataset.test_labels());
    assert!(f1 > 0.55, "file-loaded pipeline micro-F1 {f1} at ε = 4");

    std::fs::remove_dir_all(&dir).ok();
}

/// `gcond` takes `gcon`'s dataset grammar: a model trained on text files
/// is served by `gcond --model … --dataset file …`, and a bulk read over
/// the wire is bitwise the in-process private logits.
#[test]
fn gcond_serves_a_model_trained_on_text_files() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let dir = std::env::temp_dir().join(format!("gcon_real_data_gcond_{}", std::process::id()));
    let (e, f, l) = write_text_dataset(&dir);
    // gcond's defaults for `--dataset file`: 0.6/0.2 split, seed 1.
    let dataset =
        gcon::datasets::text_io::load_from_files("file", &e, &f, &l, 0.6, 0.2, 1).unwrap();
    let mut cfg = GconConfig::default();
    cfg.encoder.epochs = 20;
    let mut rng = StdRng::seed_from_u64(5);
    let model = train_gcon(
        &cfg,
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        4.0,
        dataset.default_delta(),
        &mut rng,
    );
    let path = dir.join("model.gcon");
    serialize::save(&model, &path).unwrap();
    let reference = gcon::core::infer::private_logits(&model, &dataset.graph, &dataset.features);

    let mut child = Command::new(env!("CARGO_BIN_EXE_gcond"))
        .arg("--model")
        .arg(&path)
        .args(["--dataset", "file", "--dtype", "f64", "--addr", "127.0.0.1:0"])
        .arg("--edges")
        .arg(&e)
        .arg("--features")
        .arg(&f)
        .arg("--labels")
        .arg(&l)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawning gcond");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut banner).unwrap();
    let answer = banner.trim().strip_prefix("listening on ").map(|addr| {
        let nodes: Vec<u64> = (0..dataset.num_nodes() as u64).collect();
        gcon::serve::GconClient::connect(addr).and_then(|mut c| c.logits_bulk(&nodes))
    });
    let _ = child.kill();
    let _ = child.wait();
    std::fs::remove_dir_all(&dir).ok();
    let bulk = answer.unwrap_or_else(|| panic!("unexpected gcond banner {banner:?}")).unwrap();
    assert_eq!(bulk.as_slice(), reference.as_slice(), "served logits must be bitwise");
}

#[test]
fn text_loader_matches_direct_construction() {
    // The same graph assembled via text files and via Graph::from_edges
    // must produce identical propagation output.
    let dir = std::env::temp_dir().join("gcon_real_data_equiv");
    let (e, f, l) = write_text_dataset(&dir);
    let dataset = gcon::datasets::text_io::load_from_files("x", &e, &f, &l, 0.5, 0.2, 1).unwrap();

    // Reconstruct directly, replicating the documented compaction (ids are
    // interned in first-appearance order over the edge file) with an
    // independent implementation.
    let mut map: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let compact = |x: u32, map: &mut std::collections::HashMap<u32, u32>| {
        let next = map.len() as u32;
        *map.entry(x).or_insert(next)
    };
    let edges: Vec<(u32, u32)> = std::fs::read_to_string(&e)
        .unwrap()
        .lines()
        .map(|ln| {
            let mut p = ln.split_whitespace();
            let u: u32 = p.next().unwrap().parse().unwrap();
            let v: u32 = p.next().unwrap().parse().unwrap();
            (compact(u, &mut map), compact(v, &mut map))
        })
        .collect();
    let direct = Graph::from_edges(90, &edges);
    assert_eq!(direct.num_edges(), dataset.graph.num_edges());

    let a1 = gcon::graph::normalize::row_stochastic_default(&dataset.graph);
    let a2 = gcon::graph::normalize::row_stochastic_default(&direct);
    let z1 = gcon::core::propagation::propagate(
        &a1,
        &dataset.features.to_dense(),
        0.5,
        gcon::core::PropagationStep::Finite(3),
    );
    let z2 = gcon::core::propagation::propagate(
        &a2,
        &dataset.features.to_dense(),
        0.5,
        gcon::core::PropagationStep::Finite(3),
    );
    assert_eq!(z1.as_slice(), z2.as_slice());
    std::fs::remove_dir_all(&dir).ok();
}
