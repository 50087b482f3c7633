//! The command-line error contract, checked on the spawned binaries: a flag
//! outside the domain the library asserts, or a model run on a dataset of
//! another shape, exits 1 with an `error:` line that names the flag, and
//! `gcon train` writes no model file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("spawning {bin}: {e}"))
}

fn gcon(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_gcon"), args)
}

/// A fresh directory for one test's files.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gcon_cli_errors_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Asserts exit code 1 and a first stderr line `<prefix> …` naming `flag`.
fn assert_named_error(out: &Output, prefix: &str, flag: &str, case: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{case}: stderr {stderr}");
    assert!(stderr.starts_with(prefix), "{case}: stderr {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(flag), "{case}: error does not name {flag}: {first}");
}

#[test]
fn train_flags_outside_their_domain_exit_1_and_write_no_model() {
    let dir = scratch_dir("train");
    let cases = [
        ("--eps", "0"),
        ("--eps", "-1"),
        ("--eps", "NaN"),
        ("--eps", "inf"),
        ("--delta", "0"),
        ("--delta", "2"),
        ("--delta", "-1"),
        ("--delta", "NaN"),
        ("--scale", "0"),
        ("--scale", "-1"),
        ("--scale", "NaN"),
        ("--scale", "1e9"),
        ("--steps", "2,bogus"),
        ("--loss", "huber:inf"),
    ];
    for (i, (flag, value)) in cases.into_iter().enumerate() {
        let model = dir.join(format!("case{i}.bin"));
        let mut flags = vec![
            ("--dataset", "cora-ml"),
            ("--scale", "0.05"),
            ("--eps", "1"),
            ("--out", model.to_str().unwrap()),
        ];
        match flags.iter_mut().find(|(f, _)| *f == flag) {
            Some(slot) => slot.1 = value,
            None => flags.push((flag, value)),
        }
        let mut args = vec!["train"];
        args.extend(flags.iter().flat_map(|&(f, v)| [f, v]));
        let case = format!("{flag} {value}");
        assert_named_error(&gcon(&args), "error:", flag, &case);
        assert!(!model.exists(), "{case}: wrote {}", model.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_model_on_a_dataset_of_another_shape_exits_1() {
    let dir = scratch_dir("infer");
    let moons = dir.join("moons.bin");
    let cora = dir.join("cora.bin");
    let (moons, cora) = (moons.to_str().unwrap(), cora.to_str().unwrap());
    for (dataset, out) in [("two-moons", moons), ("cora-ml", cora)] {
        let trained =
            gcon(&["train", "--dataset", dataset, "--scale", "0.02", "--eps", "2", "--out", out]);
        assert!(trained.status.success(), "{}", String::from_utf8_lossy(&trained.stderr));
    }

    // Feature width: two-moons has d₀ = 64, Cora-ML at scale 0.05 has 144.
    let wide = ["--dataset", "cora-ml", "--scale", "0.05"];
    let out = gcon(&[&["infer", "--model", moons][..], &wide].concat());
    assert_named_error(&out, "error:", "--dataset", "two-moons model on cora-ml");
    let out = run(
        env!("CARGO_BIN_EXE_gcond"),
        &[&["--model", moons, "--addr", "127.0.0.1:0"][..], &wide].concat(),
    );
    assert_named_error(&out, "gcond:", "--dataset", "gcond: two-moons model on cora-ml");

    // Class count: Cora-ML at scale 0.02 and PubMed at scale 0.05 both have
    // d₀ = 64, but 7 classes against 3.
    let out = gcon(&["infer", "--model", cora, "--dataset", "pubmed", "--scale", "0.05"]);
    assert_named_error(&out, "error:", "--dataset", "cora-ml model on pubmed");

    let out = gcon(&["infer", "--model", cora, "--dataset", "cora-ml", "--scale", "0.02"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}
