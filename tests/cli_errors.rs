//! The command-line error contract, checked on the spawned binaries: a flag
//! outside the domain the library asserts, a flag the command does not
//! read, an `--out` that cannot be written, or a model run on a dataset of
//! another shape, exits 1 with an `error:` line that names the flag, and
//! nothing is written. `gcond`
//! follows a command-line error, and only that, with its usage text.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("spawning {bin}: {e}"))
}

fn gcon(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_gcon"), args)
}

fn gcond(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_gcond"), args)
}

/// True when stderr carries `gcond`'s usage text.
fn prints_usage(out: &Output) -> bool {
    String::from_utf8_lossy(&out.stderr).lines().any(|l| l.starts_with("usage:"))
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

/// An `--out` that cannot be written fails before training starts: exit 1,
/// an `error:` line naming the flag and the path, no "training GCON" line,
/// and no file left behind.
#[test]
fn an_unwritable_out_fails_before_training() {
    let dir = scratch_dir("out");
    let missing = dir.join("absent").join("m.bin");
    for out in [missing.to_str().unwrap(), dir.to_str().unwrap()] {
        let run =
            gcon(&["train", "--dataset", "cora-ml", "--scale", "0.05", "--eps", "1", "--out", out]);
        assert_named_error(&run, "error:", "--out", out);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.lines().next().unwrap_or_default().contains(out), "{out}: {stderr}");
        assert!(!stderr.contains("training GCON"), "{out}: trained first: {stderr}");
    }
    assert!(!missing.exists() && !missing.parent().unwrap().exists());
    assert!(dir.is_dir());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_model_on_a_dataset_of_another_shape_exits_1() {
    let dir = scratch_dir("infer");
    let moons = dir.join("moons.bin");
    let cora = dir.join("cora.bin");
    let (moons, cora) = (moons.to_str().unwrap(), cora.to_str().unwrap());
    for (out, dataset) in [(moons, &["two-moons"][..]), (cora, &["cora-ml", "--scale", "0.02"])] {
        let trained =
            gcon(&[&["train", "--eps", "2", "--out", out, "--dataset"][..], dataset].concat());
        assert!(trained.status.success(), "{}", String::from_utf8_lossy(&trained.stderr));
    }

    // Feature width: two-moons has d₀ = 64, Cora-ML at scale 0.05 has 144.
    let wide = ["--dataset", "cora-ml", "--scale", "0.05"];
    let out = gcon(&[&["infer", "--model", moons][..], &wide].concat());
    assert_named_error(&out, "error:", "--dataset", "two-moons model on cora-ml");
    let out = gcond(&[&["--model", moons, "--addr", "127.0.0.1:0"][..], &wide].concat());
    assert_named_error(&out, "gcond:", "--dataset", "gcond: two-moons model on cora-ml");
    assert!(!prints_usage(&out), "a well-formed command printed usage");

    // Class count: Cora-ML at scale 0.02 and PubMed at scale 0.05 both have
    // d₀ = 64, but 7 classes against 3.
    let out = gcon(&["infer", "--model", cora, "--dataset", "pubmed", "--scale", "0.05"]);
    assert_named_error(&out, "error:", "--dataset", "cora-ml model on pubmed");

    let out = gcon(&["infer", "--model", cora, "--dataset", "cora-ml", "--scale", "0.02"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gcond_prints_usage_after_a_command_line_error() {
    let out = gcond(&[]);
    assert_named_error(&out, "gcond:", "--store", "gcond with no flags");
    assert!(prints_usage(&out), "no usage after a missing --store");
}

/// Writes a 30-node, 3-class `--dataset file` triple into `dir`.
fn write_text_dataset(dir: &Path) -> [String; 3] {
    let n = 30;
    let edges: String = (0..n).map(|i| format!("{i} {}\n", (i + 3) % n)).collect();
    let features: String =
        (0..n).map(|i| format!("{i} {}\n", if i % 3 == 0 { "1 0" } else { "0 1" })).collect();
    let labels: String = (0..n).map(|i| format!("{i} c{}\n", i % 3)).collect();
    [("edges.txt", edges), ("features.txt", features), ("labels.txt", labels)].map(
        |(name, text)| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_string()
        },
    )
}

#[test]
fn a_flag_the_command_does_not_read_exits_1_and_writes_nothing() {
    let dir = scratch_dir("unread");
    let [edges, features, labels] = write_text_dataset(&dir);
    let file = ["file", "--edges", &edges, "--features", &features, "--labels", &labels];
    let model = dir.join("model.bin");
    let train = ["train", "--eps", "2", "--out", model.to_str().unwrap(), "--dataset"];
    let cases: [(&str, &[&str]); 5] = [
        ("--alpah", &["cora-ml", "--scale", "0.05", "--alpah", "0.5"]),
        ("--train-frac", &["cora-ml", "--scale", "0.05", "--train-frac", "0.5"]),
        ("--scale", &["two-moons", "--scale", "0.02"]),
        ("--scale", &[&file[..], &["--scale", "0.5"]].concat()),
        // Read, but outside its domain: a split needs train + val ≤ 1.
        ("--train-frac", &[&file[..], &["--train-frac", "2"]].concat()),
    ];
    for (flag, dataset) in cases {
        let case = dataset.join(" ");
        assert_named_error(&gcon(&[&train[..], dataset].concat()), "error:", flag, &case);
        assert!(!model.exists(), "{case}: wrote {}", model.display());
    }
    assert_named_error(&gcon(&["help", "--scale", "0.5"]), "error:", "--scale", "help --scale");

    // `gcond --store` reads no dataset, mode or dtype flag; the check runs
    // before the store is opened.
    let absent = dir.join("absent.gconstore");
    for (flag, value) in [("--mode", "public"), ("--dtype", "f32"), ("--seed", "3")] {
        let out = gcond(&["--store", absent.to_str().unwrap(), flag, value]);
        assert_named_error(&out, "gcond:", flag, &format!("gcond --store {flag}"));
    }

    // `gcond --model` builds no store, and saves none, for an unread flag.
    // Port 99999 cannot be bound, so a daemon that ignored the flag would
    // exit on its bind error instead of serving forever.
    let moons = dir.join("moons.bin");
    let trained =
        gcon(&["train", "--eps", "2", "--out", moons.to_str().unwrap(), "--dataset", "two-moons"]);
    assert!(trained.status.success(), "{}", String::from_utf8_lossy(&trained.stderr));
    let store = dir.join("store.gconstore");
    let out = gcond(&[
        "--model",
        moons.to_str().unwrap(),
        "--dataset",
        "two-moons",
        "--scale",
        "0.5",
        "--save-store",
        store.to_str().unwrap(),
        "--addr",
        "127.0.0.1:99999",
    ]);
    assert_named_error(&out, "gcond:", "--scale", "gcond --model two-moons --scale");
    assert!(!store.exists(), "wrote {}", store.display());
    let _ = std::fs::remove_dir_all(&dir);
}
