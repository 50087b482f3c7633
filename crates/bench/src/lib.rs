#![warn(missing_docs)]
//! Experiment harness regenerating every table and figure of the GCON
//! paper's evaluation (Sec. VI). One binary per artifact:
//!
//! | Binary | Paper artifact | What it prints |
//! |---|---|---|
//! | `fig1` | Figure 1 (a–d) | micro-F1 vs ε for 8 methods × 4 datasets |
//! | `fig2` | Figure 2 (a–c) | effect of m₁ × α, ε = 4, private inference |
//! | `fig3` | Figure 3 (a–c) | same sweep, public test graph |
//! | `fig4` | Figure 4 (a–c) | effect of α across ε, m₁ = 2 |
//! | `table2` | Table II | dataset statistics incl. homophily ratio |
//! | `ablation` | (ours) | loss / ω / d₁ / pseudo-label ablations |
//!
//! All binaries accept `--scale S` (default 0.25: proportional shrink of the
//! Table II sizes, see `gcon-datasets`), `--runs R`, `--seed N` and
//! `--quick` (smaller grids for smoke runs); a bad value or an unknown flag
//! exits 1 with an `error:` line naming it. The `benches/` directory holds
//! microbenches that each write a `BENCH_*.json` record (`bench_linalg`,
//! `bench_serve`, `bench_server`, `bench_updates`, `bench_fleet`).

use gcon_core::infer::{private_predict, public_predict};
use gcon_core::train::train_gcon;
use gcon_core::{GconConfig, PropagationStep};
use gcon_datasets::metrics::micro_f1;
use gcon_datasets::Dataset;
use gcon_linalg::vecops::{mean, std_dev};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which test-time protocol to score with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InferenceMode {
    /// Eq. (16): one-hop, private test graph (Figures 1, 2, 4).
    Private,
    /// Full propagation on a public test graph (Figure 3).
    Public,
}

/// Common CLI options for every harness binary.
#[derive(Clone, Debug)]
pub struct HarnessArgs {
    /// Dataset scale in (0, 1]; 1.0 = full Table II sizes.
    pub scale: f64,
    /// Independent repetitions per configuration (paper: 10).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Shrink sweep grids for a fast smoke run.
    pub quick: bool,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        Self { scale: 0.25, runs: 3, seed: 0, quick: false }
    }
}

impl HarnessArgs {
    /// Parses `--scale S` (in (0, 1]), `--runs R` (≥ 1), `--seed N` and
    /// `--quick` from the arguments after the program name. A missing or
    /// malformed value, a value outside its domain, or an unknown `--flag`
    /// is an error that names the flag. `--bench`, which `cargo bench`
    /// appends, and bare words are ignored.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next().ok_or_else(|| format!("{flag} needs {what}")).map(String::as_str)
            };
            match flag.as_str() {
                "--scale" => {
                    let v = value("a number in (0, 1]")?;
                    out.scale = v
                        .parse()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 1.0)
                        .ok_or_else(|| format!("--scale must lie in (0, 1], got `{v}`"))?;
                }
                "--runs" => {
                    let v = value("an integer ≥ 1")?;
                    out.runs = v
                        .parse()
                        .ok()
                        .filter(|&r| r >= 1)
                        .ok_or_else(|| format!("--runs must be an integer ≥ 1, got `{v}`"))?;
                }
                "--seed" => {
                    let v = value("an integer")?;
                    out.seed =
                        v.parse().map_err(|_| format!("--seed must be an integer, got `{v}`"))?;
                }
                "--quick" => out.quick = true,
                "--bench" => {}
                other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
                _ => {}
            }
        }
        Ok(out)
    }

    /// [`HarnessArgs::parse`] over the process arguments. An error prints
    /// `error: …` and exits with status 1, as `gcon` does.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1)
        })
    }
}

/// The paper's ε grid (Sec. VI-A).
pub const EPS_GRID: [f64; 5] = [0.5, 1.0, 2.0, 3.0, 4.0];

/// Per-dataset GCON hyperparameters following the paper's findings
/// (Figure 4: α = 0.8 best on Cora-ML/CiteSeer, α = 0.4 on PubMed; Actor
/// benefits from multi-scale steps including m = 0, Appendix Q).
pub fn default_gcon_config(dataset_name: &str) -> GconConfig {
    let mut cfg = GconConfig::default();
    // α_I = 0.1 throughout: the paper tunes the inference restart in
    // {α} ∪ {0.1, 0.9} (Appendix Q); on our noisy-feature stand-ins the
    // one-hop private aggregation benefits from leaning on the neighborhood.
    match dataset_name {
        "cora-ml" | "citeseer" => {
            cfg.alpha = 0.8;
            cfg.alpha_inference = 0.1;
            cfg.steps = vec![PropagationStep::Finite(2)];
        }
        "pubmed" => {
            cfg.alpha = 0.4;
            cfg.alpha_inference = 0.1;
            cfg.steps = vec![PropagationStep::Finite(2)];
        }
        "actor" => {
            cfg.alpha = 0.8;
            cfg.alpha_inference = 0.5;
            cfg.steps = vec![PropagationStep::Finite(0), PropagationStep::Finite(2)];
        }
        _ => {}
    }
    cfg
}

/// Trains GCON once and returns the test micro-F1 under the given protocol.
pub fn evaluate_gcon(
    cfg: &GconConfig,
    dataset: &Dataset,
    eps: f64,
    delta: f64,
    mode: InferenceMode,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let model = train_gcon(
        cfg,
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        eps,
        delta,
        &mut rng,
    );
    let pred_all = match mode {
        InferenceMode::Private => private_predict(&model, &dataset.graph, &dataset.features),
        InferenceMode::Public => public_predict(&model, &dataset.graph, &dataset.features),
    };
    let test_pred: Vec<usize> = dataset.split.test.iter().map(|&i| pred_all[i]).collect();
    micro_f1(&test_pred, &dataset.test_labels())
}

/// Repeats GCON evaluation over `runs` seeds → `(mean, std)`.
pub fn evaluate_gcon_repeated(
    cfg: &GconConfig,
    dataset: &Dataset,
    eps: f64,
    delta: f64,
    mode: InferenceMode,
    base_seed: u64,
    runs: usize,
) -> (f64, f64) {
    let scores: Vec<f64> = (0..runs)
        .map(|r| evaluate_gcon(cfg, dataset, eps, delta, mode, base_seed + 1000 * r as u64))
        .collect();
    (mean(&scores), std_dev(&scores))
}

/// Formats `mean ± std` to three decimals.
pub fn fmt_score(mean: f64, std: f64) -> String {
    format!("{mean:.3}±{std:.3}")
}

/// Prints a Markdown-ish table: header row + aligned cells.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}", w = w)).collect();
        format!("| {} |", padded.join(" | "))
    };
    println!("{}", fmt_row(header));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Median wall-clock nanoseconds for one call of `f` — the shared timing
/// policy of the perf microbenches (`bench_linalg`, `bench_serve`).
///
/// `reps` is a floor: sub-millisecond calls get enough extra reps to fill
/// ~10 ms of sampling (capped at 501), keeping the median stable against
/// scheduler/frequency jitter on the shared dev box (µs-scale kernels
/// showed ±30% between fixed-rep runs). One warm-up call absorbs pool
/// spin-up, buffer growth, and icache effects. See `crates/bench/README.md`
/// for the full methodology.
pub fn median_time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    use std::time::Instant;
    f(); // warm-up
    let probe = Instant::now();
    f();
    let est = (probe.elapsed().as_nanos() as f64).max(1.0);
    let reps = reps.max((1e7 / est) as usize).min(501);
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// The host a bench record was measured on, as a JSON object: `nproc`,
/// CPU model, available and selected kernel tier, `GCON_THREADS`, pool
/// width, and the git revision of the checkout (suffixed `-dirty` when the
/// working tree had uncommitted changes). Serving and update timings differ
/// by up to 10× between hosts, so a record is only comparable with records
/// carrying the same stamp.
pub fn host_stamp_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let tiers: Vec<&str> = gcon_runtime::available_tiers().iter().map(|t| t.name()).collect();
    let rev = std::process::Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let threads = std::env::var("GCON_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "{{ \"nproc\": {nproc}, \"cpu_model\": \"{cpu}\", \"kernel_tiers_available\": \"{}\", \
         \"kernel_tier_selected\": \"{}\", \"gcon_threads_env\": \"{threads}\", \
         \"pool_width\": {}, \"git_revision\": \"{rev}\" }}",
        tiers.join(","),
        gcon_runtime::kernel_tier().name(),
        gcon_runtime::configured_width(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcon_datasets::two_moons_graph;

    #[test]
    fn evaluate_gcon_returns_valid_score() {
        let d = two_moons_graph(201);
        let mut cfg = default_gcon_config(&d.name);
        cfg.encoder.epochs = 40;
        cfg.optimizer.max_iters = 300;
        let f1 = evaluate_gcon(&cfg, &d, 2.0, 1e-3, InferenceMode::Private, 7);
        assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn repeated_evaluation_is_deterministic_per_seed() {
        let d = two_moons_graph(202);
        let mut cfg = default_gcon_config(&d.name);
        cfg.encoder.epochs = 30;
        cfg.optimizer.max_iters = 200;
        let a = evaluate_gcon(&cfg, &d, 1.0, 1e-3, InferenceMode::Public, 11);
        let b = evaluate_gcon(&cfg, &d, 1.0, 1e-3, InferenceMode::Public, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn per_dataset_configs_differ() {
        assert_eq!(default_gcon_config("pubmed").alpha, 0.4);
        assert_eq!(default_gcon_config("cora-ml").alpha, 0.8);
        assert_eq!(default_gcon_config("actor").steps.len(), 2);
    }

    #[test]
    fn host_stamp_names_every_field() {
        let stamp = host_stamp_json();
        for key in
            ["nproc", "cpu_model", "kernel_tier_selected", "gcon_threads_env", "git_revision"]
        {
            assert!(stamp.contains(&format!("\"{key}\": ")), "{key} missing from {stamp}");
        }
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn harness_args_parse_every_flag() {
        let args = parse(&["--scale", "0.05", "--runs", "2", "--seed", "9", "--quick"]).unwrap();
        assert_eq!((args.scale, args.runs, args.seed, args.quick), (0.05, 2, 9, true));
        let args = parse(&["--bench", "word", "--scale", "1"]).unwrap();
        let default = HarnessArgs::default();
        assert_eq!((args.scale, args.runs, args.seed), (1.0, default.runs, default.seed));
        assert!(!args.quick);
    }

    /// Each bad value, a missing value and an unknown flag is an error that
    /// names the flag, not a panic.
    #[test]
    fn harness_args_errors_name_the_flag() {
        let cases: [(&[&str], &str); 13] = [
            (&["--scale", "0"], "--scale"),
            (&["--scale", "-1"], "--scale"),
            (&["--scale", "1.5"], "--scale"),
            (&["--scale", "NaN"], "--scale"),
            (&["--scale", "big"], "--scale"),
            (&["--scale"], "--scale"),
            (&["--runs", "0"], "--runs"),
            (&["--runs", "-2"], "--runs"),
            (&["--runs", "two"], "--runs"),
            (&["--runs"], "--runs"),
            (&["--seed", "1.5"], "--seed"),
            (&["--quick", "--seed"], "--seed"),
            (&["--sacle", "0.5"], "--sacle"),
        ];
        for (args, flag) in cases {
            let err = parse(args).expect_err(&format!("{args:?} parsed"));
            assert!(err.contains(flag), "{args:?}: `{err}` does not name {flag}");
        }
    }

    #[test]
    fn fmt_and_table_do_not_panic() {
        assert_eq!(fmt_score(0.5, 0.01), "0.500±0.010");
        print_table("t", &["a".into(), "b".into()], &[vec!["1".into(), "2".into()]]);
    }
}
