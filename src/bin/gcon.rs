//! `gcon` — command-line interface for the library's train → release →
//! infer workflow.
//!
//! ```text
//! gcon train  --dataset cora-ml --eps 1.0 --out model.gcon [--scale 0.25]
//!             [--alpha 0.8] [--steps 2] [--lambda 0.2] [--clip-p 0.5]
//!             [--omega 0.9] [--loss msm|huber:<δ>] [--seed 1]
//! gcon infer  --model model.gcon --dataset cora-ml [--mode private|public]
//!             [--scale 0.25] [--seed 1]
//! gcon report --model model.gcon
//! ```
//!
//! The dataset flags regenerate the same deterministic synthetic stand-in
//! the harness uses (same `--scale`/`--seed` ⇒ same graph), so `infer` can
//! evaluate an artifact produced by an earlier `train` run.

#[path = "../cli.rs"]
mod cli;

use cli::{check_model_fits, load_dataset, Args};
use gcon::core::serialize;
use gcon::core::{GconConfig, LossKind, PropagationStep};
use gcon::datasets::metrics;
use gcon::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::process::ExitCode;

/// Parses the `--loss` flag: `msm` or `huber:<δ>`.
fn parse_loss(s: &str) -> Result<LossKind, String> {
    if s == "msm" {
        return Ok(LossKind::MultiLabelSoftMargin);
    }
    if let Some(d) = s.strip_prefix("huber:") {
        let delta: f64 = d.parse().map_err(|_| format!("--loss huber:<δ>: bad δ `{d}`"))?;
        if !(delta > 0.0 && delta.is_finite()) {
            return Err(format!("--loss huber δ must be positive and finite, got {delta}"));
        }
        return Ok(LossKind::PseudoHuber { delta });
    }
    Err(format!("--loss must be `msm` or `huber:<δ>`, got `{s}`"))
}

/// Parses the `--steps` flag: comma-separated `m` values, `inf` allowed.
fn parse_steps(s: &str) -> Result<Vec<PropagationStep>, String> {
    let steps: Option<Vec<PropagationStep>> =
        s.split(',').map(|t| PropagationStep::parse(t.trim())).collect();
    let steps = steps.ok_or_else(|| format!("--steps: bad step list `{s}`"))?;
    if steps.is_empty() {
        return Err("--steps: need at least one step".into());
    }
    Ok(steps)
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let eps = args.required("eps")?.parse::<f64>().map_err(|_| "--eps: not a number")?;
    if !(eps > 0.0 && eps.is_finite()) {
        return Err(format!("--eps must be positive and finite, got {eps}"));
    }
    let out = args.required("out")?;
    let dataset = load_dataset(args)?;
    let delta = args.parse_f64("delta", dataset.default_delta())?;
    if !(delta > 0.0 && delta < 1.0) {
        return Err(format!("--delta must lie in (0, 1), got {delta}"));
    }
    let seed = args.parse_u64("seed", 1)?;

    let mut cfg = GconConfig::default();
    cfg.alpha = args.parse_f64("alpha", cfg.alpha)?;
    cfg.alpha_inference = args.parse_f64("alpha-i", cfg.alpha)?;
    cfg.lambda = args.parse_f64("lambda", cfg.lambda)?;
    cfg.omega = args.parse_f64("omega", cfg.omega)?;
    cfg.clip_p = args.parse_f64("clip-p", cfg.clip_p)?;
    if let Some(s) = args.get("steps") {
        cfg.steps = parse_steps(s)?;
    }
    if let Some(l) = args.get("loss") {
        cfg.loss = parse_loss(l)?;
    }
    cfg.validate()?;
    args.reject_unread("gcon train")?;
    // An unwritable --out fails here, before any training.
    let mut file = std::fs::File::create(out).map_err(|e| format!("--out {out}: {e}"))?;

    eprintln!(
        "training GCON on {} (n={}, |E|={}) at (ε={eps}, δ={delta:.3e})…",
        dataset.name,
        dataset.num_nodes(),
        dataset.graph.num_edges()
    );
    let mut rng = StdRng::seed_from_u64(seed + 1000);
    let model = train_gcon(
        &cfg,
        &dataset.graph,
        &dataset.features,
        &dataset.labels,
        &dataset.split.train,
        dataset.num_classes,
        eps,
        delta,
        &mut rng,
    );
    println!("{}", model.report);
    let bytes = serialize::to_bytes(&model);
    if let Err(e) = file.write_all(&bytes) {
        drop(file);
        let _ = std::fs::remove_file(out);
        return Err(format!("writing {out}: {e}"));
    }
    println!("wrote {out} ({} bytes)", bytes.len());
    Ok(())
}

fn cmd_infer(args: &Args) -> Result<(), String> {
    let model_path = args.required("model")?;
    let model = serialize::load(model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    let dataset = load_dataset(args)?;
    let mode = args.get("mode").unwrap_or("private");
    args.reject_unread("gcon infer")?;
    check_model_fits(&model, &dataset)?;
    let pred = match mode {
        "private" => private_predict(&model, &dataset.graph, &dataset.features),
        "public" => public_predict(&model, &dataset.graph, &dataset.features),
        other => return Err(format!("--mode must be private|public, got `{other}`")),
    };
    let test_pred: Vec<usize> = dataset.split.test.iter().map(|&i| pred[i]).collect();
    let gold = dataset.test_labels();
    println!("dataset     : {}", dataset.name);
    println!("mode        : {mode}");
    println!("test nodes  : {}", gold.len());
    println!("micro-F1    : {:.4}", micro_f1(&test_pred, &gold));
    println!("macro-F1    : {:.4}", metrics::macro_f1(&test_pred, &gold, dataset.num_classes));
    println!("trained at  : (ε={}, δ={:.3e})", model.report.eps, model.report.delta);
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let model_path = args.required("model")?;
    args.reject_unread("gcon report")?;
    let model = serialize::load(model_path).map_err(|e| format!("reading {model_path}: {e}"))?;
    println!("{}", model.report);
    println!("classes           : {}", model.num_classes);
    println!("feature dim d     : {}", model.dim());
    println!("restart α         : {}", model.config.alpha);
    println!(
        "steps m₁…m_s      : {}",
        model.config.steps.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ")
    );
    println!("loss              : {:?}", model.config.loss);
    println!("Lemma 1 clip p    : {}", model.config.clip_p);
    println!("Newton steps      : {}", model.opt_iterations);
    println!("final ‖∇L_priv‖   : {:.3e}", model.final_grad_norm);
    println!("‖Θ − Θ*‖ bound    : {:.3e}", model.minimizer_distance_bound());
    Ok(())
}

const USAGE: &str = "usage:
  gcon train  --dataset <name> --eps <ε> --out <path> [options]
  gcon infer  --model <path> --dataset <name> [--mode private|public]
  gcon report --model <path>

datasets: cora-ml | citeseer | pubmed | actor [--scale <f>] | two-moons
          | file --edges <p> --features <p> --labels <p>
                 [--train-frac 0.6] [--val-frac 0.2]
train options: --delta <δ> --alpha <α> --alpha-i <α_I> --steps <m1,m2,…|inf>
               --lambda <Λ> --omega <ω> --clip-p <p> --loss <msm|huber:δ>
               --seed <n>
A flag the command does not use is an error.";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let run = || -> Result<(), String> {
        let args = Args::parse(rest)?;
        match cmd.as_str() {
            "train" => cmd_train(&args),
            "infer" => cmd_infer(&args),
            "report" => cmd_report(&args),
            "help" | "--help" | "-h" => {
                args.reject_unread("gcon help")?;
                println!("{USAGE}");
                Ok(())
            }
            other => Err(format!("unknown command `{other}`\n{USAGE}")),
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_key_value_flags() {
        let a = Args::parse(&argv(&["--eps", "1.5", "--dataset", "cora-ml"])).unwrap();
        assert_eq!(a.get("eps"), Some("1.5"));
        assert_eq!(a.get("dataset"), Some("cora-ml"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn rejects_bare_words_and_dangling_flags() {
        assert!(Args::parse(&argv(&["eps", "1.5"])).is_err());
        assert!(Args::parse(&argv(&["--eps"])).is_err());
        assert!(Args::parse(&argv(&["--eps", "1", "--eps", "2"])).is_err());
    }

    #[test]
    fn numeric_defaults_and_errors() {
        let a = Args::parse(&argv(&["--eps", "abc"])).unwrap();
        assert!(a.parse_f64("eps", 1.0).is_err());
        assert_eq!(a.parse_f64("scale", 0.25).unwrap(), 0.25);
        assert_eq!(a.parse_u64("seed", 7).unwrap(), 7);
    }

    #[test]
    fn loss_flag_grammar() {
        assert_eq!(parse_loss("msm").unwrap(), LossKind::MultiLabelSoftMargin);
        assert_eq!(parse_loss("huber:0.3").unwrap(), LossKind::PseudoHuber { delta: 0.3 });
        assert!(parse_loss("huber:-1").is_err());
        assert!(parse_loss("huber:inf").is_err());
        assert!(parse_loss("hinge").is_err());
    }

    #[test]
    fn steps_flag_grammar() {
        assert_eq!(
            parse_steps("1, 2, inf").unwrap(),
            vec![PropagationStep::Finite(1), PropagationStep::Finite(2), PropagationStep::Infinite]
        );
        assert!(parse_steps("1, x").is_err());
        assert!(parse_steps("").is_err());
    }

    #[test]
    fn unknown_dataset_rejected() {
        let a = Args::parse(&argv(&["--dataset", "imagenet"])).unwrap();
        let err = String::from(load_dataset(&a).unwrap_err());
        assert!(err.contains("unknown dataset"), "{err}");
    }
}
