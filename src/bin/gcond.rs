//! `gcond` — the GCON serving daemon: answers node-classification queries
//! over TCP from a frozen feature store.
//!
//! ```text
//! # O(open) restart from a persisted store (the production path):
//! gcond --store store.gconstore [--addr 127.0.0.1:7464]
//!
//! # Cold start: build the store from a model artifact + dataset, serve it,
//! # and optionally persist it for the next (fast) restart. The dataset
//! # flags are `gcon`'s: a synthetic stand-in, or real text files from disk
//! # via `--dataset file --edges E --features F --labels L`:
//! gcond --model model.gcon --dataset cora-ml [--mode private|public]
//!       [--dtype f64|f32] [--scale 0.25] [--seed 1]
//!       [--save-store store.gconstore] [--addr 127.0.0.1:7464]
//!
//! # Fleet shard worker: starts with NO store; a coordinator ships it a
//! # row-range slice over the wire (ShardAssign) and it answers
//! # ShardQuery/ShardFingerprint for that range until killed:
//! gcond --shard [--addr 127.0.0.1:0]
//! ```
//!
//! On success the daemon prints exactly one line `listening on <ADDR>` to
//! stdout (with the ephemeral port resolved when `--addr` ends in `:0`) and
//! serves until killed. It exits 1 on a flag its mode does not read, and
//! prints the usage text after a command-line error, not after a failure
//! to load, fit, bind or serve. Tuning: `GCON_SERVER_MAX_INFLIGHT`,
//! `GCON_SERVER_READ_TIMEOUT_MS`, `GCON_SERVER_WRITE_TIMEOUT_MS`,
//! `GCON_SERVER_MAX_FRAME`, plus the usual `GCON_THREADS` /
//! `GCON_KERNEL_TIER` compute knobs.

#[path = "../cli.rs"]
mod cli;

use cli::{check_model_fits, load_dataset, Args, CliError};
use gcon::core::serialize;
use gcon::serve::{Server, ServerConfig, ServingMode, ServingModel, ShardWorker, StoreDtype};
use std::io::Write;
use std::process::ExitCode;

/// Obtains the serving store per the CLI contract: `--store` loads a
/// persisted artifact (no propagation at all), `--model` + `--dataset`
/// builds one from scratch.
fn obtain_store(args: &Args) -> Result<ServingModel, CliError> {
    match (args.get("store"), args.get("model")) {
        (Some(path), None) => {
            args.reject_unread("gcond --store")?;
            ServingModel::load(path)
                .map_err(|e| CliError::Run(format!("loading store `{path}`: {e}")))
        }
        (None, Some(model_path)) => {
            let model = serialize::load(model_path)
                .map_err(|e| CliError::Run(format!("loading model `{model_path}`: {e}")))?;
            let dataset = load_dataset(args)?;
            let mode = match args.get("mode").unwrap_or("private") {
                "private" => ServingMode::Private,
                "public" => ServingMode::Public,
                other => {
                    return Err(CliError::Usage(format!(
                        "--mode must be private|public, got `{other}`"
                    )))
                }
            };
            let dtype = match args.get("dtype") {
                None => StoreDtype::from_env(),
                Some("f64") => StoreDtype::F64,
                Some("f32") => StoreDtype::F32,
                Some(other) => {
                    return Err(CliError::Usage(format!("--dtype must be f64|f32, got `{other}`")))
                }
            };
            let save_to = args.get("save-store");
            args.reject_unread("gcond --model")?;
            check_model_fits(&model, &dataset).map_err(CliError::Run)?;
            let store = ServingModel::build_with_dtype(
                &model,
                &dataset.graph,
                &dataset.features,
                mode,
                dtype,
            );
            if let Some(out) = save_to {
                store.save(out).map_err(|e| CliError::Run(format!("saving store `{out}`: {e}")))?;
            }
            Ok(store)
        }
        (Some(_), Some(_)) => {
            Err(CliError::Usage("--store and --model are mutually exclusive".into()))
        }
        (None, None) => {
            Err(CliError::Usage("need --store FILE, or --model FILE with --dataset NAME".into()))
        }
    }
}

fn run() -> Result<(), CliError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7464");
    let config = ServerConfig::from_env();
    let bind_failed = |e: std::io::Error| CliError::Run(format!("binding `{addr}`: {e}"));
    let serve_failed = |e: std::io::Error| CliError::Run(format!("serving: {e}"));
    if args.get("shard").is_some() {
        if args.get("store").is_some() || args.get("model").is_some() {
            return Err(CliError::Usage(
                "--shard workers take no store; a coordinator assigns one".into(),
            ));
        }
        args.reject_unread("gcond --shard")?;
        let worker = ShardWorker::bind(config, addr).map_err(bind_failed)?;
        println!("listening on {}", worker.local_addr());
        std::io::stdout().flush().ok();
        return worker.run().map_err(serve_failed);
    }
    let store = obtain_store(&args)?;
    let server = Server::bind(&store, config, addr).map_err(bind_failed)?;
    // The contract tests and tooling rely on: one line, flushed, with the
    // resolved address (so `--addr host:0` callers learn the real port).
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    server.run().map_err(serve_failed)
}

fn main() -> ExitCode {
    let Err(e) = run() else { return ExitCode::SUCCESS };
    let usage = matches!(e, CliError::Usage(_));
    eprintln!("gcond: {}", String::from(e));
    if usage {
        eprintln!(
            "usage: gcond --store FILE [--addr HOST:PORT]\n\
             \u{20}      gcond --model FILE --dataset NAME [--mode private|public] \
             [--dtype f64|f32] [--seed N] [--save-store FILE] [--addr HOST:PORT]\n\
             \u{20}      (NAME: cora-ml|citeseer|pubmed|actor [--scale S], two-moons, or file \
             --edges E --features F --labels L [--train-frac 0.6] [--val-frac 0.2])\n\
             \u{20}      gcond --shard [--addr HOST:PORT]"
        );
    }
    ExitCode::FAILURE
}
