//! The command-line grammar and dataset loader shared by the `gcon` and
//! `gcond` binaries (each includes this file as its `cli` module), so a
//! model trained with `gcon train --dataset NAME …` can be served with
//! `gcond --model … --dataset NAME …` under the same flags.

use gcon::core::TrainedGcon;
use gcon::datasets::Dataset;
use std::cell::Cell;

/// Why a command failed: `Usage` when the command line is at fault (a
/// malformed, unknown, missing or out-of-domain flag), `Run` when a
/// well-formed command could not do its work (a file that does not load,
/// a model that does not fit the dataset, an address that does not bind).
/// A bare message converts to `Usage`.
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Run(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl From<CliError> for String {
    fn from(e: CliError) -> Self {
        match e {
            CliError::Usage(msg) | CliError::Run(msg) => msg,
        }
    }
}

/// Parsed `--key value` arguments in command-line order, each with whether
/// the command has read it, so [`Args::reject_unread`] can name the ones it
/// never reads.
#[derive(Debug)]
pub struct Args {
    flags: Vec<(String, String, Cell<bool>)>,
}

impl Args {
    /// Flags that take no value (presence is the value).
    const BOOLEAN: &'static [&'static str] = &["shard"];

    /// Parses `--key value` pairs; rejects dangling keys, bare words and
    /// repeated flags.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut flags: Vec<(String, String, Cell<bool>)> = Vec::new();
        let mut it = argv.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--").ok_or_else(|| format!("expected --flag, got `{k}`"))?;
            let val = if Self::BOOLEAN.contains(&key) {
                "true".to_string()
            } else {
                it.next().ok_or_else(|| format!("flag --{key} needs a value"))?.clone()
            };
            if flags.iter().any(|(k, ..)| k == key) {
                return Err(format!("flag --{key} given twice"));
            }
            flags.push((key.to_string(), val, Cell::new(false)));
        }
        Ok(Self { flags })
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        let (_, val, read) = self.flags.iter().find(|(k, ..)| k == key)?;
        read.set(true);
        Some(val)
    }

    /// Fails with the flags given that `command` has not looked up. A
    /// command calls this once it has read every flag it uses, before it
    /// writes anything, so a misspelt or inapplicable flag is an error
    /// instead of being ignored.
    pub fn reject_unread(&self, command: &str) -> Result<(), String> {
        let unread: Vec<String> = self
            .flags
            .iter()
            .filter(|(.., read)| !read.get())
            .map(|(key, ..)| format!("--{key}"))
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        Err(format!("{command} does not take {}", unread.join(", ")))
    }

    pub fn required(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing required flag --{key}"))
    }

    pub fn parse_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: not a number: `{v}`")),
        }
    }

    pub fn parse_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: not an integer: `{v}`")),
        }
    }
}

/// The dataset named by `--dataset`: a deterministic synthetic stand-in
/// (same `--scale`/`--seed` ⇒ same graph; `two-moons` has no `--scale`),
/// or `file` with `--edges`/`--features`/`--labels` text files from disk.
pub fn load_dataset(args: &Args) -> Result<Dataset, CliError> {
    let name = args.required("dataset")?;
    let seed = args.parse_u64("seed", 1)?;
    let scale = || -> Result<f64, String> {
        let scale = args.parse_f64("scale", 0.25)?;
        if !(scale > 0.0 && scale <= 1.0) {
            return Err(format!("--scale must lie in (0, 1], got {scale}"));
        }
        Ok(scale)
    };
    Ok(match name {
        "cora-ml" => gcon::datasets::cora_ml(scale()?, seed),
        "citeseer" => gcon::datasets::citeseer(scale()?, seed),
        "pubmed" => gcon::datasets::pubmed(scale()?, seed),
        "actor" => gcon::datasets::actor(scale()?, seed),
        "two-moons" => gcon::datasets::two_moons_graph(seed),
        "file" => {
            // Real data from disk: --edges/--features/--labels text files
            // (see gcon::datasets::text_io for the accepted grammars).
            let edges = args.required("edges")?;
            let feats = args.required("features")?;
            let labels = args.required("labels")?;
            let train_frac = args.parse_f64("train-frac", 0.6)?;
            let val_frac = args.parse_f64("val-frac", 0.2)?;
            if !(train_frac > 0.0 && val_frac >= 0.0 && train_frac + val_frac <= 1.0) {
                return Err(CliError::Usage(format!(
                    "--train-frac {train_frac} and --val-frac {val_frac} must be a split: \
                     train > 0, val ≥ 0, train + val ≤ 1"
                )));
            }
            gcon::datasets::text_io::load_from_files(
                "file",
                std::path::Path::new(edges),
                std::path::Path::new(feats),
                std::path::Path::new(labels),
                train_frac,
                val_frac,
                seed,
            )
            .map_err(|e| CliError::Run(format!("loading dataset files: {e}")))?
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset `{other}` \
                 (expected cora-ml|citeseer|pubmed|actor|two-moons|file)"
            )))
        }
    })
}

/// Checks that `model` can run on `dataset`: the raw feature width d₀ and
/// the class count must both be the ones the model was trained with.
pub fn check_model_fits(model: &TrainedGcon, dataset: &Dataset) -> Result<(), String> {
    let (d0, width) = (model.encoder.d0(), dataset.features.cols());
    if width != d0 {
        return Err(format!(
            "--dataset {} has {width} features per node, the model was trained on {d0}",
            dataset.name
        ));
    }
    if dataset.num_classes != model.num_classes {
        return Err(format!(
            "--dataset {} has {} classes, the model was trained on {}",
            dataset.name, dataset.num_classes, model.num_classes
        ));
    }
    Ok(())
}
