//! `campaign-bench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! campaign-bench --workload NAME --seed N --seconds S --trace 0|1
//! campaign-bench --write-specs DIR [--seed N]
//! ```
//!
//! A run generates the workload's campaign spec from the seed, feeds the
//! spec text to the program, repeats whole campaigns for `S` seconds and
//! checks every cell against the benchmark's own oracles.  With `--trace 0`
//! it reports the end-to-end metrics, with `--trace 1` the per-layer ones
//! (see `README.md`).  The last line of stdout is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod endtoend;
mod layers;
mod oracle;
mod stats;
mod workloads;

use stats::Metric;
use std::process::ExitCode;
use std::time::Duration;
use workloads::Workload;

const USAGE: &str = "usage: campaign-bench --workload NAME --seed N --seconds S --trace 0|1
       campaign-bench --write-specs DIR [--seed N]

workloads: resilient-zoo, resilient-large, secure-zoo, server-zoo";

/// What the command line asks for.
enum Command {
    Run {
        workload: Workload,
        seed: u64,
        seconds: Duration,
        trace: bool,
    },
    WriteSpecs {
        dir: std::path::PathBuf,
        seed: u64,
    },
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut specs_dir) =
        (None, 1, None, false, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--write-specs" => specs_dir = Some(std::path::PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(dir) = specs_dir {
        return Ok(Command::WriteSpecs { dir, seed });
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The outcome of one benchmark run.
pub struct Outcome {
    /// Whether every check beyond the per-cell oracles held (determinism,
    /// server agreement, consistent round counts).
    pub correct: bool,
    /// Cells attempted and cells failed (skipped, failed or wrong).
    pub tally: oracle::Tally,
    /// The metrics to report.
    pub metrics: Vec<Metric>,
}

/// Print the human-readable table, then the machine-readable last line.
fn report(outcome: &Outcome) {
    println!(
        "{:<32} {:>16} {:<8} {:>8}  note",
        "metric", "value", "unit", "samples"
    );
    for m in &outcome.metrics {
        println!(
            "{:<32} {:>16.6} {:<8} {:>8}  {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    if let Some(e) = &outcome.tally.first_error {
        println!("first failed cell: {e}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    );
}

fn run() -> Result<(), String> {
    match parse_args(std::env::args().skip(1))? {
        Command::WriteSpecs { dir, seed } => {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            for workload in Workload::ALL {
                let path = dir.join(format!("{}.json", workload.name()));
                std::fs::write(&path, workload.spec_json(seed))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                eprintln!("wrote {}", path.display());
            }
            Ok(())
        }
        Command::Run {
            workload,
            seed,
            seconds,
            trace,
        } => {
            let outcome = if trace {
                layers::run(workload, seed, seconds)?
            } else {
                endtoend::run(workload, seed, seconds)?
            };
            report(&outcome);
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign-bench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
