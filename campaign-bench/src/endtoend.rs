//! The untraced run: whole campaigns, timed end to end.
//!
//! Every iteration resolves the spec text into a fresh campaign (timed as
//! set-up), runs it to a complete report (timed as the run) and then, off
//! the clock, checks every cell against the oracles.  The in-process
//! workloads run on `threads()` workers; `server-zoo` submits the same spec
//! to an in-process `campaignd` over loopback, one fresh server and data
//! directory per iteration.  Determinism is checked once per run, before
//! the timed iterations: a one-thread run must reproduce the report, and the
//! server's report fingerprint must equal the in-process run's.

use crate::oracle::{SpecPlan, Tally};
use crate::stats::{median, peak_rss_mib, Metric};
use crate::workloads::{threads, Workload};
use crate::Outcome;
use mobile_congest::campaignd::{self, Client, Config, JobState};
use mobile_congest::harness::json::fnv1a_hex;
use mobile_congest::harness::{Campaign, CampaignReport, CampaignSpec, ReportRecord};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Spec resolutions timed per iteration: resolving takes milliseconds, so
/// several samples per campaign run keep the set-up median steady.
const SETUP_SAMPLES: usize = 20;

/// Long-poll interval of the watching client; the server answers as soon
/// as the job ends, so this only bounds how often an unfinished job is
/// re-polled.
const LONG_POLL_MS: u64 = 60_000;

/// Resolve spec text into a runnable campaign on `threads` workers: the
/// work `setup_s` measures.
pub fn resolve(text: &str, threads: usize) -> Result<Campaign, String> {
    let spec = CampaignSpec::from_json(black_box(text)).map_err(|e| format!("spec: {e}"))?;
    Ok(Campaign::from_spec(&spec)
        .map_err(|e| format!("spec: {e}"))?
        .threads(threads))
}

/// Σ network rounds over the executed cells of a report.
pub fn network_rounds(report: &CampaignReport) -> usize {
    report
        .cells
        .iter()
        .filter_map(|cell| cell.outcome.as_ref().ok())
        .map(|r| r.network_rounds)
        .sum()
}

/// A digest of everything that must not depend on the thread count: the
/// cell fingerprint and the trajectory JSONL.
fn digest(fingerprint: &str, jsonl: &str) -> String {
    format!(
        "{}-{}",
        fnv1a_hex(fingerprint.bytes()),
        fnv1a_hex(jsonl.bytes())
    )
}

/// The per-process working directory for `campaignd` data, inside the
/// benchmark's own directory.
pub fn data_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".data")
        .join(std::process::id().to_string())
}

/// Run `workload` untraced for `seconds` and report the end-to-end metrics.
pub fn run(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let text = workload.spec_json(seed);
    let spec = CampaignSpec::from_json(&text).map_err(|e| format!("spec: {e}"))?;
    let plan = SpecPlan::new(&spec, workload.answer(seed))?;
    let timings = if workload.via_server() {
        via_server(&text, &spec, &plan, seconds)?
    } else {
        in_process(&text, &plan, seconds)?
    };
    let run_s = median(&timings.run);
    let rounds = timings.rounds as f64;
    Ok(Outcome {
        correct: timings.correct,
        tally: timings.tally,
        metrics: vec![
            Metric::new("setup_s", median(&timings.setup), "s", timings.setup.len()).note("median"),
            Metric::new("run_s", run_s, "s", timings.run.len()).note("median"),
            Metric::new(
                "sim_rounds_per_s",
                rounds / run_s,
                "rounds/s",
                timings.run.len(),
            )
            .note("network_rounds / median run_s"),
            Metric::new("network_rounds", rounds, "rounds", 1).note("sum over cells"),
            Metric::new("peak_rss_mib", timings.peak_rss, "MiB", 1)
                .note("VmHWM after the first iteration"),
        ],
    })
}

/// What the timed iterations produced.
struct Timings {
    setup: Vec<f64>,
    run: Vec<f64>,
    rounds: usize,
    /// `VmHWM` after the first timed iteration: the memory of one campaign
    /// run, not the allocator fragmentation that repeated runs pile up
    /// (which spread 28–36 MiB between `secure-zoo` runs).
    peak_rss: f64,
    tally: Tally,
    correct: bool,
}

fn in_process(text: &str, plan: &SpecPlan, seconds: Duration) -> Result<Timings, String> {
    let threads = threads();
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut correct = true;
    let mut first: Option<(String, usize)> = None;
    let mut peak_rss = None;
    // Determinism across thread counts, off the clock.
    let single = resolve(text, 1)?.run();
    let single = digest(&single.fingerprint(), &single.to_jsonl());
    let start = Instant::now();
    while run.is_empty() || start.elapsed() < seconds {
        let mut campaign = None;
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            campaign = Some(resolve(text, threads)?);
            setup.push(t.elapsed().as_secs_f64());
        }
        let campaign = campaign.expect("SETUP_SAMPLES is positive");

        let t = Instant::now();
        let report = campaign.run();
        let summaries = report.summaries();
        let jsonl = report.to_jsonl_with(&summaries);
        let fingerprint = report.fingerprint();
        run.push(t.elapsed().as_secs_f64());
        eprintln!("iteration {}: run {:.4} s", run.len(), run[run.len() - 1]);

        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
        tally.add(plan.check(&report));
        let this = (digest(&fingerprint, &jsonl), network_rounds(&report));
        let first = first.get_or_insert_with(|| this.clone());
        if *first != this {
            eprintln!(
                "iteration {} reported differently from the first",
                run.len()
            );
            correct = false;
        }
    }
    let (reference, rounds) = first.expect("at least one iteration ran");
    if single != reference {
        eprintln!("the one-thread report differs from the {threads}-thread report");
        correct = false;
    }
    Ok(Timings {
        setup,
        run,
        rounds,
        peak_rss: peak_rss.expect("at least one iteration ran"),
        tally,
        correct,
    })
}

fn via_server(
    text: &str,
    spec: &CampaignSpec,
    plan: &SpecPlan,
    seconds: Duration,
) -> Result<Timings, String> {
    let threads = threads();
    // The in-process reference, oracle-checked once, off the clock.
    let reference = resolve(text, threads)?.run();
    let reference_tally = plan.check(&reference);
    let expected = ReportRecord::of(&reference).fingerprint();
    let rounds = network_rounds(&reference);
    drop(reference);

    let root = data_root();
    let mut peak_rss = None;
    let (mut setup, mut run) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut correct = true;
    let start = Instant::now();
    while run.is_empty() || start.elapsed() < seconds {
        let dir = root.join(run.len().to_string());
        let t = Instant::now();
        let mut config = Config::new(&dir);
        config.workers = threads;
        config.quiet = true;
        let server = campaignd::start(config)?;
        let client = Client::new(server.addr().to_string());
        let accepted = client.submit(text)?;
        setup.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let done = client.watch(&accepted.fingerprint, LONG_POLL_MS, |_| {})?;
        run.push(t.elapsed().as_secs_f64());
        eprintln!("iteration {}: run {:.4} s", run.len(), run[run.len() - 1]);
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }

        // A job that reproduces the reference fingerprint ran exactly the
        // reference's cells, so it shares their verdicts.
        tally.add(Tally {
            attempted: done.cells_total,
            failed: reference_tally.failed,
            first_error: reference_tally.first_error.clone(),
        });
        if done.state != JobState::Done
            || done.cells_total != spec.cell_count()
            || done.report_fingerprint.as_deref() != Some(expected.as_str())
        {
            eprintln!(
                "server job ended {} with report fingerprint {:?}, expected {expected}",
                done.state.label(),
                done.report_fingerprint
            );
            correct = false;
        }
        // The server's threads idle until the process exits; its files go now.
        std::fs::remove_dir_all(&dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    }
    let _ = std::fs::remove_dir_all(&root);
    Ok(Timings {
        setup,
        run,
        rounds,
        peak_rss: peak_rss.expect("at least one iteration ran"),
        tally,
        correct,
    })
}
