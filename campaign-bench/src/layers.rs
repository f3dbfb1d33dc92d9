//! The traced run: per-layer figures from the benchmark's own calls into
//! each crate's public functions, beside the program's `obs` phase profile.
//!
//! A traced run does, in order:
//!
//! 1. `harness`: times spec resolution, runs the campaign once untraced for
//!    the artifact-cache counters, the report encoding and the `congest`
//!    counters;
//! 2. `obs`: runs the same campaign with the program's ring tracing and
//!    sums its phase profile (inclusive: `correction` contains
//!    `round_exchange`), together with traced probes on every graph — the
//!    key schedule and one tree-packing v2 cell — so that each phase has
//!    spans on every workload;
//! 3. `campaignd`: submits the spec to a fresh in-process server, timing
//!    the submit, each status poll and the first stored batch;
//! 4. passes, until `--seconds` have gone and at least forty cells were
//!    timed: every graph is rebuilt (`netgraph`), every cell runs through
//!    the harness's own cell step — artifact-cache lookup, `prepare` on a
//!    miss, `execute` — timed piece by piece, and the layer kernels run on
//!    the workload's graphs (packing, RS scheduling, round exchange, key
//!    schedule, bit extraction, RS decoding, GF kernels, async executor).
//!
//! Every cell of every step is checked against the oracles, and each pass
//! must reproduce the campaign's cells exactly.

use crate::endtoend::{data_root, resolve};
use crate::oracle::{check_answer, check_fully_corrected, SpecPlan, Tally};
use crate::stats::{median, tail, Metric};
use crate::workloads::{mix, threads, Workload};
use crate::Outcome;
use mobile_congest::campaignd::{self, Client, Config, JobState};
use mobile_congest::codes::field::Field;
use mobile_congest::codes::{kernels, BitExtractor, Gf2_16, ReedSolomon};
use mobile_congest::compilers::secure::KeyPool;
use mobile_congest::graphs::tree_packing::augmented_low_depth_packing;
use mobile_congest::graphs::Graph;
use mobile_congest::harness::json;
use mobile_congest::harness::spec::{compiler_from_json, compiler_to_json, graph_to_json};
use mobile_congest::harness::{cell_seed, ArtifactCache, CampaignCell, CampaignSpec, ReportRecord};
use mobile_congest::icoding::{RsScheduler, SchedulePlan, C_RS, T_RS};
use mobile_congest::obs;
use mobile_congest::sim::adversary::{
    AdaptiveHeaviest, AdversaryStrategy, BurstAdversary, EclipseNode, GreedyHeaviest, RandomMobile,
    SweepMobile, SynthesizedSchedule,
};
use mobile_congest::sim::scenario::matrix::{
    run_cell_artifacts, AdversaryDef, CompilerSpec, GraphSpec,
};
use mobile_congest::sim::scenario::BoxedAlgorithm;
use mobile_congest::sim::{Network, Traffic};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The fewest timed cells a traced run collects, so the tail percentile
/// has ten samples beyond it.
const MIN_CELL_SAMPLES: usize = 40;

/// A traced run stops starting passes after this long, whatever else.
const PASS_DEADLINE: Duration = Duration::from_secs(120);

/// The secure compilers' parameters of `secure-zoo`, used for the key
/// schedule and bit extraction on every workload's graphs.
const KEY_THRESHOLD: usize = 8;
const KEY_WORDS: usize = 16;

/// The asynchronous schedule of `secure-zoo`.
const ASYNC_COMPILER: &str = r#"{"id":"async","latency":"uniform","min":0,"max":3,"reorder":2}"#;

/// The resilient compiler of the `obs` probes.
const PROBE_COMPILER: &str = r#"{"id":"tree-packing","f":1,"seed":5,"packing":"v2"}"#;

/// Pause between status polls of the traced server job.
const STATUS_POLL: Duration = Duration::from_millis(5);

/// Network rounds per exchange sample.
const EXCHANGE_ROUNDS: usize = 64;

/// GF kernel buffer size and calls per throughput sample.
const KERNEL_BYTES: usize = 1 << 16;
const KERNEL_CALLS: usize = 16;

/// Samples per layer, in milliseconds unless the metric says otherwise.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, layer: &'static str, value: f64) {
        self.0.entry(layer).or_default().push(value);
    }

    /// Time `f` into `layer` in milliseconds.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.push(layer, ms(t.elapsed()));
        out
    }

    fn get(&self, layer: &'static str) -> &[f64] {
        self.0.get(layer).map_or(&[], Vec::as_slice)
    }

    /// The median of a layer's samples as a metric.
    fn median(&self, layer: &'static str, unit: &'static str) -> Metric {
        let samples = self.get(layer);
        Metric::new(layer, median(samples), unit, samples.len()).note("median")
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Build the strategy an adversary def describes (the program keeps its own
/// factory private to the spec it builds).
fn strategy(def: &AdversaryDef, seed: u64) -> Box<dyn AdversaryStrategy> {
    match def {
        AdversaryDef::RandomMobile { f } | AdversaryDef::Eavesdropper { f } => {
            Box::new(RandomMobile::new(*f, seed))
        }
        AdversaryDef::SweepMobile { f } => Box::new(SweepMobile::new(*f)),
        AdversaryDef::GreedyHeaviest { f, mode } => {
            Box::new(GreedyHeaviest::new(*f).with_mode(*mode))
        }
        AdversaryDef::AdaptiveHeaviest { f } => Box::new(AdaptiveHeaviest::new(*f)),
        AdversaryDef::Eclipse { node, f, mode } => {
            Box::new(EclipseNode::new(*node, *f).with_mode(*mode))
        }
        AdversaryDef::Burst {
            quiet,
            burst,
            per_round,
            ..
        } => Box::new(BurstAdversary::new(*quiet, *burst, *per_round, seed)),
        AdversaryDef::Synthesized { schedule, mode } => {
            Box::new(SynthesizedSchedule::new(schedule.clone()).with_mode(*mode))
        }
    }
}

fn network(graph: &Graph, def: &AdversaryDef, seed: u64) -> Network {
    Network::new(
        graph.clone(),
        def.role(),
        strategy(def, seed),
        def.budget(),
        seed,
    )
}

/// Resolve one compiler def, given as spec JSON, into a runnable spec.
fn compiler_spec(json_def: &str) -> Result<CompilerSpec, String> {
    let value = json::parse(json_def).map_err(|e| e.to_string())?;
    Ok(compiler_from_json(&value)
        .map_err(|e| e.to_string())?
        .to_spec())
}

/// The tree count the tree-packing compiler picks at `f = 1`
/// (`k > 2 · t_RS · c_RS · f · η` at load `η = 2`).
fn default_trees() -> usize {
    2 * T_RS * C_RS * 2 + 1
}

/// A deterministic word stream for kernel inputs.
struct Words(u64, u64);

impl Words {
    fn next(&mut self) -> u64 {
        self.1 += 1;
        mix(self.0, self.1)
    }
}

/// Run `workload` traced and report the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let start = Instant::now();
    let text = workload.spec_json(seed);
    let spec = CampaignSpec::from_json(&text).map_err(|e| format!("spec: {e}"))?;
    let plan = SpecPlan::new(&spec, workload.answer(seed))?;
    let threads = threads();
    let mut layers = Samples::default();
    let mut tally = Tally::default();
    let mut correct = true;

    // 1. harness.
    for _ in 0..20 {
        layers.time("harness.spec_resolve_ms", || resolve(&text, threads))?;
    }
    let campaign = resolve(&text, threads)?;
    let report = campaign.run();
    layers.time("harness.report_encode_ms", || {
        let summaries = report.summaries();
        black_box(report.to_jsonl_with(&summaries));
        black_box(report.fingerprint());
    });
    let cache = campaign
        .artifact_cache_handle()
        .expect("spec-built campaigns have an artifact cache");
    let (hits, misses) = (cache.hits(), cache.misses());
    tally.add(plan.check(&report));
    let reports = || report.cells.iter().filter_map(|c| c.outcome.as_ref().ok());
    let words: usize = reports().map(|r| r.metrics.words).sum();
    let corrupted: usize = reports().map(|r| r.metrics.corrupted_messages).sum();
    let expected_cells: Vec<String> = report.cells.iter().map(|c| format!("{c:?}")).collect();
    let expected_record = ReportRecord::of(&report).fingerprint();
    drop(report);

    let payload_def = spec.grid.payload.clone();
    let payload = move |g: &Graph| -> BoxedAlgorithm { payload_def.build(g) };
    let eavesdropper = AdversaryDef::Eavesdropper { f: 1 };

    // 2. obs.
    let traced = resolve(&text, threads)?.trace(obs::TraceSpec::ring());
    let t = Instant::now();
    let traced_report = traced.run();
    let traced_run_s = t.elapsed().as_secs_f64();
    tally.add(plan.check(&traced_report));
    let mut profile = obs::PhaseProfile::default();
    for cell in &traced_report.cells {
        if let Ok(r) = &cell.outcome {
            profile.merge(&r.trace.profile);
        }
    }
    drop(traced_report);
    // Without the probes a phase the workload's compilers never enter (the
    // key schedule on `resilient-*`, packing and correction on
    // `secure-zoo`) would read exactly zero on every run.
    let probe_compiler = compiler_spec(PROBE_COMPILER)?;
    let probe_adversary = AdversaryDef::RandomMobile { f: 1 }.to_spec();
    for (gi, def) in spec.grid.graphs.iter().enumerate() {
        let gspec = GraphSpec::from_def(def).map_err(|e| e.to_string())?;
        let g = &gspec.graph;
        let probe_seed = cell_seed(spec.seed, gi);
        let mut net = network(g, &eavesdropper, probe_seed);
        net.install_tracer(obs::TraceSpec::ring().build_tracer());
        let rounds = payload(g).rounds().max(1);
        KeyPool::establish(&mut net, probe_seed, rounds, KEY_WORDS, KEY_THRESHOLD);
        profile.merge(net.tracer_mut().profile());
        let probe = run_cell_artifacts(
            &gspec,
            &probe_adversary,
            &probe_compiler,
            &payload,
            probe_seed,
            obs::TraceSpec::ring(),
            None,
        );
        let verdict = match &probe {
            Ok(report) => {
                profile.merge(&report.trace.profile);
                check_answer(workload.answer(seed), g.node_count(), &report.outputs)
                    .and_then(|()| check_fully_corrected(&report.notes))
            }
            // Tree packing does not validate on every graph (grids); the
            // other graphs still give the phases their spans.
            Err(e) if e.is_validation_error() => Ok(()),
            Err(e) => Err(e.to_string()),
        };
        if let Err(e) = verdict {
            eprintln!("obs probe on {}: {e}", gspec.name);
            correct = false;
        }
    }
    let phase = |name: &'static str| {
        let (spans, nanos) = profile
            .rows()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0, 0), |(_, spans, nanos)| (spans, nanos));
        (nanos as f64 / 1e6, spans as usize)
    };

    // 3. campaignd.
    correct &= server_layer(&text, &expected_record, &mut layers)?;

    // 4. passes.
    let graph_keys: Vec<String> = spec.grid.graphs.iter().map(graph_to_json).collect();
    let compiler_keys: Vec<String> = spec.grid.compilers.iter().map(compiler_to_json).collect();
    let adversaries: Vec<_> = spec.grid.adversaries.iter().map(|d| d.to_spec()).collect();
    let compilers: Vec<_> = spec.grid.compilers.iter().map(|d| d.to_spec()).collect();
    let async_compiler = compiler_spec(ASYNC_COMPILER)?;
    let (n_a, n_c, reps) = (adversaries.len(), compilers.len(), spec.repetitions);
    let mut words_rng = Words(seed, 0);
    let mut passes = 0;
    while passes == 0
        || (start.elapsed() < PASS_DEADLINE
            && (start.elapsed() < seconds
                || layers.get("harness.cell_ms").len() < MIN_CELL_SAMPLES))
    {
        passes += 1;
        let graphs = spec
            .grid
            .graphs
            .iter()
            .map(|def| layers.time("netgraph.build_ms", || GraphSpec::from_def(def)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;

        // The harness's cell step, piece by piece, with a fresh cache.
        let cache = ArtifactCache::new();
        for (index, expected) in expected_cells.iter().enumerate() {
            let (gi, ai, ci) = (
                index / (reps * n_c * n_a),
                (index / (reps * n_c)) % n_a,
                (index / reps) % n_c,
            );
            let cell_seed = cell_seed(spec.seed, index);
            let t0 = Instant::now();
            let artifacts = cache
                .get_or_prepare(
                    &ArtifactCache::pair_key(&graph_keys[gi], &compiler_keys[ci]),
                    || {
                        let compiler = compilers[ci].instantiate();
                        let mut tracer = obs::TraceSpec::off().build_tracer();
                        layers.time("core.prepare_ms", || {
                            compiler.prepare(&graphs[gi].graph, &mut tracer)
                        })
                    },
                )
                .ok();
            let t1 = Instant::now();
            let outcome = run_cell_artifacts(
                &graphs[gi],
                &adversaries[ai],
                &compilers[ci],
                &payload,
                cell_seed,
                obs::TraceSpec::off(),
                artifacts,
            );
            let t2 = Instant::now();
            layers.push("harness.cell_ms", ms(t2 - t0));
            layers.push("core.execute_ms", ms(t2 - t1));
            let cell = CampaignCell {
                index,
                graph: graphs[gi].name.clone(),
                adversary: adversaries[ai].name.clone(),
                compiler: compilers[ci].name.clone(),
                repetition: index % reps,
                seed: cell_seed,
                outcome,
            };
            tally.attempted += 1;
            if let Err(e) = plan.check_cell(&cell) {
                tally.failed += 1;
                tally.first_error.get_or_insert(e);
            }
            if format!("{cell:?}") != *expected {
                eprintln!("cell {index} differs between the campaign and the per-cell pass");
                correct = false;
            }
        }

        for (gi, gspec) in graphs.iter().enumerate() {
            let g = &gspec.graph;
            let payload_rounds = payload(g).rounds().max(1);
            let graph_seed = cell_seed(spec.seed, gi);

            // netgraph packing and the interactive scheduler over it.
            if g.edge_count() < g.node_count() * (g.node_count() - 1) / 2 {
                let packing = layers.time("netgraph.packing_ms", || {
                    augmented_low_depth_packing(g, 0, default_trees(), 2)
                });
                let rounds = packing.max_height().max(1);
                for def in &spec.grid.adversaries {
                    let mut net = network(g, def, graph_seed);
                    layers.time("interactive.schedule_ms", || {
                        let plan = SchedulePlan::new(g, &packing);
                        black_box(RsScheduler.run_planned(&mut net, &packing, &plan, rounds))
                    });
                }
            }

            // congest round exchange under each of the workload's adversaries.
            for def in &spec.grid.adversaries {
                let mut net = network(g, def, graph_seed);
                let mut traffic = Traffic::new(g);
                let mut busy = Duration::ZERO;
                for _ in 0..EXCHANGE_ROUNDS {
                    traffic.begin_round(g);
                    for e in 0..g.edge_count() {
                        let edge = g.edge(e);
                        let word = [words_rng.next(), e as u64];
                        traffic.send(g, edge.u, edge.v, word);
                        traffic.send(g, edge.v, edge.u, word);
                    }
                    let t = Instant::now();
                    net.exchange_in_place(&mut traffic);
                    busy += t.elapsed();
                }
                let arcs = (EXCHANGE_ROUNDS * g.arc_count()) as f64;
                layers.push("congest.exchange_ns_per_arc", busy.as_nanos() as f64 / arcs);
            }

            // core key schedule and coding bit extraction at ℓ = r + t.
            let mut net = network(g, &eavesdropper, graph_seed);
            layers.time("core.key_schedule_ms", || {
                black_box(KeyPool::establish(
                    &mut net,
                    graph_seed,
                    payload_rounds,
                    KEY_WORDS,
                    KEY_THRESHOLD,
                ))
            });
            let extractor =
                BitExtractor::<Gf2_16>::new(payload_rounds + KEY_THRESHOLD, KEY_THRESHOLD)
                    .map_err(|e| format!("bit extractor: {e:?}"))?;
            let pads: Vec<Gf2_16> = (0..extractor.input_len())
                .map(|_| Gf2_16::from_u64(words_rng.next()))
                .collect();
            for _ in 0..KEY_WORDS * 4 {
                let t = Instant::now();
                black_box(
                    extractor
                        .extract(black_box(&pads))
                        .map_err(|e| format!("{e:?}"))?,
                );
                layers.push("coding.extract_us", t.elapsed().as_secs_f64() * 1e6);
            }

            // async_exec on the graph under a one-edge eavesdropper.
            let outcome = layers.time("async_exec.execute_ms", || {
                run_cell_artifacts(
                    gspec,
                    &eavesdropper.to_spec(),
                    &async_compiler,
                    &payload,
                    graph_seed,
                    obs::TraceSpec::off(),
                    None,
                )
            });
            // Checked like the kernels below, not counted as a campaign
            // cell: the failed share must not depend on the pass count.
            let verdict = outcome
                .map_err(|e| e.to_string())
                .and_then(|r| check_answer(workload.answer(seed), g.node_count(), &r.outputs));
            if let Err(e) = verdict {
                eprintln!("async executor on {}: {e}", gspec.name);
                correct = false;
            }
        }

        // coding: RS decoding at the packing's code parameters, GF kernels.
        correct &= rs_decode(&mut layers, &mut words_rng)?;
        gf_kernels(&mut layers, &mut words_rng);
    }

    let cells = layers.get("harness.cell_ms");
    let cell_tail = match tail(cells) {
        Some((p, v)) => {
            Metric::new("harness.cell_tail_ms", v, "ms", cells.len()).note(format!("p{p}"))
        }
        None => {
            eprintln!("only {} cells timed: no tail percentile", cells.len());
            correct = false;
            Metric::new("harness.cell_tail_ms", 0.0, "ms", cells.len())
        }
    };
    let obs_metric = |name: &'static str, phase_name: &'static str| {
        let (ms, spans) = phase(phase_name);
        Metric::new(name, ms, "ms", spans).note("sum over the traced campaign and probes")
    };
    let metrics = vec![
        layers.median("harness.spec_resolve_ms", "ms"),
        Metric::new("harness.cell_p50_ms", median(cells), "ms", cells.len()).note("median"),
        cell_tail,
        layers.median("harness.report_encode_ms", "ms"),
        Metric::new("harness.cache_hits", hits as f64, "count", 1).note("untraced campaign"),
        Metric::new("harness.cache_misses", misses as f64, "count", 1).note("untraced campaign"),
        layers.median("netgraph.build_ms", "ms"),
        layers
            .median("netgraph.packing_ms", "ms")
            .note(format!("median, v2 at k={}", default_trees())),
        layers.median("core.prepare_ms", "ms"),
        layers.median("core.execute_ms", "ms"),
        layers.median("core.key_schedule_ms", "ms"),
        layers.median("coding.extract_us", "us"),
        layers.median("congest.exchange_ns_per_arc", "ns/arc"),
        Metric::new("congest.words", words as f64, "count", 1).note("sum over cells"),
        Metric::new("congest.corrupted_messages", corrupted as f64, "count", 1)
            .note("sum over cells"),
        layers.median("interactive.schedule_ms", "ms"),
        layers.median("coding.rs_decode_us", "us"),
        layers
            .median("coding.addmul_gf256_mb_s", "MB/s")
            .note(format!("median, backend {}", kernels::gf256_backend())),
        layers.median("coding.addmul_gf2_16_mb_s", "MB/s"),
        layers.median("async_exec.execute_ms", "ms"),
        layers.median("campaignd.submit_ms", "ms"),
        layers.median("campaignd.status_ms", "ms"),
        layers.median("campaignd.first_batch_s", "s"),
        obs_metric("obs.correction_ms", "correction"),
        obs_metric("obs.round_exchange_ms", "round_exchange"),
        obs_metric("obs.key_schedule_ms", "key_schedule"),
        obs_metric("obs.packing_ms", "packing"),
        Metric::new("obs.traced_run_s", traced_run_s, "s", 1).note("traced campaign wall time"),
    ];
    eprintln!("{passes} passes in {:.1} s", start.elapsed().as_secs_f64());
    Ok(Outcome {
        correct,
        tally,
        metrics,
    })
}

/// Submit the spec to a fresh `campaignd`, timing the submit, every status
/// poll and the first stored batch; the finished job's report fingerprint
/// must equal the in-process one.
fn server_layer(text: &str, expected: &str, layers: &mut Samples) -> Result<bool, String> {
    let dir = data_root().join("traced");
    let mut config = Config::new(&dir);
    config.workers = threads();
    config.quiet = true;
    let server = campaignd::start(config)?;
    let client = Client::new(server.addr().to_string());
    let accepted = layers.time("campaignd.submit_ms", || client.submit(text))?;
    let submitted = Instant::now();
    let mut first_batch = false;
    let done = loop {
        let status = layers.time("campaignd.status_ms", || {
            client.status(&accepted.fingerprint)
        })?;
        if !first_batch && status.cells_done > 0 {
            layers.push("campaignd.first_batch_s", submitted.elapsed().as_secs_f64());
            first_batch = true;
        }
        if status.state.is_terminal() {
            break status;
        }
        std::thread::sleep(STATUS_POLL);
    };
    let _ = std::fs::remove_dir_all(data_root());
    let ok = done.state == JobState::Done && done.report_fingerprint.as_deref() == Some(expected);
    if !ok {
        eprintln!(
            "traced server job ended {} with report fingerprint {:?}, expected {expected}",
            done.state.label(),
            done.report_fingerprint
        );
    }
    Ok(ok)
}

/// Decode RS codewords at the tree-packing compiler's parameters (`k` trees,
/// `ℓ = k / 4` data symbols) with as many symbol errors as the code
/// corrects; every decode must return the message.
fn rs_decode(layers: &mut Samples, words: &mut Words) -> Result<bool, String> {
    let k = default_trees();
    let rs = ReedSolomon::<Gf2_16>::new((k / 4).max(1), k).map_err(|e| format!("{e:?}"))?;
    let mut ok = true;
    for _ in 0..64 {
        let message: Vec<Gf2_16> = (0..rs.message_len())
            .map(|_| Gf2_16::from_u64(words.next()))
            .collect();
        let mut received = rs.encode(&message).map_err(|e| format!("{e:?}"))?;
        for i in 0..rs.error_capacity() {
            let at = (words.next() as usize % k + i) % k;
            received[at] = received[at] + Gf2_16::from_u64(1 + words.next() % 0xFFFE);
        }
        let t = Instant::now();
        let decoded = rs.decode(black_box(&received));
        layers.push("coding.rs_decode_us", t.elapsed().as_secs_f64() * 1e6);
        ok &= decoded.as_deref() == Ok(&message[..]);
    }
    if !ok {
        eprintln!("an RS decode within the error capacity returned the wrong message");
    }
    Ok(ok)
}

/// Throughput of the selected `addmul` kernels over 64 KiB buffers.
fn gf_kernels(layers: &mut Samples, words: &mut Words) {
    let mb = (KERNEL_BYTES * KERNEL_CALLS) as f64 / 1e6;
    let src: Vec<u8> = (0..KERNEL_BYTES).map(|_| words.next() as u8).collect();
    let mut dst = vec![0u8; KERNEL_BYTES];
    for _ in 0..8 {
        let c = (words.next() % 255 + 1) as u8;
        let t = Instant::now();
        for _ in 0..KERNEL_CALLS {
            kernels::gf256_addmul(black_box(&mut dst), black_box(&src), c);
        }
        layers.push("coding.addmul_gf256_mb_s", mb / t.elapsed().as_secs_f64());
    }
    let src: Vec<Gf2_16> = (0..KERNEL_BYTES / 2)
        .map(|_| Gf2_16::from_u64(words.next()))
        .collect();
    let mut dst = vec![Gf2_16::from_u64(0); KERNEL_BYTES / 2];
    for _ in 0..8 {
        let c = Gf2_16::from_u64(words.next() % 0xFFFF + 1);
        let t = Instant::now();
        for _ in 0..KERNEL_CALLS {
            Gf2_16::addmul_slice(black_box(&mut dst), black_box(&src), c);
        }
        layers.push("coding.addmul_gf2_16_mb_s", mb / t.elapsed().as_secs_f64());
    }
    black_box(&dst);
}
