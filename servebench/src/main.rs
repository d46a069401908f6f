//! `servebench` — drive `sjos::QueryService` with one seeded,
//! closed-loop workload and print its metrics.
//!
//! ```sh
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload pers-mix --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! stream untraced for the first half of `--seconds` and replayed step
//! by step under spans for the second half, and prints the per-layer
//! metrics. The last line of standard output is
//! one JSON object; a human-readable table goes to standard error.
//! `--record <file>` appends the run's values and provenance to
//! `<file>` as one JSON line (full-length runs only). The exit code is
//! non-zero when any answer differs from its reference.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use servebench::replay::{Outcome, Replay};
use servebench::trace::{check_accounting, write_spans, Span, Tracer};
use servebench::workload::{name_literals, stream, Query, Workload};
use servebench::{median, quantile, Answer};
use sjos::stats::Catalog;
use sjos::storage::XmlStore;
use sjos::xml::Document;
use sjos::{CostModel, Database, QueryService, ServiceError};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Queries pre-generated per session (a stream wraps around after).
const STREAM_LEN: usize = 4_096;
/// Shortest run whose values `--record` accepts: `run_seconds` in
/// `BENCHMARK.json`.
const FULL_RUN_SECONDS: u64 = 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut record = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: bad number {value:?}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            "--record" => record = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    };
    if args.record.is_some() && args.seconds < FULL_RUN_SECONDS {
        return Err(format!(
            "--record keeps full runs only: --seconds must be at least {FULL_RUN_SECONDS}"
        ));
    }
    Ok(args)
}

/// Everything a run needs, built before any timing starts.
struct Bench {
    workload: Workload,
    service: QueryService,
    streams: Vec<Vec<Query>>,
    references: HashMap<String, Answer>,
    setup: Vec<f64>,
}

fn prepare(args: &Args) -> Result<Bench, String> {
    let workload = args.workload;
    let doc = workload.document();
    let literals = name_literals(&doc);
    let text = sjos::xml::serialize::to_xml(&doc);
    drop(doc);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut service = None;
    for _ in 0..SETUP_REPS {
        drop(service.take());
        let started = Instant::now();
        let doc = Document::parse(&text).map_err(|e| e.to_string())?;
        let db = Database::from_document_with(doc, workload.store_config(), CostModel::default());
        let built = QueryService::new(Arc::new(db), workload.service_config());
        setup.push(started.elapsed().as_secs_f64());
        service = Some(built);
    }
    let service = service.expect("at least one set-up");
    let streams: Vec<Vec<Query>> = (0..workload.sessions())
        .map(|s| stream(workload, &literals, args.seed, s, STREAM_LEN))
        .collect();
    // References for every Table-1 query now; lookups (whose count
    // grows with the run) are checked after the timed window.
    let mut references = HashMap::new();
    for q in streams.iter().flatten().filter(|q| !q.is_lookup()) {
        if !references.contains_key(&q.text) {
            let answer = Answer::reference(service.database(), &q.text)
                .map_err(|e| format!("reference for {}: {e}", q.label))?;
            references.insert(q.text.clone(), answer);
        }
    }
    Ok(Bench { workload, service, streams, references, setup })
}

/// How one query ended, as the client saw it.
#[derive(Debug)]
enum Served {
    /// Rows in hand (checked against the reference afterwards).
    Rows(Answer),
    /// Admission control turned the query away.
    Refused,
    /// The engine failed.
    Errored(String),
}

#[derive(Debug)]
struct Sample {
    query: Query,
    latency: Duration,
    /// Completion time, from the start of the timed window.
    done: Duration,
    served: Served,
}

/// Run every session's stream through the service until `seconds`
/// have passed; returns the samples and the wall time.
fn run_service(bench: &Bench, seconds: u64) -> (Vec<Sample>, f64) {
    let sessions = bench.streams.len();
    let barrier = Barrier::new(sessions + 1);
    let (samples, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = bench
            .streams
            .iter()
            .map(|queries| {
                let session = bench.service.session();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs(seconds);
                    let mut samples = Vec::new();
                    for query in queries.iter().cycle() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let started = Instant::now();
                        let outcome = session.query_with(&query.text, query.algorithm);
                        let latency = started.elapsed();
                        let served = match outcome {
                            Ok(out) => {
                                Served::Rows(Answer { rows: out.result.tuples.len(), digest: 0 })
                            }
                            Err(ServiceError::Overloaded(_)) => Served::Refused,
                            Err(e) => Served::Errored(e.to_string()),
                        };
                        let done = start.elapsed();
                        samples.push(Sample { query: query.clone(), latency, done, served });
                    }
                    samples
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let samples: Vec<Sample> =
            handles.into_iter().flat_map(|h| h.join().expect("session thread panicked")).collect();
        (samples, started.elapsed().as_secs_f64())
    });
    (samples, wall)
}

/// Outcome counts of a run, after checking answers.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    answered: u64,
    refused: u64,
    errored: u64,
    wrong: u64,
}

impl Tally {
    fn failed(&self) -> u64 {
        self.errored + self.wrong
    }
}

/// Check each answer against its reference (computing missing ones
/// now, outside timing); `digests` also compares row digests.
fn tally<'a>(
    bench: &mut Bench,
    results: impl Iterator<Item = (&'a Query, &'a Served)>,
    digests: bool,
) -> Result<Tally, String> {
    let mut t = Tally::default();
    for (query, served) in results {
        t.attempted += 1;
        match served {
            Served::Refused => t.refused += 1,
            Served::Errored(e) => {
                t.errored += 1;
                eprintln!("error: {}: {e}", query.text);
            }
            Served::Rows(got) => {
                if !bench.references.contains_key(&query.text) {
                    let answer = Answer::reference(bench.service.database(), &query.text)
                        .map_err(|e| format!("reference for {}: {e}", query.text))?;
                    bench.references.insert(query.text.clone(), answer);
                }
                let want = bench.references[&query.text];
                if got.rows != want.rows || (digests && got.digest != want.digest) {
                    t.wrong += 1;
                    eprintln!("wrong answer: {}: got {got:?}, want {want:?}", query.text);
                } else {
                    t.answered += 1;
                }
            }
        }
    }
    Ok(t)
}

/// One named metric with its unit.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(bench: &mut Bench, args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let (samples, wall) = run_service(bench, args.seconds);
    let t = tally(bench, samples.iter().map(|s| (&s.query, &s.served)), false)?;
    let mut served: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.served, Served::Rows(_)))
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    served.sort_by(f64::total_cmp);
    let mut windows = vec![0u32; (wall / 5.0).ceil() as usize];
    for s in &samples {
        if matches!(s.served, Served::Rows(_)) {
            windows[(s.done.as_secs_f64() / 5.0) as usize] += 1;
        }
    }
    eprintln!("completions per 5 s window: {windows:?}; set-ups {:?}", bench.setup);
    if served.len() < 200 {
        eprintln!("warning: {} completions; p95 wants at least 200", served.len());
    }
    let metrics = vec![
        metric("goodput_qps", "1/s", t.answered as f64 / wall),
        metric("latency_p50_ms", "ms", quantile(&served, 0.50)),
        metric("latency_p95_ms", "ms", quantile(&served, 0.95)),
        metric("answered_frac", "ratio", t.answered as f64 / t.attempted.max(1) as f64),
        metric("setup_s", "s", median(&bench.setup)),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    eprintln!(
        "{}: {} attempted, {} answered, {} refused, {} errored, {} wrong; {} completions in {wall:.2} s",
        bench.workload.name(),
        t.attempted,
        t.answered,
        t.refused,
        t.errored,
        t.wrong,
        served.len()
    );
    Ok((t, metrics))
}

/// What the traced run keeps per query besides its spans.
#[derive(Debug)]
struct TracedQuery {
    query: Query,
    served: Served,
    root: Duration,
    cache_hit: Option<bool>,
    plans_considered: Option<u64>,
    certified: u64,
    peak_bytes: u64,
    produced: u64,
    output: u64,
    morsels: usize,
    io: sjos::storage::IoSnapshot,
    exec_elapsed: Duration,
}

/// Replay every session's stream under spans until `seconds` have
/// passed.
fn run_traced(bench: &Bench, seconds: u64) -> Result<(Vec<TracedQuery>, Vec<Vec<Span>>), String> {
    let replay = Replay::new(Arc::clone(bench.service.database()), bench.workload.service_config());
    let threads = bench.workload.service_config().parallelism.max(1);
    let sessions = bench.streams.len();
    let barrier = Barrier::new(sessions);
    let epoch = Instant::now();
    let per_session = std::thread::scope(|scope| {
        let handles: Vec<_> = bench
            .streams
            .iter()
            .enumerate()
            .map(|(session, queries)| {
                let (replay, barrier) = (&replay, &barrier);
                scope.spawn(move || -> Result<_, String> {
                    let mut tracer = Tracer::new(epoch);
                    let mut out = Vec::new();
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs(seconds);
                    for (seq, query) in queries.iter().cycle().enumerate() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let id = ((session as u64) << 32) | seq as u64;
                        let root = tracer.open("query", id, None);
                        let outcome =
                            replay.serve(&mut tracer, id, root, &query.text, query.algorithm);
                        tracer.close(root);
                        let mut record = TracedQuery {
                            query: query.clone(),
                            served: Served::Refused,
                            root: tracer.spans()[root].duration(),
                            cache_hit: None,
                            plans_considered: None,
                            certified: 0,
                            peak_bytes: 0,
                            produced: 0,
                            output: 0,
                            morsels: 0,
                            io: Default::default(),
                            exec_elapsed: Duration::ZERO,
                        };
                        match outcome {
                            Err(e) => record.served = Served::Errored(e),
                            Ok(Outcome::Refused { cache_hit, .. }) => {
                                record.cache_hit = Some(cache_hit);
                            }
                            Ok(Outcome::Answered(a)) => {
                                let counted =
                                    replay.count(&mut tracer, id, "exec.count", &a, threads)?;
                                replay.count(&mut tracer, id, "exec.count_serial", &a, 1)?;
                                let m = &a.result.metrics;
                                record.cache_hit = Some(a.cache_hit);
                                record.plans_considered = a.plans_considered;
                                record.certified = a.certified;
                                record.peak_bytes = m.peak_bytes;
                                record.produced = m.produced_tuples;
                                record.output = m.output_tuples;
                                record.morsels = a.morsels;
                                record.io = a.io;
                                record.exec_elapsed = a.result.elapsed;
                                let answer = Answer::of(&a.result);
                                record.served = if counted == answer.rows as u64 {
                                    Served::Rows(answer)
                                } else {
                                    Served::Errored(format!(
                                        "counting run produced {counted} rows, materializing {}",
                                        answer.rows
                                    ))
                                };
                            }
                        }
                        out.push(record);
                    }
                    Ok((out, tracer.spans().to_vec()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect::<Vec<_>>()
    });
    let mut queries = Vec::new();
    let mut spans = Vec::new();
    for session in per_session {
        let (q, s) = session?;
        queries.extend(q);
        spans.push(s);
    }
    Ok((queries, spans))
}

/// Median of each set-up stage over `SETUP_REPS` traced set-ups: XML
/// parse, catalog build, store load (each its own public call).
fn traced_setup(workload: Workload) -> Result<[f64; 3], String> {
    let text = sjos::xml::serialize::to_xml(&workload.document());
    let mut stages = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let doc = Document::parse(&text).map_err(|e| e.to_string())?;
        stages[0].push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let catalog = Catalog::build(&doc);
        stages[1].push(started.elapsed().as_secs_f64() * 1e3);
        drop(catalog);
        let started = Instant::now();
        let store = XmlStore::load_with(doc, workload.store_config());
        stages[2].push(started.elapsed().as_secs_f64() * 1e3);
        drop(store);
    }
    Ok(stages.map(|s| median(&s)))
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        f64::NAN
    } else {
        num / den
    }
}

fn per_layer(bench: &mut Bench, args: &Args) -> Result<(Tally, Vec<Metric>), String> {
    let [parse_ms, catalog_ms, load_ms] = traced_setup(args.workload)?;
    // Untraced first, for the overhead baseline; then the same stream
    // replayed under spans.
    let half = (args.seconds / 2).max(1);
    let (baseline, _) = run_service(bench, half);
    let (traced, spans) = run_traced(bench, half)?;
    let t = tally(bench, traced.iter().map(|q| (&q.query, &q.served)), true)?;

    let mut accounting = servebench::trace::Accounting::default();
    for s in &spans {
        let a = check_accounting(s, "query").map_err(|e| format!("trace accounting: {e}"))?;
        accounting.roots += a.roots;
        accounting.root += a.root;
        accounting.children += a.children;
    }
    let all: Vec<&Span> = spans.iter().flatten().collect();
    let span_mean = |name: &str, scale: f64| {
        mean(all.iter().filter(|s| s.name == name).map(|s| s.duration().as_secs_f64() * scale))
    };
    // Planning steps take microseconds, so a rare stall would swamp
    // their mean: report the typical call.
    let span_median = |name: &str, scale: f64| {
        let d: Vec<f64> = all
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration().as_secs_f64() * scale)
            .collect();
        median(&d)
    };
    let span_sum = |name: &str| {
        all.iter().filter(|s| s.name == name).map(|s| s.duration().as_secs_f64()).sum::<f64>()
    };
    let answered: Vec<&TracedQuery> =
        traced.iter().filter(|q| matches!(q.served, Served::Rows(_))).collect();
    let n = answered.len() as f64;
    let io_sum = |f: fn(&sjos::storage::IoSnapshot) -> u64| {
        answered.iter().map(|q| f(&q.io) as f64).sum::<f64>()
    };
    let hits = io_sum(|io| io.buffer_hits);
    let reads = io_sum(|io| io.disk_reads);
    let looked_up: Vec<bool> = traced.iter().filter_map(|q| q.cache_hit).collect();
    let cert_ratios: Vec<f64> = answered
        .iter()
        .filter(|q| q.peak_bytes > 0)
        .map(|q| (q.certified as f64 / q.peak_bytes as f64).ln())
        .collect();

    // Overhead: traced root time against untraced latency, per query
    // label, weighted by the traced counts.
    let mut by_label: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in &baseline {
        if matches!(s.served, Served::Rows(_)) {
            by_label.entry(s.query.label).or_default().0.push(s.latency.as_secs_f64());
        }
    }
    for q in &answered {
        by_label.entry(q.query.label).or_default().1.push(q.root.as_secs_f64());
    }
    let (mut traced_time, mut untraced_time) = (0.0, 0.0);
    for (untraced, traced) in by_label.values() {
        if !untraced.is_empty() && !traced.is_empty() {
            traced_time += traced.iter().sum::<f64>();
            untraced_time += traced.len() as f64 * mean(untraced.iter().copied());
        }
    }

    let exec_ms = span_mean("exec.execute", 1e3);
    let join_ms = span_mean("exec.count", 1e3);
    let metrics = vec![
        metric("xml.parse_ms", "ms", parse_ms),
        metric("stats.catalog_build_ms", "ms", catalog_ms),
        metric("storage.load_ms", "ms", load_ms),
        metric("storage.hit_rate", "ratio", ratio(hits, hits + reads)),
        metric("storage.disk_reads_per_query", "count", ratio(reads, n)),
        metric("storage.evictions_per_query", "count", ratio(io_sum(|io| io.evictions), n)),
        metric("storage.record_reads_per_query", "count", ratio(io_sum(|io| io.record_reads), n)),
        metric("exec.join_ms", "ms", join_ms),
        metric("exec.materialize_ms", "ms", exec_ms - join_ms),
        metric(
            "exec.produced_per_output",
            "ratio",
            ratio(
                answered.iter().map(|q| q.produced as f64).sum(),
                answered.iter().map(|q| q.output as f64).sum(),
            ),
        ),
        metric(
            "exec.peak_bytes",
            "B",
            answered.iter().map(|q| q.peak_bytes as f64).fold(0.0, f64::max),
        ),
        metric("exec.parallel.morsels", "count", mean(answered.iter().map(|q| q.morsels as f64))),
        metric(
            "exec.parallel.speedup",
            "ratio",
            ratio(span_sum("exec.count_serial"), span_sum("exec.count")),
        ),
        metric(
            "service.outside_exec_frac",
            "ratio",
            1.0 - ratio(
                answered.iter().map(|q| q.exec_elapsed.as_secs_f64()).sum(),
                answered.iter().map(|q| q.root.as_secs_f64()).sum(),
            ),
        ),
        metric(
            "service.cache_hit_rate",
            "ratio",
            ratio(looked_up.iter().filter(|&&h| h).count() as f64, looked_up.len() as f64),
        ),
        metric("service.cache_lookup_us", "us", span_median("service.cache_get", 1e6)),
        metric("service.admission_wait_ms", "ms", span_median("service.admit", 1e3)),
        metric("pattern.parse_us", "us", span_median("pattern.parse", 1e6)),
        metric("stats.estimate_us", "us", span_median("stats.estimate", 1e6)),
        metric("core.optimize_us", "us", span_median("core.optimize", 1e6)),
        metric(
            "core.plans_considered",
            "count",
            mean(traced.iter().filter_map(|q| q.plans_considered.map(|p| p as f64))),
        ),
        metric("planck.certify_us", "us", span_median("planck.certify", 1e6)),
        metric("planck.refused_frac", "ratio", ratio(t.refused as f64, t.attempted as f64)),
        metric("planck.cert_over_measured", "ratio", mean(cert_ratios.iter().copied()).exp()),
        metric("trace.overhead_frac", "ratio", ratio(traced_time, untraced_time) - 1.0),
        metric("trace.unattributed_frac", "ratio", accounting.unattributed_frac()),
    ];

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload.name(), args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        write_spans(&mut file, &spans.iter().map(Vec::as_slice).collect::<Vec<_>>())?;
        std::io::Write::flush(&mut file)
    });
    match written {
        Ok(()) => eprintln!("{} spans written to {}", all.len(), path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
    eprintln!(
        "{} traced: {} attempted, {} answered, {} refused, {} errored, {} wrong",
        bench.workload.name(),
        t.attempted,
        t.answered,
        t.refused,
        t.errored,
        t.wrong
    );
    Ok((t, metrics))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn result_json(t: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        t.failed() == 0,
        t.attempted,
        t.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Output of `program args`, trimmed, or `unknown`.
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

fn record_run(
    path: &PathBuf,
    args: &Args,
    bench: &Bench,
    t: &Tally,
    result: &str,
) -> Result<(), String> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let root = root.to_string_lossy();
    let toplevel = command_output("git", &["-C", &root, "rev-parse", "--show-toplevel"]);
    let here = std::fs::canonicalize(&*root).map(|p| p.to_string_lossy().into_owned());
    let git_rev = if here.ok().as_deref() == Some(toplevel.as_str()) {
        command_output("git", &["-C", &root, "rev-parse", "HEAD"])
    } else {
        "unknown".to_owned()
    };
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |v| v.trim_start_matches([' ', '\t', ':']));
    let setup: Vec<String> = bench.setup.iter().map(|s| json_number(*s)).collect();
    let line = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"cpu\":\"{cpu}\",\"rustc\":\"{}\",\"git_rev\":\"{git_rev}\",\"refused\":{},\"errored\":{},\"wrong\":{},\
         \"setup_s_reps\":[{}],\"result\":{result}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        command_output("rustc", &["-V"]),
        t.refused,
        t.errored,
        t.wrong,
        setup.join(","),
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()))
        .map_err(|e| format!("recording to {}: {e}", path.display()))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let mut bench = prepare(&args)?;
    let (t, metrics) =
        if args.trace { per_layer(&mut bench, &args)? } else { end_to_end(&mut bench, &args)? };
    for m in &metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let result = result_json(&t, &metrics);
    if let Some(path) = &args.record {
        record_run(path, &args, &bench, &t, &result)?;
    }
    println!("{result}");
    Ok(t.failed() == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("servebench: some answers did not match their references");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}
