//! `spill` — cost and correctness of the spill-to-disk external sort.
//!
//! Sort-rooted plans over wide flat corpora, executed three ways per
//! corpus: fully in memory (the baseline), in spill mode under a
//! *starved* budget equal to the spill-mode certificate (every run
//! goes to temp pages — the degraded-admission worst case), and in
//! spill mode under a mid-point budget (some runs spill). Every
//! execution is checked against the in-memory answer and against its
//! statically certified resident bound; the headline output is
//! `BENCH_spill.json`: slowdown vs. the in-memory sort, temp-page
//! traffic, and merge-pass counts per corpus and budget.
//!
//! ```sh
//! cargo run --release -p sjos-bench --bin spill             # full run
//! cargo run --release -p sjos-bench --bin spill -- --smoke  # CI smoke
//! ```
//!
//! `--smoke` runs one small corpus once and exits nonzero unless at
//! least one query actually spilled, zero executions escaped their
//! certified resident bound, answers stayed bit-identical, and zero
//! temp pages were left live in the spill segment.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sjos::pattern::PnId;
use sjos::{Database, PlanNode, QueryGuard, SpillPolicy, BATCH_ROWS};
use sjos_exec::JoinAlgo;
use sjos_pattern::Axis;
use sjos_xml::{Document, DocumentBuilder};

struct Args {
    smoke: bool,
    reps: usize,
    sizes: Vec<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { smoke: false, reps: 5, sizes: vec![50_000, 200_000] };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--reps" => {
                args.reps = it
                    .next()
                    .ok_or("--reps needs a count")?
                    .parse()
                    .map_err(|_| "bad rep count")?;
            }
            "--sizes" => {
                args.sizes = it
                    .next()
                    .ok_or("--sizes needs a list")?
                    .split(',')
                    .map(|t| t.parse().map_err(|_| format!("bad size {t:?}")))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unrecognized argument `{other}`")),
        }
    }
    if args.smoke {
        args.reps = 2;
        args.sizes = vec![20_000];
    }
    Ok(args)
}

/// A flat document whose single sort materializes `emps` rows of
/// width 2 — the shape where the spill cap bites hardest.
fn wide_doc(emps: usize) -> Document {
    let mut b = DocumentBuilder::new();
    b.start_element("db");
    b.start_element("dept");
    for _ in 0..emps {
        b.start_element("emp");
        b.end_element();
    }
    b.end_element();
    b.end_element();
    b.finish()
}

/// Sort over a descendant join: the optimizers avoid this shape on
/// purpose (stack-tree ordering makes most sorts redundant), so the
/// bench plants it to measure the external sort in isolation.
fn sort_plan() -> PlanNode {
    let inner = PlanNode::StructuralJoin {
        left: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
        right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
        anc: PnId(0),
        desc: PnId(1),
        axis: Axis::Descendant,
        algo: JoinAlgo::StackTreeDesc,
    };
    PlanNode::Sort { input: Box::new(inner), by: PnId(0) }
}

struct RunOutcome {
    corpus_emps: usize,
    mode: String,
    budget_bytes: u64,
    certified_peak: u64,
    reps: usize,
    rows_out: u64,
    best_secs: f64,
    rows_per_sec: f64,
    resident_peak: u64,
    spilled_runs: u64,
    spilled_bytes: u64,
    merge_passes: u64,
    spill_page_writes: u64,
    spill_page_reads: u64,
    bound_violations: u64,
    mismatches: u64,
    leaked_temp_pages: u64,
}

impl RunOutcome {
    fn to_json(&self) -> String {
        format!(
            "{{\"corpus_emps\":{},\"mode\":\"{}\",\"budget_bytes\":{},\
             \"certified_peak_bytes\":{},\"reps\":{},\"rows_out\":{},\
             \"best_secs\":{:.4},\"rows_per_sec\":{:.0},\"resident_peak_bytes\":{},\
             \"spilled_runs\":{},\"spilled_bytes\":{},\"merge_passes\":{},\
             \"spill_page_writes\":{},\"spill_page_reads\":{},\
             \"bound_violations\":{},\"mismatches\":{},\"leaked_temp_pages\":{}}}",
            self.corpus_emps,
            self.mode,
            self.budget_bytes,
            self.certified_peak,
            self.reps,
            self.rows_out,
            self.best_secs,
            self.rows_per_sec,
            self.resident_peak,
            self.spilled_runs,
            self.spilled_bytes,
            self.merge_passes,
            self.spill_page_writes,
            self.spill_page_reads,
            self.bound_violations,
            self.mismatches,
            self.leaked_temp_pages
        )
    }
}

/// Execute the sort plan `reps` times under one (budget, policy)
/// configuration, checking every answer against `baseline` and every
/// measured resident peak against `certified`.
#[allow(clippy::too_many_arguments)]
fn run_mode(
    db: &Database,
    emps: usize,
    mode: &str,
    budget: Option<usize>,
    policy: Option<SpillPolicy>,
    certified: u64,
    reps: usize,
    baseline: &sjos_exec::ResultSet,
) -> RunOutcome {
    let pattern = sjos::parse_pattern("//db//emp").expect("pattern parses");
    let plan = sort_plan();
    let mut out = RunOutcome {
        corpus_emps: emps,
        mode: mode.to_string(),
        budget_bytes: budget.map_or(0, |b| b as u64),
        certified_peak: certified,
        reps,
        rows_out: 0,
        best_secs: f64::INFINITY,
        rows_per_sec: 0.0,
        resident_peak: 0,
        spilled_runs: 0,
        spilled_bytes: 0,
        merge_passes: 0,
        spill_page_writes: 0,
        spill_page_reads: 0,
        bound_violations: 0,
        mismatches: 0,
        leaked_temp_pages: 0,
    };
    for _ in 0..reps {
        let mut guard = QueryGuard::unlimited();
        if let Some(b) = budget {
            guard = guard.with_memory_budget(b);
        }
        let guard = Arc::new(guard);
        let started = Instant::now();
        let result = match policy {
            Some(p) => sjos_exec::execute_guarded_spill(db.store(), &pattern, &plan, &guard, p),
            None => sjos_exec::execute_guarded(db.store(), &pattern, &plan, &guard),
        }
        .expect("bench execution completes");
        let secs = started.elapsed().as_secs_f64();
        out.best_secs = out.best_secs.min(secs);
        out.rows_out = result.metrics.output_tuples;
        out.resident_peak = out.resident_peak.max(result.metrics.peak_bytes);
        out.spilled_runs += result.metrics.spilled_runs;
        out.spilled_bytes += result.metrics.spilled_bytes;
        out.merge_passes += result.metrics.spill_merge_passes;
        out.spill_page_writes += result.io.spill_page_writes;
        out.spill_page_reads += result.io.spill_page_reads;
        if result.metrics.peak_bytes > certified {
            out.bound_violations += 1;
        }
        if result.tuples != *baseline {
            out.mismatches += 1;
        }
    }
    out.leaked_temp_pages = db.store().spill().live_pages();
    if out.best_secs > 0.0 {
        out.rows_per_sec = out.rows_out as f64 / out.best_secs;
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: spill [--smoke] [--reps <n>] [--sizes <a,b,c>]");
            return ExitCode::from(2);
        }
    };
    println!(
        "spill bench: sort-rooted plans, corpora {:?}, {} reps{}",
        args.sizes,
        args.reps,
        if args.smoke { " [smoke]" } else { "" }
    );

    let pattern = sjos::parse_pattern("//db//emp").expect("pattern parses");
    let plan = sort_plan();
    let mut outcomes: Vec<RunOutcome> = Vec::new();
    for &emps in &args.sizes {
        let db = Database::from_document(wide_doc(emps));
        let full = db.resource_bounds(&pattern, &plan);
        let floor = db.resource_bounds_spill(&pattern, &plan, SpillPolicy::with_threshold(0));
        assert!(
            floor.peak_bytes < full.peak_bytes,
            "corpus of {emps} emps too small: spill floor {} ≥ full bound {}",
            floor.peak_bytes,
            full.peak_bytes
        );
        let baseline = db.execute(&pattern, &plan).expect("baseline run").tuples;

        // The degraded-admission arithmetic the service applies, end
        // to end: the in-memory certificate rejects at the floor
        // budget, the spill certificate admits.
        let floor_budget = usize::try_from(floor.peak_bytes).expect("budget fits usize");
        let in_memory = sjos::planck::admit(&full, Some(floor.peak_bytes), None);
        let degraded = sjos::planck::admit_spill(&floor, Some(floor.peak_bytes), None);
        assert!(!in_memory.is_clean(), "floor budget must reject the in-memory certificate");
        assert!(degraded.is_clean(), "floor budget must admit the spill certificate");

        let mid_budget = floor_budget
            + usize::try_from(full.peak_bytes - floor.peak_bytes).expect("gap fits usize") / 2;

        eprintln!(
            "corpus {emps} emps: in-memory bound {} B, spill floor {} B",
            full.peak_bytes, floor.peak_bytes
        );
        for (mode, budget, policy, certified) in [
            ("in-memory", None, None, full.peak_bytes),
            (
                "spill-floor",
                Some(floor_budget),
                SpillPolicy::for_budget(floor_budget, 2, BATCH_ROWS),
                floor.peak_bytes,
            ),
            ("spill-mid", Some(mid_budget), SpillPolicy::for_budget(mid_budget, 2, BATCH_ROWS), {
                let p = SpillPolicy::for_budget(mid_budget, 2, BATCH_ROWS)
                    .expect("mid budget admits a policy");
                db.resource_bounds_spill(&pattern, &plan, p).peak_bytes
            }),
        ] {
            if mode != "in-memory" {
                policy.expect("starved budget admits a policy");
            }
            let out = run_mode(&db, emps, mode, budget, policy, certified, args.reps, &baseline);
            println!(
                "  {emps:>7} emps {mode:>11}: {:>9.0} rows/s, resident peak {:>9} B, \
                 {} runs spilled, {} merge passes, {} violations, {} mismatches",
                out.rows_per_sec,
                out.resident_peak,
                out.spilled_runs,
                out.merge_passes,
                out.bound_violations,
                out.mismatches
            );
            outcomes.push(out);
        }
    }

    let spilled: u64 = outcomes.iter().map(|o| o.spilled_runs).sum();
    let violations: u64 = outcomes.iter().map(|o| o.bound_violations).sum();
    let mismatches: u64 = outcomes.iter().map(|o| o.mismatches).sum();
    let leaked: u64 = outcomes.iter().map(|o| o.leaked_temp_pages).sum();

    if args.smoke {
        // The CI gate: spilling must actually happen, stay inside its
        // certificate, change nothing, and clean up after itself.
        if spilled == 0 {
            eprintln!("SMOKE FAIL: no execution ever spilled a run");
            return ExitCode::FAILURE;
        }
        if violations > 0 {
            eprintln!("SMOKE FAIL: {violations} resident peaks escaped their certified bounds");
            return ExitCode::FAILURE;
        }
        if mismatches > 0 {
            eprintln!("SMOKE FAIL: {mismatches} spilling executions changed the answer");
            return ExitCode::FAILURE;
        }
        if leaked > 0 {
            eprintln!("SMOKE FAIL: {leaked} temp pages left live in the spill segment");
            return ExitCode::FAILURE;
        }
        println!("smoke ok: {spilled} runs spilled, 0 violations, 0 mismatches, 0 leaks");
        return ExitCode::SUCCESS;
    }

    let rows: Vec<String> = outcomes.iter().map(RunOutcome::to_json).collect();
    let json = format!(
        "{{\n  \"bench\":\"spill\",\n  \"reps\":{},\n  \"runs\":[\n    {}\n  ]\n}}\n",
        args.reps,
        rows.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_spill.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    if violations > 0 || mismatches > 0 || leaked > 0 {
        eprintln!(
            "FAIL: {violations} bound violations, {mismatches} mismatches, {leaked} leaked pages"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
