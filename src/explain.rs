//! Multi-line plan rendering with cardinality estimates — the
//! `EXPLAIN` half of the CLI and a debugging aid for optimizer work.

use sjos_core::CostModel;
use sjos_exec::{JoinAlgo, PlanNode};
use sjos_pattern::{Axis, NodeSet, Pattern};
use sjos_stats::PatternEstimates;

/// Render `plan` as an indented tree, annotating every operator with
/// the estimated output cardinality and cost contribution under
/// `model`, e.g.:
///
/// ```text
/// STJ-D manager//employee            ~9037 rows  ordered by employee
/// ├─ Scan manager                     ~750 rows
/// └─ Scan employee                   ~1125 rows
/// ```
pub fn explain(
    plan: &PlanNode,
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
) -> String {
    let mut out = String::new();
    render(plan, pattern, estimates, model, "", "", &mut out);
    out
}

fn node_label(pattern: &Pattern, id: sjos_pattern::PnId) -> String {
    format!("{}#{}", pattern.node(id).tag, id.0)
}

fn render(
    plan: &PlanNode,
    pattern: &Pattern,
    estimates: &PatternEstimates,
    model: &CostModel,
    prefix: &str,
    child_prefix: &str,
    out: &mut String,
) {
    let (cost, rows) = model.plan_cost(plan, pattern, estimates);
    let line = match plan {
        PlanNode::IndexScan { pnode } => {
            let mut s = format!("Scan {}", node_label(pattern, *pnode));
            if pattern.node(*pnode).predicate.is_some() {
                s.push_str(" [filtered]");
            }
            s
        }
        PlanNode::Sort { by, .. } => {
            format!("Sort by {}", node_label(pattern, *by))
        }
        PlanNode::StructuralJoin { anc, desc, axis, algo, .. } => {
            let alg = match algo {
                JoinAlgo::StackTreeAnc => "STJ-Anc",
                JoinAlgo::StackTreeDesc => "STJ-Desc",
                JoinAlgo::MergeJoin => "MPMGJN",
            };
            let ax = match axis {
                Axis::Child => "/",
                Axis::Descendant => "//",
            };
            format!("{alg} {}{ax}{}", node_label(pattern, *anc), node_label(pattern, *desc))
        }
    };
    let ordered = node_label(pattern, plan.ordered_by());
    out.push_str(&format!(
        "{prefix}{line:<40} ~{rows:.0} rows  cost {cost:.0}  ordered by {ordered}\n"
    ));
    let children: Vec<&PlanNode> = match plan {
        PlanNode::IndexScan { .. } => vec![],
        PlanNode::Sort { input, .. } => vec![input],
        PlanNode::StructuralJoin { left, right, .. } => vec![left, right],
    };
    let n = children.len();
    for (i, child) in children.into_iter().enumerate() {
        let last = i + 1 == n;
        let (head, tail) = if last {
            (format!("{child_prefix}└─ "), format!("{child_prefix}   "))
        } else {
            (format!("{child_prefix}├─ "), format!("{child_prefix}│  "))
        };
        render(child, pattern, estimates, model, &head, &tail, out);
    }
}

/// A one-paragraph summary of an executed query: plan class, work
/// counters, materialized result bytes, and storage traffic. The
/// `EXPLAIN ANALYZE` companion to [`explain`]. The counters are
/// flushed batch-at-a-time by the vectorized operators but their
/// totals are exact per tuple. When a sort spilled, a second segment
/// reports the external-sort traffic; in-memory executions keep the
/// classic one-line shape.
pub fn analyze_summary(result: &sjos_exec::QueryResult) -> String {
    let m = &result.metrics;
    let mut s = format!(
        "matches: {}  | operator tuples: {} | scanned: {} | stack push/pop: {}/{} | \
         buffered pairs: {} | rescans: {} | sorts: {} ({} tuples) | peak buffered: {} B | \
         result: {} B | io: {} hits, {} reads, {} evictions | elapsed: {:.3} ms",
        m.output_tuples,
        m.produced_tuples,
        m.scanned_records,
        m.stack_pushes,
        m.stack_pops,
        m.buffered_pairs,
        m.merge_rescans,
        m.sort_operations,
        m.sorted_tuples,
        m.peak_bytes,
        result.result_bytes(),
        result.io.buffer_hits,
        result.io.disk_reads,
        result.io.evictions,
        result.elapsed.as_secs_f64() * 1e3,
    );
    if m.spilled_runs > 0 {
        s.push_str(&format!(
            " | spill: {} runs, {} B, {} merge passes, {} pages written, {} pages read",
            m.spilled_runs,
            m.spilled_bytes,
            m.spill_merge_passes,
            result.io.spill_page_writes,
            result.io.spill_page_reads,
        ));
    }
    s
}

/// Sanity helper: estimated rows of the full pattern (what `explain`
/// shows at the plan root).
pub fn estimated_matches(pattern: &Pattern, estimates: &PatternEstimates) -> f64 {
    estimates.cluster_cardinality(pattern, NodeSet::full(pattern.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, Database};

    fn setup() -> (Database, Pattern) {
        let db =
            Database::from_xml("<dept><emp><name>a</name></emp><emp><name>b</name></emp></dept>")
                .unwrap();
        let pattern = crate::parse_pattern("//dept/emp/name").unwrap();
        (db, pattern)
    }

    #[test]
    fn explain_renders_every_operator() {
        let (db, pattern) = setup();
        let optimized = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
        let est = db.estimates(&pattern);
        let text = explain(&optimized.plan, &pattern, &est, db.cost_model());
        assert_eq!(text.matches("Scan").count(), 3, "three scans expected:\n{text}");
        assert!(text.contains("STJ-"), "{text}");
        assert!(text.contains("rows"), "{text}");
        assert!(text.contains("dept#0"), "{text}");
    }

    #[test]
    fn explain_marks_filtered_scans() {
        let db = Database::from_xml("<e><n>x</n><n>y</n></e>").unwrap();
        let pattern = crate::parse_pattern("//e/n[text()='x']").unwrap();
        let optimized = db.optimize(&pattern, Algorithm::Fp).unwrap();
        let est = db.estimates(&pattern);
        let text = explain(&optimized.plan, &pattern, &est, db.cost_model());
        assert!(text.contains("[filtered]"), "{text}");
    }

    #[test]
    fn analyze_summary_reports_counters() {
        let (db, _) = setup();
        let out = db.query("//dept/emp/name").unwrap();
        let s = analyze_summary(&out.result);
        assert!(s.contains("matches: 2"), "{s}");
        assert!(s.contains("peak buffered"), "{s}");
        assert!(s.contains(&format!("result: {} B", out.result.result_bytes())), "{s}");
        assert!(out.result.result_bytes() > 0, "{s}");
        assert!(s.contains("elapsed"), "{s}");
    }

    #[test]
    fn analyze_summary_reports_spill_traffic_only_when_spilled() {
        use std::sync::Arc;

        use sjos_exec::{JoinAlgo, PlanNode, QueryGuard, SpillPolicy};
        use sjos_pattern::{Axis, PnId};

        let mut xml = String::from("<dept>");
        for _ in 0..3_000 {
            xml.push_str("<emp/>");
        }
        xml.push_str("</dept>");
        let db = Database::from_xml(&xml).unwrap();
        let pattern = crate::parse_pattern("//dept//emp").unwrap();
        let inner = PlanNode::StructuralJoin {
            left: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
            right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Descendant,
            algo: JoinAlgo::StackTreeDesc,
        };
        let plan = PlanNode::Sort { input: Box::new(inner), by: PnId(0) };
        let guard = Arc::new(QueryGuard::unlimited());
        let spilled = sjos_exec::execute_guarded_spill(
            db.store(),
            &pattern,
            &plan,
            &guard,
            SpillPolicy::with_threshold(0),
        )
        .unwrap();
        let s = analyze_summary(&spilled);
        assert!(s.contains("spill:"), "{s}");
        assert!(s.contains("pages written"), "{s}");

        let resident = sjos_exec::execute(db.store(), &pattern, &plan).unwrap();
        let s = analyze_summary(&resident);
        assert!(!s.contains("spill:"), "in-memory summary must keep the classic shape: {s}");
    }

    #[test]
    fn estimated_matches_is_positive_for_matching_patterns() {
        let (db, pattern) = setup();
        let est = db.estimates(&pattern);
        assert!(estimated_matches(&pattern, &est) > 0.0);
    }
}
