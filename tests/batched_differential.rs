//! Differential testing of the batched executor: over seeded generated
//! documents, every optimizer's plan — plus seeded random valid plans —
//! executed at several batch granularities must return exactly the
//! bindings the naive navigational evaluator finds, and the stack
//! traffic counters must not move with the batch size. The
//! materialized result set must hold exactly the root's row stream,
//! in order, whatever the batch size and thread count.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sjos::core::random_plan;
use sjos::datagen::{
    dblp::dblp, fold_document, mbench::mbench, paper_queries, pers::pers, DataSet, GenConfig,
};
use sjos::{Algorithm, Database, PlanNode, QueryGuard};
use sjos_exec::{
    execute_parallel_opts, execute_with_batch_rows, naive, ParallelPolicy, Tuple, BATCH_ROWS,
};

/// Granularities under test: the tuple-at-a-time degenerate case, an
/// awkward size that never divides the row counts, and production.
const BATCH_SIZES: [usize; 3] = [1, 3, BATCH_ROWS];

fn optimizers() -> Vec<Algorithm> {
    vec![
        Algorithm::Dp,
        Algorithm::Dpp { lookahead: true },
        Algorithm::DpapEb { te: 2 },
        Algorithm::DpapLd,
        Algorithm::Fp,
    ]
}

fn check(db: &Database, query: &str, seed: u64) {
    let pattern = sjos::parse_pattern(query).unwrap();
    let expected = naive::evaluate(db.document(), &pattern);

    let mut plans: Vec<(String, PlanNode)> = optimizers()
        .into_iter()
        .map(|alg| (alg.name().to_string(), db.optimize(&pattern, alg).unwrap().plan))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..2 {
        plans.push((format!("random#{i}"), random_plan(&pattern, &mut rng)));
    }

    for (name, plan) in &plans {
        let mut stack_traffic = Vec::new();
        for &rows in &BATCH_SIZES {
            let result = execute_with_batch_rows(db.store(), &pattern, plan, rows)
                .unwrap_or_else(|e| panic!("{query} via {name}: {e}"));
            assert_eq!(
                result.canonical_rows(),
                expected,
                "{query} via {name} at batch_rows={rows} (seed {seed})"
            );
            stack_traffic.push((result.metrics.stack_pushes, result.metrics.stack_pops));
        }
        assert!(
            stack_traffic.windows(2).all(|w| w[0] == w[1]),
            "{query} via {name}: stack traffic varies with batch size: {stack_traffic:?}"
        );
    }
}

#[test]
fn pers_documents_across_seeds() {
    for seed in [1u64, 7, 42] {
        let db = Database::from_document(pers(GenConfig { target_nodes: 1_200, seed }));
        check(&db, "//manager//employee/name", seed);
        check(&db, "//manager[.//employee/name][./department/name]", seed);
        check(&db, "//manager//manager//employee", seed);
    }
}

#[test]
fn dblp_documents_across_seeds() {
    for seed in [3u64, 11] {
        let db = Database::from_document(dblp(GenConfig { target_nodes: 1_500, seed }));
        check(&db, "//dblp/article[./author][./title]", seed);
        check(&db, "//dblp[./article/author][./inproceedings/title]", seed);
    }
}

#[test]
fn mbench_documents_across_seeds() {
    for seed in [5u64, 23] {
        let db = Database::from_document(mbench(GenConfig { target_nodes: 1_000, seed }));
        check(&db, "//eNest/eNest/eOccasional", seed);
        check(&db, "//mbench/eNest//eOccasional", seed);
    }
}

#[test]
fn value_predicates_across_batch_sizes() {
    let db = Database::from_document(pers(GenConfig { target_nodes: 1_500, seed: 9 }));
    check(&db, "//department[./name[text()='sales']]/employee/name", 9);
}

/// The result set keeps the root's batches instead of copying rows
/// out: for every Table-1 query, at every batch size and at 1 and 2
/// threads, its row sequence must equal the row-major flattening of
/// the root's batch stream, row for row and in the same order.
#[test]
fn result_set_rows_equal_the_flattened_root_stream() {
    for ds in [DataSet::Mbench, DataSet::Dblp, DataSet::Pers] {
        // Folded, so the 2-thread runs split into morsels.
        let doc = match ds {
            DataSet::Mbench => mbench(GenConfig::sized(700)),
            DataSet::Dblp => dblp(GenConfig::sized(700)),
            DataSet::Pers => pers(GenConfig::sized(600)),
        };
        let db = Database::from_document(fold_document(&doc, 4));
        let mut split = false;
        for q in paper_queries().into_iter().filter(|q| q.dataset == ds) {
            let pattern = q.pattern();
            let plan = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap().plan;
            let stream = db.execute_batches(&pattern, &plan).unwrap();
            let flat: Vec<Tuple> =
                stream.batches.iter().flat_map(|b| (0..b.len()).map(move |r| b.row(r))).collect();
            for batch_rows in BATCH_SIZES {
                for threads in [1, 2] {
                    let out = execute_parallel_opts(
                        db.store(),
                        &pattern,
                        &plan,
                        true,
                        batch_rows,
                        &Arc::new(QueryGuard::unlimited()),
                        ParallelPolicy::with_threads(threads),
                    )
                    .unwrap_or_else(|e| panic!("{} @ {threads}t/{batch_rows}b: {e}", q.id));
                    split |= out.morsel_count() > 1;
                    let rows = &out.result.tuples;
                    assert_eq!(rows.len(), flat.len(), "{} @ {threads}t/{batch_rows}b", q.id);
                    assert!(
                        rows.iter().map(|r| r.to_tuple()).eq(flat.iter().cloned()),
                        "{} @ {threads}t/{batch_rows}b: row sequence diverged",
                        q.id
                    );
                }
            }
        }
        assert!(split, "{}: no 2-thread run split into morsels", ds.name());
    }
}
