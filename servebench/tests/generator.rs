//! The seeded query streams and the traced replay's step sequence.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use servebench::replay::{Outcome, Replay};
use servebench::trace::{check_accounting, Span, Tracer};
use servebench::workload::{
    lookup_text, name_literals, stream, Query, Workload, LOOKUP, WORKLOADS,
};
use sjos::datagen::{paper_queries, pers::pers, GenConfig};
use sjos::{parse_pattern, Algorithm, Database, QueryService, ServiceConfig};

fn pers_literals() -> Vec<String> {
    name_literals(&Workload::PersMix.document())
}

fn render(queries: &[Query]) -> String {
    queries.iter().map(|q| format!("{:?} {} {}\n", q.algorithm, q.label, q.text)).collect()
}

#[test]
fn pers_corpus_has_the_documented_literals() {
    let doc = Workload::PersMix.document();
    assert_eq!(doc.len(), 49_991);
    assert_eq!(name_literals(&doc).len(), 266);
}

#[test]
fn same_seed_gives_a_byte_identical_stream() {
    let literals = pers_literals();
    for w in WORKLOADS {
        for session in 0..w.sessions() {
            let a = render(&stream(w, &literals, 7, session, 2_000));
            let b = render(&stream(w, &literals, 7, session, 2_000));
            assert_eq!(a, b, "{}", w.name());
        }
    }
}

#[test]
fn another_seed_draws_other_literals() {
    let literals = pers_literals();
    let lookups = |seed| -> Vec<String> {
        stream(Workload::PersMix, &literals, seed, 0, 500)
            .into_iter()
            .filter(Query::is_lookup)
            .map(|q| q.text)
            .collect()
    };
    assert_ne!(lookups(1), lookups(2));
    // Sessions of one seed send different streams too.
    assert_ne!(
        render(&stream(Workload::PersMix, &literals, 1, 0, 100)),
        render(&stream(Workload::PersMix, &literals, 1, 1, 100))
    );
    // Over many lookups most literals appear, so the plan cache sees
    // on the order of a thousand distinct lookup keys.
    let distinct: HashSet<String> = (0..8).flat_map(lookups).collect::<HashSet<_>>();
    assert!(distinct.len() > 500, "{} distinct lookups", distinct.len());
}

fn share(queries: &[Query], pred: impl Fn(&Query) -> bool) -> f64 {
    queries.iter().filter(|q| pred(q)).count() as f64 / queries.len() as f64
}

#[test]
fn mix_shares_land_within_tolerance() {
    let literals = pers_literals();
    for seed in [1, 2, 3] {
        // A short prefix, as a closed-loop run consumes, already holds
        // every share within one deck.
        for len in [97, 1_000] {
            let tol = 12.0 / len as f64;
            let q = stream(Workload::PersMix, &literals, seed, 0, len);
            assert!((share(&q, Query::is_lookup) - 0.2).abs() <= tol, "lookups, len {len}");
            assert!(
                (share(&q, |q| q.algorithm == Algorithm::Fp) - 0.125).abs() <= tol,
                "FP, len {len}"
            );
            let paper: Vec<Query> = q.iter().filter(|q| !q.is_lookup()).cloned().collect();
            for (id, weight) in
                [("Q.Pers.1.a", 0.3), ("Q.Pers.2.c", 0.3), ("Q.Pers.4.d", 0.3), ("Q.Pers.3.d", 0.1)]
            {
                assert!(
                    (share(&paper, |q| q.label == id) - weight).abs() <= tol,
                    "{id}, len {len}"
                );
            }
        }
        let q = stream(Workload::MbenchExceedsPool, &[], seed, 0, 300);
        assert!((share(&q, |q| q.label == "Q.Mbench.1.a") - 2.0 / 3.0).abs() < 0.01);
        assert!((share(&q, |q| q.label == "Q.Mbench.2.b") - 1.0 / 3.0).abs() < 0.01);
        assert!(q.iter().all(|q| q.algorithm == Algorithm::Dpp { lookahead: true }));
    }
}

#[test]
fn no_lookup_key_equals_a_table1_key() {
    let literals = pers_literals();
    let table1: HashSet<String> =
        paper_queries().iter().map(|q| parse_pattern(q.query).unwrap().to_string()).collect();
    let lookups: Vec<Query> = stream(Workload::PersMix, &literals, 3, 0, 1_000)
        .into_iter()
        .filter(Query::is_lookup)
        .collect();
    assert!(!lookups.is_empty());
    for q in lookups {
        assert_eq!(q.label, LOOKUP);
        let signature = parse_pattern(&q.text).unwrap().to_string();
        assert!(!table1.contains(&signature), "{}", q.text);
    }
    assert_eq!(
        lookup_text("//manager//employee/name", "ada turing"),
        "//manager//employee/name[. = 'ada turing']"
    );
}

fn small_db() -> Arc<Database> {
    Arc::new(Database::from_document(pers(GenConfig::sized(2_000))))
}

fn span_names(spans: &[Span], query: u64) -> Vec<&'static str> {
    spans.iter().filter(|s| s.query == query).map(|s| s.name).collect()
}

#[test]
fn cache_hits_skip_optimize_and_certify_as_the_service_does() {
    let db = small_db();
    let literals = name_literals(db.document());
    let queries = stream(Workload::PersMix, &literals, 5, 0, 60);
    let service = QueryService::new(Arc::clone(&db), ServiceConfig::default());
    let session = service.session();
    let replay = Replay::new(Arc::clone(&db), ServiceConfig::default());
    let mut tracer = Tracer::new(Instant::now());
    let mut hits = 0;
    for (id, q) in queries.iter().enumerate() {
        let id = id as u64;
        let served = session.query_with(&q.text, q.algorithm);
        let root = tracer.open("query", id, None);
        let replayed = replay.serve(&mut tracer, id, root, &q.text, q.algorithm).unwrap();
        tracer.close(root);
        let names = span_names(tracer.spans(), id);
        let planned = ["stats.estimate", "core.optimize", "planck.certify", "service.cache_insert"];
        let (cache_hit, rows) = match replayed {
            Outcome::Answered(a) => (a.cache_hit, Some(a.result.tuples.len())),
            Outcome::Refused { cache_hit, .. } => (cache_hit, None),
        };
        match &served {
            Ok(out) => {
                assert_eq!(out.cache_hit, cache_hit, "{}", q.text);
                assert_eq!(Some(out.result.tuples.len()), rows, "{}", q.text);
            }
            Err(e) => assert!(rows.is_none(), "service refused {} ({e}), replay ran it", q.text),
        }
        if cache_hit {
            hits += 1;
            assert!(planned.iter().all(|p| !names.contains(p)), "{names:?}");
        } else {
            assert!(planned.iter().all(|p| names.contains(p)), "{names:?}");
        }
        assert_eq!(names[1..3], ["pattern.parse", "service.cache_get"]);
        assert!(names.contains(&"service.admit"));
    }
    assert!(hits > 0, "the Table-1 queries repeat, so some lookups must hit");
    check_accounting(tracer.spans(), "query").unwrap();
}

#[test]
fn accounting_rejects_children_outside_or_above_their_parent() {
    use std::time::Duration;
    let ms = Duration::from_millis;
    let span =
        |name, parent, start, end| Span { name, query: 1, parent, start: ms(start), end: ms(end) };
    let good = [span("query", None, 0, 10), span("a", Some(0), 1, 4), span("b", Some(0), 5, 9)];
    let acc = check_accounting(&good, "query").unwrap();
    assert_eq!((acc.roots, acc.root, acc.children), (1, ms(10), ms(7)));
    assert!((acc.unattributed_frac() - 0.3).abs() < 1e-9);
    let outside = [span("query", None, 0, 10), span("a", Some(0), 5, 11)];
    assert!(check_accounting(&outside, "query").is_err());
    let foreign = [span("query", None, 0, 10), Span { query: 2, ..span("a", Some(0), 1, 2) }];
    assert!(check_accounting(&foreign, "query").is_err());
    let overlapping =
        [span("query", None, 0, 10), span("a", Some(0), 1, 9), span("b", Some(0), 2, 9)];
    assert!(check_accounting(&overlapping, "query").is_err());
}

#[test]
fn digest_ignores_plan_and_row_order() {
    let db = small_db();
    let query = "//manager[.//employee/name][./department/name]";
    let want = servebench::Answer::reference(&db, query).unwrap();
    assert!(want.rows > 0);
    for algorithm in [Algorithm::Fp, Algorithm::WorstRandom { samples: 8, seed: 3 }] {
        let out = db.query_with(query, algorithm).unwrap();
        assert_eq!(servebench::Answer::of(&out.result), want, "{}", algorithm.name());
    }
    let other = servebench::Answer::reference(&db, "//manager[.//employee/name]").unwrap();
    assert_ne!(other.digest, want.digest);
}
