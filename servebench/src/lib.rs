//! A seeded, closed-loop serving benchmark for [`sjos::QueryService`].
//!
//! * [`workload`] — the two workloads, their corpora and their seeded
//!   query streams.
//! * [`replay`] — the service's per-query steps as separate public
//!   calls, each timed as a span (the traced run).
//! * [`trace`] — the in-memory span recorder and its accounting check.
//!
//! The binary (`src/main.rs`) drives the service, checks every answer
//! against a reference, and prints the metrics; see `README.md`.
#![forbid(unsafe_code)]

pub mod replay;
pub mod trace;
pub mod workload;

use sjos::{Database, QueryResult};

/// What a correct answer to one query looks like: its row count, and
/// an order-independent digest of its canonical rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Rows in hand.
    pub rows: usize,
    /// Wrapping sum of each canonical row's FNV-1a hash, so the
    /// digest ignores row order.
    pub digest: u64,
}

impl Answer {
    /// The answer `result` holds. A canonical row lists a tuple's
    /// elements in pattern-node order, as `QueryResult::canonical_rows`
    /// does, but nothing is copied or sorted.
    pub fn of(result: &QueryResult) -> Answer {
        let mut order: Vec<usize> = (0..result.schema.width()).collect();
        order.sort_by_key(|&i| result.schema.columns()[i]);
        let mut digest: u64 = 0;
        for tuple in &result.tuples {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &i in &order {
                for byte in (tuple[i].node.index() as u64).to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
            digest = digest.wrapping_add(h);
        }
        Answer { rows: result.tuples.len(), digest }
    }

    /// The reference answer: the plain serial `Database` path (DPP,
    /// materializing, no service, no guard).
    pub fn reference(db: &Database, text: &str) -> Result<Answer, sjos::Error> {
        Ok(Answer::of(&db.query(text)?.result))
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, linearly interpolated;
/// NaN when `sorted` is empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}
