//! The two seeded workloads: their corpus, their service settings and
//! their query streams.
//!
//! The corpus of a workload is fixed (the datagen crate's default
//! generator seed), so every seed runs against the same data and the
//! same reference answers. The benchmark seed drives only the query
//! stream: the order of the queries, the lookup literals and which
//! queries use FP instead of DPP.
//!
//! Shares are dealt from small shuffled decks rather than drawn
//! independently, so any prefix of a stream holds each kind of query
//! within one deck of its target share. A closed-loop run consumes a
//! prefix whose length depends on the machine's speed; decks keep the
//! mix, and with it the figures, steady from seed to seed.

use sjos::datagen::{fold_document, mbench::mbench, paper_queries, pers::pers, GenConfig};
use sjos::storage::StoreConfig;
use sjos::xml::Document;
use sjos::{Algorithm, ServiceConfig};

/// The Mbench workload's buffer pool: 4 MiB, 512 pages of 8 KiB.
const MBENCH_POOL_BYTES: usize = 4 * 1024 * 1024;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pers ×10 in the default pool, two sessions, serial execution:
    /// Table-1 Pers queries plus parameterized name lookups.
    PersMix,
    /// Mbench at a quarter of paper size in a 4 MiB pool, one session
    /// with two workers per query: Q.Mbench.1.a and Q.Mbench.2.b.
    MbenchExceedsPool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 2] = [Workload::PersMix, Workload::MbenchExceedsPool];

impl Workload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PersMix => "pers-mix",
            Workload::MbenchExceedsPool => "mbench-exceeds-pool",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Concurrent client sessions (one closed-loop thread each).
    pub fn sessions(self) -> usize {
        match self {
            Workload::PersMix => 2,
            Workload::MbenchExceedsPool => 1,
        }
    }

    /// The service settings: the defaults, with only `parallelism`
    /// changed between workloads.
    pub fn service_config(self) -> ServiceConfig {
        let parallelism = match self {
            Workload::PersMix => 1,
            Workload::MbenchExceedsPool => 2,
        };
        ServiceConfig { parallelism, ..ServiceConfig::default() }
    }

    /// The storage settings: the default 16 MiB pool for Pers, 4 MiB
    /// for Mbench so that its corpus exceeds the pool.
    pub fn store_config(self) -> StoreConfig {
        match self {
            Workload::PersMix => StoreConfig::default(),
            Workload::MbenchExceedsPool => {
                StoreConfig { buffer_pool_bytes: MBENCH_POOL_BYTES, ..StoreConfig::default() }
            }
        }
    }

    /// The workload's corpus.
    pub fn document(self) -> Document {
        match self {
            Workload::PersMix => fold_document(&pers(GenConfig::sized(5_000)), 10),
            Workload::MbenchExceedsPool => mbench(GenConfig::sized(185_000)),
        }
    }

    /// The Table-1 queries of this workload with their deck weights.
    fn paper_mix(self) -> Vec<(&'static str, &'static str, usize)> {
        let weights: &[(&str, usize)] = match self {
            Workload::PersMix => {
                &[("Q.Pers.1.a", 3), ("Q.Pers.2.c", 3), ("Q.Pers.4.d", 3), ("Q.Pers.3.d", 1)]
            }
            Workload::MbenchExceedsPool => &[("Q.Mbench.1.a", 2), ("Q.Mbench.2.b", 1)],
        };
        let catalog = paper_queries();
        weights
            .iter()
            .map(|&(id, weight)| {
                let q = catalog.iter().find(|q| q.id == id).expect("Table-1 query in the catalog");
                (q.id, q.query, weight)
            })
            .collect()
    }
}

/// Distinct texts of the corpus's `name` elements, sorted: the
/// literals lookups draw from.
pub fn name_literals(doc: &Document) -> Vec<String> {
    let Some(tag) = doc.tag("name") else { return Vec::new() };
    let mut names: Vec<String> =
        doc.elements_with_tag(tag).iter().map(|&id| doc.node(id).text.clone()).collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// One query of a stream: its text (all the service receives), the
/// algorithm it asks for, and the label it is reported under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Query text.
    pub text: String,
    /// Optimizer the client asks for.
    pub algorithm: Algorithm,
    /// Table-1 id, or `lookup` for a parameterized lookup.
    pub label: &'static str,
}

impl Query {
    /// Whether this is a parameterized lookup.
    pub fn is_lookup(&self) -> bool {
        self.label == LOOKUP
    }
}

/// Label of the parameterized lookups.
pub const LOOKUP: &str = "lookup";

/// The lookup variant of a Table-1 query: its first `name` step gains
/// an equality test on `literal`.
pub fn lookup_text(query: &str, literal: &str) -> String {
    query.replacen("/name", &format!("/name[. = '{literal}']"), 1)
}

/// splitmix64: a small, fixed PRNG, so streams stay byte-identical
/// whatever the vendored `rand` does.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A shuffled deck of items, reshuffled each time it runs out.
struct Deck<T: Clone> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Clone> Deck<T> {
    fn new(cards: Vec<T>) -> Deck<T> {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                let j = rng.below(i + 1);
                self.cards.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1].clone()
    }
}

fn weighted<T: Clone>(items: &[(T, usize)]) -> Vec<T> {
    items.iter().flat_map(|(item, n)| std::iter::repeat_n(item.clone(), *n)).collect()
}

/// The first `len` queries session `session` sends under `seed`.
///
/// `pers-mix`: lookups on 2 queries in 10; the Table-1 queries and the
/// lookups' shapes each 3:3:3:1 (1.a : 2.c : 4.d : 3.d); FP on 1 query
/// in 8, DPP otherwise. `mbench-exceeds-pool`: Q.Mbench.1.a and
/// Q.Mbench.2.b at 2:1, all DPP. `literals` are the lookup values
/// ([`name_literals`] of the workload's corpus).
pub fn stream(
    workload: Workload,
    literals: &[String],
    seed: u64,
    session: usize,
    len: usize,
) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ (session as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let shapes: Vec<(&'static str, &'static str)> =
        weighted(&workload.paper_mix().iter().map(|&(id, q, w)| ((id, q), w)).collect::<Vec<_>>());
    let dpp = Algorithm::Dpp { lookahead: true };
    let mut paper = Deck::new(shapes.clone());
    let mut lookup_shapes = Deck::new(shapes);
    let mut kinds = Deck::new(match workload {
        Workload::PersMix => weighted(&[(false, 8), (true, 2)]),
        Workload::MbenchExceedsPool => vec![false],
    });
    let mut algorithms = Deck::new(match workload {
        Workload::PersMix => weighted(&[(dpp, 7), (Algorithm::Fp, 1)]),
        Workload::MbenchExceedsPool => vec![dpp],
    });
    (0..len)
        .map(|_| {
            let algorithm = algorithms.deal(&mut rng);
            if kinds.deal(&mut rng) {
                let (_, query) = lookup_shapes.deal(&mut rng);
                let literal = &literals[rng.below(literals.len())];
                Query { text: lookup_text(query, literal), algorithm, label: LOOKUP }
            } else {
                let (id, query) = paper.deal(&mut rng);
                Query { text: query.to_owned(), algorithm, label: id }
            }
        })
        .collect()
}
