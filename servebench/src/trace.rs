//! In-memory spans for the traced run.
//!
//! Each session thread owns a [`Tracer`]; spans are plain records kept
//! in a `Vec` and written out once the run ends. Times are offsets
//! from an epoch shared by all sessions of a run.

use std::io::Write;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `core.optimize`.
    pub name: &'static str,
    /// The query the span belongs to.
    pub query: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Start, as an offset from the run's epoch.
    pub start: Duration,
    /// End, as an offset from the run's epoch.
    pub end: Duration,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// One session's span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    /// Start a span; returns its index for [`Tracer::close`] and for
    /// children's `parent`.
    pub fn open(&mut self, name: &'static str, query: u64, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(Span { name, query, parent, start: now, end: now });
        self.spans.len() - 1
    }

    /// End span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Run `f` inside a span.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        query: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, query, parent);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Root-span totals from [`check_accounting`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Root spans named `root_name`.
    pub roots: usize,
    /// Their summed duration.
    pub root: Duration,
    /// The summed duration of their direct children.
    pub children: Duration,
}

impl Accounting {
    /// Share of root time no child span covers.
    pub fn unattributed_frac(&self) -> f64 {
        if self.root.is_zero() {
            return 0.0;
        }
        1.0 - self.children.as_secs_f64() / self.root.as_secs_f64()
    }
}

/// Check that every child span lies inside its parent, belongs to the
/// same query, and that no parent's children sum to more than the
/// parent; return the totals of the root spans named `root_name`.
pub fn check_accounting(spans: &[Span], root_name: &str) -> Result<Accounting, String> {
    let mut covered = vec![Duration::ZERO; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        let Some(p) = span.parent else { continue };
        let parent = spans.get(p).ok_or_else(|| format!("span {i} has unknown parent {p}"))?;
        if p >= i || parent.query != span.query {
            return Err(format!("span {i} ({}) has a foreign parent {p}", span.name));
        }
        if span.start < parent.start || span.end > parent.end {
            return Err(format!(
                "span {i} ({}) leaves its parent {} in query {}",
                span.name, parent.name, span.query
            ));
        }
        covered[p] += span.duration();
    }
    let mut acc = Accounting::default();
    for (i, span) in spans.iter().enumerate() {
        if covered[i] > span.duration() {
            return Err(format!(
                "children of span {i} ({}) sum to {:?}, more than its {:?}",
                span.name,
                covered[i],
                span.duration()
            ));
        }
        if span.parent.is_none() && span.name == root_name {
            acc.roots += 1;
            acc.root += span.duration();
            acc.children += covered[i];
        }
    }
    Ok(acc)
}

/// Write every session's spans as JSON lines: one object per span with
/// a run-wide `id` and `parent`.
pub fn write_spans(out: &mut impl Write, sessions: &[&[Span]]) -> std::io::Result<()> {
    let mut base = 0;
    for (session, spans) in sessions.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| (base + p).to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"session\":{session},\"query\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                base + i,
                s.query,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        base += spans.len();
    }
    Ok(())
}
