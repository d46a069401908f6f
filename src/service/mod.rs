//! A concurrent multi-session query service over one shared engine.
//!
//! [`QueryService`] wraps one [`Database`] — one `XmlStore`, one
//! buffer pool, one catalog — and serves many [`Session`]s at once,
//! each typically owned by one worker thread. Three mechanisms make
//! the sharing safe and observable:
//!
//! 1. **Global admission control** ([`admission`]). Every query's
//!    plan carries a *certified* worst-case peak-memory bound from
//!    [`sjos_planck::analyze_bounds`]. Admission is a ladder of
//!    candidate runs — an [`sjos_exec::ExecMode`] each — and every
//!    rung reserves planck's certificate for its mode
//!    ([`sjos_planck::ResourceBounds::certificate`]) against the
//!    service-wide budget, queueing (bounded FIFO, deadline-aware
//!    timeout) or rejecting with [`ServiceError::Overloaded`]
//!    otherwise. Because each query then runs, through one
//!    [`Database::execute_with`] call, under a [`QueryGuard`] whose
//!    memory budget equals its certificate, and certificates are sound
//!    upper bounds (PL064), the aggregate *measured* footprint of
//!    admitted queries provably cannot exceed the budget. A
//!    certificate that can *never* fit degrades instead of failing:
//!    the plan is re-certified in spill mode (PL066) where sorts park
//!    their buffers in temp pages, and admitted under the smaller
//!    resident certificate — the query runs slower but answers
//!    bit-identically.
//! 2. **Plan caching** ([`plan_cache`]). Plans are cached under
//!    (pattern signature, algorithm, catalog version) with an LRU
//!    bound, so repeated patterns skip DP/DPP entirely; every hit is
//!    revalidated against the live catalog generation (PL065).
//! 3. **Intra-query parallelism** ([`ServiceConfig::parallelism`]).
//!    Above 1, the ladder's first rung runs the query
//!    morsel-partitioned through [`sjos_exec::parallel`] and reserves
//!    `parallelism ×` the plan's certificate (the aggregate a
//!    shared-guard morsel run is bounded by); when that does not fit,
//!    the query falls to the serial rung. Results and metric totals
//!    stay bit-identical to the serial run (PL068).
//! 4. **Observability** ([`metrics`]). Per-session and aggregate
//!    counters — admitted/queued/rejected, cache hit rate, latency
//!    percentiles, certified vs. measured peaks — export as JSON via
//!    [`QueryService::metrics_json`]. Per-session I/O uses the
//!    storage layer's thread-local [`sjos_storage::IoTap`], so each
//!    session sees its own buffer-pool and disk traffic even though
//!    the underlying counters are engine-global.

pub mod admission;
pub mod metrics;
pub mod models;
pub mod plan_cache;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sjos_core::Algorithm;
use sjos_exec::{
    ExecMode, ExecOptions, ParallelPolicy, PlanNode, QueryGuard, QueryResult, SpillPolicy,
    BATCH_ROWS,
};
use sjos_pattern::{parse_pattern, Pattern};
use sjos_storage::{IoSnapshot, IoTap};

use crate::{Database, Error};

pub use admission::{AdmissionController, AdmissionSnapshot, RejectReason, Rejection};
pub use metrics::{LatencySummary, ServiceMetrics, SessionMetrics};
pub use plan_cache::{CachedPlan, PlanCache, PlanCacheSnapshot, PlanKey};

/// Tuning knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Service-wide budget of certified peak bytes across all
    /// in-flight queries.
    pub memory_budget: u64,
    /// Maximum queries waiting for admission before new arrivals are
    /// rejected outright.
    pub queue_capacity: usize,
    /// Maximum time a query waits in the admission queue (a query
    /// deadline shortens this further; [`Session::query_with_patience`]
    /// replaces it for one query).
    pub queue_timeout: Duration,
    /// Maximum resident plan-cache entries.
    pub plan_cache_capacity: usize,
    /// Algorithm used by [`Session::query`] (the paper's
    /// recommendation, DPP, by default).
    pub default_algorithm: Algorithm,
    /// Worker threads per query (1 = serial, the default). Above 1,
    /// non-degraded queries run morsel-partitioned: admission
    /// reserves `parallelism ×` the plan's certificate (the sound
    /// aggregate bound — see
    /// [`sjos_planck::ResourceBounds::certificate`]) and falls back to
    /// serial admission when that scaled reservation does not fit.
    /// Degraded (spill) queries always run serially.
    pub parallelism: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            memory_budget: sjos_planck::DEFAULT_MEMORY_BUDGET,
            queue_capacity: 64,
            queue_timeout: Duration::from_secs(2),
            plan_cache_capacity: 256,
            default_algorithm: Algorithm::Dpp { lookahead: true },
            parallelism: 1,
        }
    }
}

/// Everything that can go wrong for a query passing through the
/// service.
#[derive(Debug)]
pub enum ServiceError {
    /// Parse, optimize, or execution failure from the engine.
    Engine(Error),
    /// Admission control turned the query away: the budget is
    /// saturated (after queueing up to the wait limit), the queue is
    /// full, or the certificate can never fit.
    Overloaded(Rejection),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::Overloaded(r) => write!(
                f,
                "overloaded ({:?}): certified {} B against a {} B budget after waiting {:?}",
                r.reason, r.certified_bytes, r.budget, r.waited
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<Error> for ServiceError {
    fn from(e: Error) -> ServiceError {
        ServiceError::Engine(e)
    }
}

/// One successfully served query.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The executed result (rows, executor metrics, elapsed time).
    pub result: QueryResult,
    /// The plan that ran, with its certified bounds.
    pub plan: Arc<CachedPlan>,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether the query ran in degraded (spill) mode: its in-memory
    /// certificate could never fit the budget, but a spill-mode
    /// re-certification (PL066) did, so its sorts spilled to temp
    /// pages instead of the query being rejected.
    pub degraded: bool,
    /// Time spent waiting for admission.
    pub waited: Duration,
    /// This query's own I/O traffic (session-tap attributed).
    pub io: IoSnapshot,
    /// Morsels the query ran as: 1 for serial execution (including
    /// degraded mode and parallel runs with no valid cut), more when
    /// the morsel partitioner actually split the work.
    pub morsels: usize,
}

struct ServiceInner {
    db: Arc<Database>,
    config: ServiceConfig,
    admission: AdmissionController,
    cache: PlanCache,
    metrics: ServiceMetrics,
    sessions: Mutex<Vec<Arc<SessionMetrics>>>,
    next_session: AtomicU64,
}

/// A shareable handle to the concurrent query service. Cloning is
/// cheap (an `Arc` bump); all clones serve the same engine, budget,
/// and cache.
#[derive(Clone)]
pub struct QueryService {
    inner: Arc<ServiceInner>,
}

impl fmt::Debug for QueryService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QueryService({:?}, budget {} B)", self.inner.db, self.inner.admission.budget())
    }
}

impl QueryService {
    /// Serve `db` under `config`. The database is taken as an `Arc`
    /// so a CLI or test can keep using the same handle directly.
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> QueryService {
        let admission = AdmissionController::new(config.memory_budget, config.queue_capacity);
        let cache = PlanCache::new(config.plan_cache_capacity);
        QueryService {
            inner: Arc::new(ServiceInner {
                db,
                config,
                admission,
                cache,
                metrics: ServiceMetrics::new(),
                sessions: Mutex::new(Vec::new()),
                next_session: AtomicU64::new(0),
            }),
        }
    }

    /// The shared database under the service.
    pub fn database(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Open a session. Sessions are `Send` — hand one to each worker
    /// thread; a session's queries execute on the calling thread and
    /// its I/O counters attribute that thread's traffic.
    pub fn session(&self) -> Session {
        let id = self.inner.next_session.fetch_add(1, Ordering::Relaxed);
        let metrics = Arc::new(SessionMetrics::new(id));
        self.inner.sessions.lock().expect("session registry poisoned").push(Arc::clone(&metrics));
        Session { inner: Arc::clone(&self.inner), metrics }
    }

    /// Admission counters and reservation state.
    pub fn admission_snapshot(&self) -> AdmissionSnapshot {
        self.inner.admission.snapshot()
    }

    /// Plan-cache counters.
    pub fn cache_snapshot(&self) -> PlanCacheSnapshot {
        self.inner.cache.snapshot()
    }

    /// Aggregate outcome counters and latency reservoir.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.inner.metrics
    }

    /// The full observability surface as one JSON object: query
    /// outcomes, plan-cache counters, admission state (budget vs.
    /// peak reservation, certified vs. measured peaks, bound
    /// violations, the largest materialized result), latency
    /// percentiles, and one entry per session.
    pub fn metrics_json(&self) -> String {
        let m = &self.inner.metrics;
        let adm = self.admission_snapshot();
        let cache = self.cache_snapshot();
        let latency = m.latency_summary();
        let sessions = self.inner.sessions.lock().expect("session registry poisoned");
        let session_objs: Vec<String> = sessions.iter().map(|s| metrics::session_json(s)).collect();
        format!(
            "{{\n  \"queries\":{{\"admitted\":{},\"queued\":{},\"rejected\":{},\
             \"completed\":{},\"failed\":{}}},\n  \
             \"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"invalidations\":{},\"hit_rate\":{:.4},\"len\":{},\"capacity\":{}}},\n  \
             \"admission\":{{\"budget_bytes\":{},\"in_use_bytes\":{},\
             \"peak_reserved_bytes\":{},\"max_certified_peak_bytes\":{},\
             \"max_measured_peak_bytes\":{},\"bound_violations\":{},\
             \"max_result_bytes\":{}}},\n  \
             \"spill\":{{\"degraded_admissions\":{},\"spilled_queries\":{},\
             \"spilled_runs\":{},\"spilled_bytes\":{},\"merge_passes\":{}}},\n  \
             \"latency\":{},\n  \"sessions\":[{}]\n}}",
            adm.admitted,
            adm.queued,
            adm.rejected,
            m.completed.load(Ordering::Relaxed),
            m.failed.load(Ordering::Relaxed),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.invalidations,
            cache.hit_rate(),
            cache.len,
            cache.capacity,
            adm.budget,
            adm.in_use,
            adm.peak_in_use,
            m.max_certified_peak.load(Ordering::Relaxed),
            m.max_measured_peak.load(Ordering::Relaxed),
            m.bound_violations.load(Ordering::Relaxed),
            m.max_result_bytes.load(Ordering::Relaxed),
            m.degraded_admissions.load(Ordering::Relaxed),
            m.spilled_queries.load(Ordering::Relaxed),
            m.spilled_runs.load(Ordering::Relaxed),
            m.spilled_bytes.load(Ordering::Relaxed),
            m.spill_merge_passes.load(Ordering::Relaxed),
            metrics::latency_json(&latency),
            session_objs.join(",")
        )
    }
}

/// One client's handle on the service. Queries run synchronously on
/// the calling thread; open one session per worker.
pub struct Session {
    inner: Arc<ServiceInner>,
    metrics: Arc<SessionMetrics>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Session#{}", self.metrics.id)
    }
}

impl Session {
    /// This session's id.
    pub fn id(&self) -> u64 {
        self.metrics.id
    }

    /// This session's private I/O counters (tap-attributed).
    pub fn io_snapshot(&self) -> IoSnapshot {
        self.metrics.io.snapshot()
    }

    /// Serve a query with the service's default algorithm and no
    /// deadline.
    pub fn query(&self, query: &str) -> Result<ServiceOutcome, ServiceError> {
        let algorithm = self.inner.config.default_algorithm;
        self.query_opts(query, algorithm, None)
    }

    /// Serve a query with an explicit algorithm.
    pub fn query_with(
        &self,
        query: &str,
        algorithm: Algorithm,
    ) -> Result<ServiceOutcome, ServiceError> {
        self.query_opts(query, algorithm, None)
    }

    /// Serve a query with an explicit algorithm and an end-to-end
    /// deadline covering both the admission wait and execution.
    pub fn query_opts(
        &self,
        query: &str,
        algorithm: Algorithm,
        deadline: Option<Duration>,
    ) -> Result<ServiceOutcome, ServiceError> {
        let outcome = self.serve(query, algorithm, deadline, self.inner.config.queue_timeout);
        self.account(outcome)
    }

    /// Serve a query with an explicit algorithm, waiting up to
    /// `patience` for admission instead of the service's
    /// [`ServiceConfig::queue_timeout`].
    pub fn query_with_patience(
        &self,
        query: &str,
        algorithm: Algorithm,
        patience: Duration,
    ) -> Result<ServiceOutcome, ServiceError> {
        let outcome = self.serve(query, algorithm, None, patience);
        self.account(outcome)
    }

    /// Count `outcome` against this session.
    fn account(
        &self,
        outcome: Result<ServiceOutcome, ServiceError>,
    ) -> Result<ServiceOutcome, ServiceError> {
        match &outcome {
            Ok(_) => {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::Engine(_)) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
            Err(ServiceError::Overloaded(_)) => {
                // The controller's `rejected` counter owns this case.
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    fn serve(
        &self,
        query: &str,
        algorithm: Algorithm,
        deadline: Option<Duration>,
        queue_timeout: Duration,
    ) -> Result<ServiceOutcome, ServiceError> {
        let inner = &*self.inner;
        let started = Instant::now();
        let pattern = parse_pattern(query).map_err(|e| ServiceError::Engine(Error::Query(e)))?;
        let catalog = inner.db.catalog();
        let key = PlanKey {
            signature: pattern.to_string(),
            algorithm,
            catalog_version: catalog.version(),
        };

        // Plan: cache hit (PL065-revalidated) or optimize + certify.
        let (cached, cache_hit) =
            match inner.cache.get(&key, catalog.version(), catalog.fingerprint()) {
                Some(plan) => {
                    inner.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                    (plan, true)
                }
                None => {
                    let optimized =
                        inner.db.optimize(&pattern, algorithm).map_err(ServiceError::Engine)?;
                    let bounds = inner.db.resource_bounds(&pattern, &optimized.plan);
                    let plan = Arc::new(CachedPlan {
                        plan: optimized.plan,
                        estimated_cost: optimized.estimated_cost,
                        bounds,
                        catalog_version: catalog.version(),
                        catalog_fingerprint: catalog.fingerprint(),
                    });
                    inner.cache.insert(key, Arc::clone(&plan));
                    (plan, false)
                }
            };

        // Admission: a ladder of candidate runs, each reserved at
        // planck's certificate for its mode against the global budget,
        // waiting at most the configured timeout (shortened by the
        // query deadline, if any). Parallel first when `parallelism >
        // 1` — any refusal falls through — then serial.
        let wait_limit = match deadline {
            Some(d) => queue_timeout.min(d),
            None => queue_timeout,
        };
        let workers = inner.config.parallelism.max(1);
        let parallel =
            (workers > 1).then(|| ExecMode::Parallel(ParallelPolicy::with_threads(workers)));
        let mut granted = None;
        let mut rejection = None;
        for mode in parallel.into_iter().chain([ExecMode::Serial]) {
            let certified = cached.bounds.certificate(&mode).peak_bytes;
            // The parallel rung may wait the whole limit; later rungs
            // wait what is left of it since the query arrived.
            let wait = match mode {
                ExecMode::Parallel(_) => wait_limit,
                _ => wait_limit.saturating_sub(started.elapsed()),
            };
            match inner.admission.admit(certified, wait) {
                Ok(permit) => {
                    granted = Some((permit, certified, mode));
                    break;
                }
                Err(r) => rejection = Some(r),
            }
        }
        let (permit, certified, mode) = match (granted, rejection) {
            (Some(grant), _) => grant,
            // A certificate that can *never* fit gets one more rung:
            // the plan re-certified in spill mode (PL066), where sorts
            // park their buffers in temp pages and only the resident
            // footprint counts. No sort to spill, or not even the
            // spill floor fits: the serial rejection stands.
            (None, Some(rejection)) if rejection.reason == RejectReason::NeverFits => {
                let budget = inner.admission.budget();
                let Some((policy, certified)) =
                    degraded_certificate(&inner.db, &pattern, &cached.plan, budget)
                else {
                    return Err(ServiceError::Overloaded(rejection));
                };
                let remaining = wait_limit.saturating_sub(started.elapsed());
                let permit = inner
                    .admission
                    .admit(certified, remaining)
                    .map_err(ServiceError::Overloaded)?;
                inner.metrics.degraded_admissions.fetch_add(1, Ordering::Relaxed);
                self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                (permit, certified, ExecMode::Spill(policy))
            }
            (None, rejection) => {
                return Err(ServiceError::Overloaded(rejection.expect("the serial rung ran")));
            }
        };
        let waited = started.elapsed();

        // Execute under a guard whose memory budget *is* the
        // certificate: the static admission theorem (PL062/PL064)
        // says this run cannot breach it.
        let mut guard = QueryGuard::unlimited()
            .with_memory_budget(usize::try_from(certified).unwrap_or(usize::MAX));
        if let Some(d) = deadline {
            guard = guard.with_deadline(d.saturating_sub(waited));
        }
        let opts = ExecOptions { mode, guard: Arc::new(guard), ..ExecOptions::default() };
        let io_before = self.metrics.io.snapshot();
        let result = {
            // The tap is installed on this session thread; the
            // parallel executor mirrors it onto every worker
            // (IoTap::current), so attribution survives the hop.
            let _tap = IoTap::install(Arc::clone(&self.metrics.io));
            inner.db.execute_with(&pattern, &cached.plan, &opts)
        };
        drop(permit);
        let io = self.metrics.io.snapshot().since(&io_before);

        match result {
            Ok(execution) => {
                let morsels = execution.morsel_count();
                let result = execution.result;
                inner.metrics.completed.fetch_add(1, Ordering::Relaxed);
                inner.metrics.record_latency(started.elapsed());
                inner.metrics.record_peaks(result.metrics.peak_bytes, certified);
                inner.metrics.record_result_bytes(result.result_bytes());
                inner.metrics.record_spill(&result.metrics);
                Ok(ServiceOutcome {
                    result,
                    plan: cached,
                    cache_hit,
                    degraded: matches!(mode, ExecMode::Spill(_)),
                    waited,
                    io,
                    morsels,
                })
            }
            Err(e) => Err(ServiceError::Engine(e)),
        }
    }
}

/// The widest sort input anywhere in `plan` (its column count), or
/// `None` when the plan has no sort — nothing to spill, so degraded
/// admission cannot help.
fn max_sort_width(plan: &PlanNode) -> Option<usize> {
    fn go(plan: &PlanNode) -> (usize, Option<usize>) {
        match plan {
            PlanNode::IndexScan { .. } => (1, None),
            PlanNode::Sort { input, .. } => {
                let (width, inner) = go(input);
                (width, Some(inner.map_or(width, |m| m.max(width))))
            }
            PlanNode::StructuralJoin { left, right, .. } => {
                let (lw, ls) = go(left);
                let (rw, rs) = go(right);
                let widest = match (ls, rs) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
                (lw + rw, widest)
            }
        }
    }
    go(plan).1
}

/// Find a spill policy under which `plan`'s resident certificate fits
/// `budget`, and that certificate, if one exists: start from the
/// largest threshold whose sort-local resident bound fits (keeping as
/// much of the sort in memory as possible), and while the whole-plan
/// certificate still overshoots — the other operators' buffers, or a
/// sort whose full materialization is below the cap — shrink the
/// threshold by the overshoot, up to four times, and then try the
/// floor of zero. The resident peak is monotone in the threshold, so
/// `None` means not even the floor fits (PL066).
fn degraded_certificate(
    db: &Database,
    pattern: &Pattern,
    plan: &PlanNode,
    budget: u64,
) -> Option<(SpillPolicy, u64)> {
    let width = max_sort_width(plan)?;
    let budget_usize = usize::try_from(budget).unwrap_or(usize::MAX);
    let guard = Arc::new(QueryGuard::unlimited().with_memory_budget(budget_usize));
    let mut threshold = SpillPolicy::for_budget(budget_usize, width, BATCH_ROWS)?.threshold_bytes;
    for step in 1.. {
        let policy = SpillPolicy::with_threshold(threshold);
        let mode = ExecMode::Spill(policy);
        let opts = ExecOptions { mode, guard: Arc::clone(&guard), ..ExecOptions::default() };
        let (bounds, report) = db.admit(pattern, plan, &opts);
        if report.is_clean() {
            return Some((policy, bounds.certificate(&mode).peak_bytes));
        }
        if threshold == 0 {
            break;
        }
        let over = usize::try_from(bounds.peak_bytes.saturating_sub(budget)).unwrap_or(usize::MAX);
        threshold = if step < 4 { threshold.saturating_sub(over.max(1)) } else { 0 };
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    /// Spill mode at the floor threshold of zero.
    fn spill_floor() -> ExecOptions {
        let mode = ExecMode::Spill(SpillPolicy::with_threshold(0));
        ExecOptions { mode, ..ExecOptions::default() }
    }

    /// Serve `plan` for `query` from a fresh service with `budget`, the
    /// plan planted in its cache so the service runs exactly it.
    fn serve_planted(
        db: &Arc<Database>,
        query: &str,
        plan: &PlanNode,
        budget: u64,
    ) -> (QueryService, Result<ServiceOutcome, ServiceError>) {
        let pattern = parse_pattern(query).unwrap();
        let algorithm = Algorithm::Dpp { lookahead: true };
        let service = QueryService::new(
            Arc::clone(db),
            ServiceConfig { memory_budget: budget, ..ServiceConfig::default() },
        );
        let catalog = db.catalog();
        service.inner.cache.insert(
            PlanKey {
                signature: pattern.to_string(),
                algorithm,
                catalog_version: catalog.version(),
            },
            Arc::new(CachedPlan {
                plan: plan.clone(),
                estimated_cost: 0.0,
                bounds: db.resource_bounds(&pattern, plan),
                catalog_version: catalog.version(),
                catalog_fingerprint: catalog.fingerprint(),
            }),
        );
        let out = service.session().query(query);
        (service, out)
    }

    /// A plan whose non-sort buffers dominate its certificate: the
    /// threshold descent barely moves the peak, because the sort's
    /// full input sits below every stepped cap, so only the floor of
    /// zero fits a budget just above the floor certificate.
    #[test]
    fn degraded_admission_reaches_the_spill_floor() {
        use sjos_exec::JoinAlgo;
        use sjos_pattern::{Axis, PnId};

        let mut xml = String::from("<db>");
        for _ in 0..8_000 {
            xml.push_str("<dept><emp/><emp/><emp/></dept>");
        }
        xml.push_str("</db>");
        let db = Arc::new(Database::from_xml(&xml).unwrap());
        let query = "//dept//emp";
        let pattern = parse_pattern(query).unwrap();
        // MPMGJN buffers its whole descendant window; the sort holds
        // only the dept list.
        let plan = PlanNode::StructuralJoin {
            left: Box::new(PlanNode::Sort {
                input: Box::new(PlanNode::IndexScan { pnode: PnId(0) }),
                by: PnId(0),
            }),
            right: Box::new(PlanNode::IndexScan { pnode: PnId(1) }),
            anc: PnId(0),
            desc: PnId(1),
            axis: Axis::Descendant,
            algo: JoinAlgo::MergeJoin,
        };
        let full = db.resource_bounds(&pattern, &plan);
        let floor = db.admit(&pattern, &plan, &spill_floor()).0;
        assert!(floor.peak_bytes < full.peak_bytes);

        let budget = floor.peak_bytes + 1;
        let (service, out) = serve_planted(&db, query, &plan, budget);
        let out = out.expect("the spill floor fits the budget");
        assert!(out.degraded);
        // Only the floor fits, so the spill rung reserved its
        // certificate, not the budget.
        assert_eq!(service.admission_snapshot().peak_in_use, floor.peak_bytes);
        assert_eq!(
            out.result.canonical_rows(),
            db.execute(&pattern, &plan).unwrap().canonical_rows()
        );
        assert_eq!(db.store().spill().live_pages(), 0, "no leaked temp pages");
    }

    #[test]
    fn service_types_are_shareable() {
        assert_send_sync::<Database>();
        assert_send_sync::<QueryService>();
        assert_send_sync::<Session>();
        assert_send_sync::<ServiceError>();
        assert_send_sync::<ServiceOutcome>();
    }

    #[test]
    fn never_fits_query_degrades_to_spill_instead_of_rejecting() {
        use sjos_pattern::PnId;

        // A corpus whose sort input dwarfs the spill machinery's
        // resident floor, so spilling genuinely shrinks the
        // certificate.
        let mut xml = String::from("<db><dept>");
        for _ in 0..20_000 {
            xml.push_str("<emp/>");
        }
        xml.push_str("</dept></db>");
        let db = Arc::new(Database::from_xml(&xml).unwrap());
        let query = "//dept//emp";
        let pattern = parse_pattern(query).unwrap();
        let base = db.optimize(&pattern, Algorithm::Dpp { lookahead: true }).unwrap();
        let plan = PlanNode::Sort { input: Box::new(base.plan), by: PnId(0) };
        let full = db.resource_bounds(&pattern, &plan);
        let floor = db.admit(&pattern, &plan, &spill_floor()).0;
        assert!(
            floor.peak_bytes < full.peak_bytes,
            "corpus too small: spilling must shrink the certificate \
             ({} vs {})",
            floor.peak_bytes,
            full.peak_bytes
        );

        // A budget the in-memory certificate can never fit, but the
        // spill floor can; the sort-rooted plan is planted in the cache
        // so the service serves exactly this shape.
        let (service, out) = serve_planted(&db, query, &plan, floor.peak_bytes);
        let out = out.unwrap();
        assert!(out.degraded, "the query must be admitted in spill mode");
        assert!(out.result.metrics.spilled_runs > 0, "the sort must actually spill");
        assert_eq!(
            out.result.canonical_rows(),
            db.execute(&pattern, &plan).unwrap().canonical_rows(),
            "degraded execution must answer bit-identically"
        );
        assert_eq!(db.store().spill().live_pages(), 0, "no leaked temp pages");
        // The spill rung reserved planck's spill certificate: with the
        // budget at the floor, the floor's.
        assert_eq!(
            service.admission_snapshot().peak_in_use,
            floor.certificate(&spill_floor().mode).peak_bytes
        );

        let m = service.metrics();
        assert_eq!(m.degraded_admissions.load(Ordering::Relaxed), 1);
        assert_eq!(m.spilled_queries.load(Ordering::Relaxed), 1);
        assert!(m.spilled_runs.load(Ordering::Relaxed) > 0);
        assert_eq!(m.bound_violations.load(Ordering::Relaxed), 0);
        let json = service.metrics_json();
        assert!(json.contains("\"degraded_admissions\":1"), "{json}");
        assert!(json.contains("\"spill_page_writes\""), "{json}");
    }

    #[test]
    fn parallel_service_splits_queries_and_answers_identically() {
        let mut xml = String::from("<db>");
        for i in 0..64 {
            xml.push_str(&format!("<dept><emp><name>p{i}</name></emp></dept>"));
        }
        xml.push_str("</db>");
        let db = Arc::new(Database::from_xml(&xml).unwrap());
        let serial = QueryService::new(Arc::clone(&db), ServiceConfig::default());
        let parallel = QueryService::new(
            Arc::clone(&db),
            ServiceConfig { parallelism: 4, ..ServiceConfig::default() },
        );
        let query = "//dept//emp";
        let s = serial.session().query(query).unwrap();
        let p = parallel.session().query(query).unwrap();
        assert_eq!(s.morsels, 1);
        assert!(p.morsels > 1, "the forest corpus must split into morsels");
        assert_eq!(p.result.canonical_rows(), s.result.canonical_rows());
        assert_eq!(p.result.metrics.output_tuples, s.result.metrics.output_tuples);
        assert_eq!(p.result.metrics.stack_pushes, s.result.metrics.stack_pushes);
        // Each rung reserved planck's certificate for its mode.
        let bounds = db.resource_bounds(&parse_pattern(query).unwrap(), &p.plan.plan);
        let four = ExecMode::Parallel(ParallelPolicy::with_threads(4));
        assert_eq!(parallel.admission_snapshot().peak_in_use, bounds.certificate(&four).peak_bytes);
        assert_eq!(
            serial.admission_snapshot().peak_in_use,
            bounds.certificate(&ExecMode::Serial).peak_bytes
        );
        // The worker-side I/O still lands in this session's tap.
        assert!(p.io.record_reads > 0, "worker record reads must attribute to the session");
    }

    #[test]
    fn second_arrival_of_a_pattern_hits_the_cache() {
        let db = Arc::new(
            Database::from_xml(
                "<dept><emp><name>ada</name></emp><emp><name>bob</name></emp></dept>",
            )
            .unwrap(),
        );
        let service = QueryService::new(db, ServiceConfig::default());
        let session = service.session();
        let first = session.query("//dept/emp/name").unwrap();
        assert!(!first.cache_hit);
        let second = session.query("//dept/emp/name").unwrap();
        assert!(second.cache_hit);
        assert_eq!(first.result.canonical_rows(), second.result.canonical_rows());
        let cache = service.cache_snapshot();
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert_eq!(service.admission_snapshot().admitted, 2);
        assert_eq!(service.metrics().bound_violations.load(Ordering::Relaxed), 0);
    }
}
