//! The service's per-query steps, replayed as separate public calls.
//!
//! [`Replay::serve`] makes the calls `Session::serve` makes, in the
//! same order and with the same arguments, and times each as a span:
//! parse, plan-cache lookup, on a miss estimate + optimize + certify +
//! insert, admission, and guarded execution with the session's I/O
//! tap installed. [`Replay::count`] then times the counting variant of
//! the same execution, outside the query's root span, so the traced
//! run can split execution into joining and materializing.
//!
//! One path of `Session::serve` is not replayed: degraded (spill)
//! admission of a never-fitting plan that contains a sort. No plan
//! chosen for the benchmark's queries sorts; should one appear, the
//! replay reports an error instead of silently diverging.

use std::sync::Arc;
use std::time::Instant;

use sjos::exec::parallel::{execute_parallel_opts, ParallelPolicy};
use sjos::service::{AdmissionController, CachedPlan, PlanCache, PlanKey, RejectReason, Rejection};
use sjos::storage::{IoSnapshot, IoStats, IoTap};
use sjos::{
    Algorithm, Database, Pattern, PlanNode, QueryGuard, QueryResult, ServiceConfig, BATCH_ROWS,
};

use crate::trace::Tracer;

/// A replica of one service's shared state: the engine, a plan cache
/// and an admission controller built from the service's settings.
#[derive(Debug)]
pub struct Replay {
    db: Arc<Database>,
    config: ServiceConfig,
    cache: PlanCache,
    admission: AdmissionController,
}

/// A query the replay executed.
#[derive(Debug)]
pub struct Answered {
    /// The parsed query.
    pub pattern: Pattern,
    /// The plan that ran.
    pub plan: Arc<CachedPlan>,
    /// The materialized result.
    pub result: QueryResult,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Search effort when the plan was optimized for this query.
    pub plans_considered: Option<u64>,
    /// Certified bytes the admission reserved.
    pub certified: u64,
    /// Morsels the query ran as.
    pub morsels: usize,
    /// The query's I/O, from the tap installed around execution.
    pub io: IoSnapshot,
}

/// How the replay ended one query.
#[derive(Debug)]
pub enum Outcome {
    /// Executed to completion.
    Answered(Box<Answered>),
    /// Turned away by admission control.
    Refused {
        /// The rejection.
        rejection: Rejection,
        /// Whether the plan came from the cache.
        cache_hit: bool,
    },
}

impl Replay {
    /// A fresh replica serving `db` under `config`.
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> Replay {
        let cache = PlanCache::new(config.plan_cache_capacity);
        let admission = AdmissionController::new(config.memory_budget, config.queue_capacity);
        Replay { db, config, cache, admission }
    }

    /// Serve `text` as `Session::serve` would, recording one span per
    /// step under `root`. Engine failures come back as `Err`.
    pub fn serve(
        &self,
        tracer: &mut Tracer,
        query: u64,
        root: usize,
        text: &str,
        algorithm: Algorithm,
    ) -> Result<Outcome, String> {
        let started = Instant::now();
        let db = &*self.db;
        let parent = Some(root);
        let pattern = tracer
            .timed("pattern.parse", query, parent, || sjos::parse_pattern(text))
            .map_err(|e| e.to_string())?;
        let catalog = db.catalog();
        let key = PlanKey {
            signature: pattern.to_string(),
            algorithm,
            catalog_version: catalog.version(),
        };
        let hit = tracer.timed("service.cache_get", query, parent, || {
            self.cache.get(&key, catalog.version(), catalog.fingerprint())
        });
        let (cached, cache_hit, plans_considered) = match hit {
            Some(plan) => (plan, true, None),
            None => {
                let est = tracer.timed("stats.estimate", query, parent, || db.estimates(&pattern));
                let optimized = tracer
                    .timed("core.optimize", query, parent, || {
                        sjos::optimize(&pattern, &est, db.cost_model(), algorithm)
                    })
                    .map_err(|e| e.to_string())?;
                let bounds = tracer.timed("planck.certify", query, parent, || {
                    db.resource_bounds(&pattern, &optimized.plan)
                });
                let plan = Arc::new(CachedPlan {
                    plan: optimized.plan,
                    estimated_cost: optimized.estimated_cost,
                    bounds,
                    catalog_version: catalog.version(),
                    catalog_fingerprint: catalog.fingerprint(),
                });
                tracer.timed("service.cache_insert", query, parent, || {
                    self.cache.insert(key, Arc::clone(&plan));
                });
                (plan, false, Some(optimized.stats.plans_considered))
            }
        };

        // Admission, parallel-first as in the service: `workers ×` the
        // certificate, else the serial certificate.
        let wait_limit = self.config.queue_timeout;
        let workers = self.config.parallelism.max(1);
        let peak = cached.bounds.peak_bytes;
        let admitted = tracer.timed("service.admit", query, parent, || {
            if workers > 1 {
                let scaled = peak.saturating_mul(workers as u64);
                if let Ok(permit) = self.admission.admit(scaled, wait_limit) {
                    return Ok((permit, scaled, true));
                }
            }
            let remaining = wait_limit.saturating_sub(started.elapsed());
            self.admission.admit(peak, remaining).map(|permit| (permit, peak, false))
        });
        let (permit, certified, parallel) = match admitted {
            Ok(grant) => grant,
            Err(rejection)
                if rejection.reason == RejectReason::NeverFits && has_sort(&cached.plan) =>
            {
                return Err(format!(
                    "degraded admission is not replayed (certificate {} B)",
                    rejection.certified_bytes
                ));
            }
            Err(rejection) => return Ok(Outcome::Refused { rejection, cache_hit }),
        };

        let guard = Arc::new(
            QueryGuard::unlimited()
                .with_memory_budget(usize::try_from(certified).unwrap_or(usize::MAX)),
        );
        let io = Arc::new(IoStats::new());
        let executed = tracer.timed("exec.execute", query, parent, || {
            let _tap = IoTap::install(Arc::clone(&io));
            if parallel {
                sjos::exec::execute_parallel_guarded(
                    db.store(),
                    &pattern,
                    &cached.plan,
                    &guard,
                    ParallelPolicy::with_threads(workers),
                )
                .map(|p| {
                    let morsels = p.morsel_count();
                    (p.result, morsels)
                })
            } else {
                sjos::exec::execute_guarded(db.store(), &pattern, &cached.plan, &guard)
                    .map(|r| (r, 1))
            }
        });
        drop(permit);
        let (result, morsels) = executed.map_err(|e| e.to_string())?;
        Ok(Outcome::Answered(Box::new(Answered {
            pattern,
            plan: cached,
            result,
            cache_hit,
            plans_considered,
            certified,
            morsels,
            io: io.snapshot(),
        })))
    }

    /// Time the counting (non-materializing) execution of an answered
    /// query as the root span `name`, with `threads` workers. Returns
    /// the row count it produced.
    pub fn count(
        &self,
        tracer: &mut Tracer,
        query: u64,
        name: &'static str,
        answered: &Answered,
        threads: usize,
    ) -> Result<u64, String> {
        let guard = Arc::new(QueryGuard::unlimited());
        let outcome = tracer.timed(name, query, None, || {
            execute_parallel_opts(
                self.db.store(),
                &answered.pattern,
                &answered.plan.plan,
                false,
                BATCH_ROWS,
                &guard,
                ParallelPolicy::with_threads(threads),
            )
        });
        Ok(outcome.map_err(|e| e.to_string())?.result.metrics.output_tuples)
    }
}

/// Whether `plan` contains a sort (the only operator degraded
/// admission can spill).
pub fn has_sort(plan: &PlanNode) -> bool {
    match plan {
        PlanNode::IndexScan { .. } => false,
        PlanNode::Sort { .. } => true,
        PlanNode::StructuralJoin { left, right, .. } => has_sort(left) || has_sort(right),
    }
}
