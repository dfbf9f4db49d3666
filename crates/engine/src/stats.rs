//! The engine's record path into its [`dwqa_obs::MetricsRegistry`].
//!
//! The engine owns one registry per instance and installs it into each
//! worker's thread-local observation context for the duration of a
//! question (see [`dwqa_obs::observe`]), so the lower crates — `dwqa-ir`
//! retrieval, the fault layer — record against the same names
//! ([`dwqa_obs::names`]) without any handle threading. [`Instruments`]
//! caches `Arc` handles to the engine's own counters and histograms,
//! keeping the record path lock-free. Readers go through the registry
//! itself (`QaEngine::metrics`), usually via its snapshot.

use crate::outcome::AnswerOutcome;
use dwqa_faults::SourceHealth;
use dwqa_obs::{names, Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Cached handles to every instrument the engine itself records: the
/// stage latency histograms, the answer-cache, outcome and resilience
/// counters.
#[derive(Debug)]
pub(crate) struct Instruments {
    registry: Arc<MetricsRegistry>,
    /// Module 1 — question analysis.
    pub(crate) analyze: Arc<Histogram>,
    /// Module 2 — passage selection.
    pub(crate) passages: Arc<Histogram>,
    /// Module 3 — answer extraction.
    pub(crate) extract: Arc<Histogram>,
    /// Step 5 — feedback ETL (the serialized write path).
    pub(crate) feed: Arc<Histogram>,
    questions: Arc<Counter>,
    batches: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    // Degraded-answer taxonomy counters.
    outcome_ok: Arc<Counter>,
    outcome_degraded: Arc<Counter>,
    outcome_timed_out: Arc<Counter>,
    outcome_unavailable: Arc<Counter>,
    outcome_panicked: Arc<Counter>,
    // Resilience gauges: mirror the *cumulative* [`SourceHealth`] of the
    // engine's source stack (set, not summed); rollbacks and worker
    // deaths are engine-local event counters.
    source_retries: Arc<Gauge>,
    source_trips: Arc<Gauge>,
    source_rejections: Arc<Gauge>,
    source_failures: Arc<Gauge>,
    rollbacks: Arc<Counter>,
    worker_deaths: Arc<Counter>,
}

fn outcome_name(outcome: AnswerOutcome) -> String {
    format!("{}{}", names::OUTCOME_PREFIX, outcome.label())
}

impl Instruments {
    /// Resolves the hot handles once, against `registry`.
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Instruments {
        Instruments {
            analyze: registry.histogram(names::STAGE_ANALYZE),
            passages: registry.histogram(names::STAGE_PASSAGES),
            extract: registry.histogram(names::STAGE_EXTRACT),
            feed: registry.histogram(names::STAGE_FEED),
            questions: registry.counter(names::QUESTIONS),
            batches: registry.counter(names::BATCHES),
            cache_hits: registry.counter(names::CACHE_HITS),
            cache_misses: registry.counter(names::CACHE_MISSES),
            outcome_ok: registry.counter(&outcome_name(AnswerOutcome::Ok)),
            outcome_degraded: registry.counter(&outcome_name(AnswerOutcome::Degraded)),
            outcome_timed_out: registry.counter(&outcome_name(AnswerOutcome::TimedOut)),
            outcome_unavailable: registry.counter(&outcome_name(AnswerOutcome::SourceUnavailable)),
            outcome_panicked: registry.counter(&outcome_name(AnswerOutcome::Panicked)),
            source_retries: registry.gauge(names::SOURCE_RETRIES),
            source_trips: registry.gauge(names::SOURCE_BREAKER_TRIPS),
            source_rejections: registry.gauge(names::SOURCE_BREAKER_REJECTIONS),
            source_failures: registry.gauge(names::SOURCE_FAILURES),
            rollbacks: registry.counter(names::ROLLBACKS),
            worker_deaths: registry.counter(names::WORKER_DEATHS),
            registry,
        }
    }

    /// The underlying registry — what the engine installs into each
    /// worker's observation context so retrieval and fault counters land
    /// next to the stage histograms.
    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    pub(crate) fn record_question(&self) {
        self.questions.inc();
    }

    pub(crate) fn record_batch(&self) {
        self.batches.inc();
    }

    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    pub(crate) fn record_outcome(&self, outcome: AnswerOutcome) {
        let counter = match outcome {
            AnswerOutcome::Ok => &self.outcome_ok,
            AnswerOutcome::Degraded => &self.outcome_degraded,
            AnswerOutcome::TimedOut => &self.outcome_timed_out,
            AnswerOutcome::SourceUnavailable => &self.outcome_unavailable,
            AnswerOutcome::Panicked => &self.outcome_panicked,
        };
        counter.inc();
    }

    /// Mirrors the source stack's cumulative health counters (idempotent:
    /// stores the latest values rather than summing deltas).
    pub(crate) fn sync_source_health(&self, health: &SourceHealth) {
        self.source_retries.set(health.retries);
        self.source_trips.set(health.breaker_trips);
        self.source_rejections.set(health.breaker_rejections);
        self.source_failures.set(health.failures);
    }

    pub(crate) fn record_rollback(&self) {
        self.rollbacks.inc();
    }

    pub(crate) fn record_worker_death(&self) {
        self.worker_deaths.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn fresh() -> Instruments {
        Instruments::new(Arc::new(MetricsRegistry::new()))
    }

    #[test]
    fn stage_stats_mean() {
        let s = fresh();
        s.analyze.record(Duration::from_micros(100));
        s.analyze.record(Duration::from_micros(300));
        let snap = s.registry().snapshot();
        assert_eq!(snap["engine.stage.analyze.samples"], 2);
        assert_eq!(snap["engine.stage.analyze.sum_us"], 400);
        assert_eq!(s.registry().histogram(names::STAGE_ANALYZE).mean_us(), 200);
    }

    /// Parses the registry's plain-text rendering into name → value.
    fn rendered(reg: &MetricsRegistry) -> BTreeMap<String, u64> {
        reg.render()
            .lines()
            .map(|line| {
                let (name, value) = line.split_once(' ').unwrap();
                (name.to_string(), value.trim().parse().unwrap())
            })
            .collect()
    }

    /// The registry's plain-text rendering carries every engine stage and
    /// counter.
    #[test]
    fn render_contains_all_stages() {
        let s = fresh();
        s.analyze.record(Duration::from_micros(42));
        s.record_question();
        s.record_cache_miss();
        let reg = s.registry();

        let rendered = rendered(reg);
        let value = |name: &str| match rendered.get(name) {
            Some(&v) => v,
            None => panic!("missing {name} in:\n{}", reg.render()),
        };
        for stage in ["analyze", "passages", "extract", "feed"] {
            value(&format!("engine.stage.{stage}.samples"));
        }
        assert_eq!(value("engine.stage.analyze.samples"), 1);
        assert_eq!(value("engine.stage.analyze.sum_us"), 42);
        assert_eq!(value("engine.questions"), 1);
        assert_eq!(value("engine.cache.hits"), 0);
        assert_eq!(value("engine.cache.misses"), 1);
        for outcome in [
            "ok",
            "degraded",
            "timed-out",
            "source-unavailable",
            "panicked",
        ] {
            assert_eq!(value(&format!("engine.outcome.{outcome}")), 0);
        }
        for resilience in [
            names::SOURCE_RETRIES,
            names::SOURCE_BREAKER_TRIPS,
            names::SOURCE_BREAKER_REJECTIONS,
            names::SOURCE_FAILURES,
            names::ROLLBACKS,
            names::WORKER_DEATHS,
        ] {
            assert_eq!(value(resilience), 0);
        }
        assert_eq!(rendered.len(), reg.snapshot().len());
    }

    /// The retrieval counters `dwqa-ir` writes through the observation
    /// context land in the engine's registry and its rendering; here we
    /// write them directly, as an installed context would.
    #[test]
    fn retrieval_counters_read_the_shared_registry() {
        let s = fresh();
        let reg = s.registry();
        for (candidate, pruned, windows) in [(4u64, 96u64, 12u64), (6, 94, 20)] {
            reg.counter(names::RETRIEVAL_COUNT).inc();
            reg.counter(names::RETRIEVAL_DOCS_TOTAL).add(100);
            reg.counter(names::RETRIEVAL_DOCS_CANDIDATE).add(candidate);
            reg.counter(names::RETRIEVAL_DOCS_PRUNED).add(pruned);
            reg.counter(names::RETRIEVAL_WINDOWS_SCORED).add(windows);
        }
        assert_eq!(reg.counter_value(names::RETRIEVAL_COUNT), 2);
        assert_eq!(reg.counter_value(names::RETRIEVAL_DOCS_TOTAL), 200);
        assert_eq!(reg.counter_value(names::RETRIEVAL_DOCS_CANDIDATE), 10);
        assert_eq!(reg.counter_value(names::RETRIEVAL_DOCS_PRUNED), 190);
        assert_eq!(reg.counter_value(names::RETRIEVAL_WINDOWS_SCORED), 32);
        let rendered = rendered(reg);
        assert_eq!(rendered["retrieval.count"], 2);
        assert_eq!(rendered["retrieval.docs.total"], 200);
        assert_eq!(rendered["retrieval.docs.candidate"], 10);
        assert_eq!(rendered["retrieval.docs.pruned"], 190);
        assert_eq!(rendered["retrieval.windows.scored"], 32);
    }

    /// The counters `dwqa-warehouse` and the pipeline's rollup cache write
    /// through the observation context land in the engine's registry and
    /// its rendering.
    #[test]
    fn warehouse_counters_read_the_shared_registry() {
        let s = fresh();
        let reg = s.registry();
        reg.counter(names::WAREHOUSE_ROWS_SCANNED).add(1000);
        reg.counter(names::WAREHOUSE_ROLLUP_HITS).add(3);
        reg.counter(names::WAREHOUSE_ROLLUP_MISSES).add(4);
        reg.counter(names::WAREHOUSE_DELTA_APPLIED).add(6);
        reg.counter(names::WAREHOUSE_DELTA_DEMOTED).inc();
        reg.counter(names::WAREHOUSE_DELTA_ROWS).add(42);
        assert_eq!(reg.counter_value(names::WAREHOUSE_ROWS_SCANNED), 1000);
        assert_eq!(reg.counter_value(names::WAREHOUSE_ROLLUP_HITS), 3);
        assert_eq!(reg.counter_value(names::WAREHOUSE_ROLLUP_MISSES), 4);
        assert_eq!(reg.counter_value(names::WAREHOUSE_DELTA_APPLIED), 6);
        assert_eq!(reg.counter_value(names::WAREHOUSE_DELTA_DEMOTED), 1);
        assert_eq!(reg.counter_value(names::WAREHOUSE_DELTA_ROWS), 42);
        let rendered = rendered(reg);
        assert_eq!(rendered["warehouse.rows.scanned"], 1000);
        assert_eq!(rendered["warehouse.rollup.hits"], 3);
        assert_eq!(rendered["warehouse.rollup.misses"], 4);
        assert_eq!(rendered["warehouse.delta.applied"], 6);
        assert_eq!(rendered["warehouse.delta.demoted"], 1);
        assert_eq!(rendered["warehouse.delta.rows"], 42);
    }

    #[test]
    fn outcome_and_resilience_counters_accumulate() {
        let s = fresh();
        s.record_outcome(AnswerOutcome::Ok);
        s.record_outcome(AnswerOutcome::Ok);
        s.record_outcome(AnswerOutcome::Degraded);
        s.record_outcome(AnswerOutcome::TimedOut);
        s.record_outcome(AnswerOutcome::SourceUnavailable);
        s.record_outcome(AnswerOutcome::Panicked);
        let reg = s.registry();
        assert_eq!(reg.counter_value(&outcome_name(AnswerOutcome::Ok)), 2);
        for outcome in [
            AnswerOutcome::Degraded,
            AnswerOutcome::TimedOut,
            AnswerOutcome::SourceUnavailable,
            AnswerOutcome::Panicked,
        ] {
            assert_eq!(reg.counter_value(&outcome_name(outcome)), 1);
        }
        s.record_rollback();
        assert_eq!(reg.counter_value(names::ROLLBACKS), 1);
        assert_eq!(reg.counter_value(names::WORKER_DEATHS), 0);
        // Source health mirrors cumulative counters idempotently.
        let health = SourceHealth {
            retries: 7,
            breaker_trips: 2,
            breaker_rejections: 3,
            failures: 4,
            ..SourceHealth::default()
        };
        s.sync_source_health(&health);
        s.sync_source_health(&health);
        assert_eq!(reg.gauge_value(names::SOURCE_RETRIES), 7);
        assert_eq!(reg.gauge_value(names::SOURCE_BREAKER_TRIPS), 2);
        assert_eq!(reg.gauge_value(names::SOURCE_BREAKER_REJECTIONS), 3);
        assert_eq!(reg.gauge_value(names::SOURCE_FAILURES), 4);
    }
}
