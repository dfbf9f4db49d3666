//! Fault-injection (chaos) tests: the engine must degrade gracefully —
//! never hang, never lose a worker, never partially load the warehouse —
//! for *any* fault seed and rate.
//!
//! CI runs this suite with two fixed seeds plus one derived from the run
//! number via `DWQA_CHAOS_SEED` (printed below for reproducibility).

use dwqa_bench::{build_fixture, daily_questions, monthly_question, FixtureConfig};
use dwqa_common::Month;
use dwqa_core::{FeedFault, IntegrationPipeline};
use dwqa_corpus::PageStyle;
use dwqa_engine::{AnswerOutcome, QaEngine, SubmitBatch};
use dwqa_faults::{
    CorpusSource, DocumentSource, FaultInjector, FaultPlan, ResilientSource, RetryPolicy,
};
use dwqa_obs::names;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_fixture() -> IntegrationPipeline {
    build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        distractors: 4,
        ..FixtureConfig::default()
    })
    .pipeline
}

/// The chaos seed: fixed by default, overridden by `DWQA_CHAOS_SEED` in
/// CI so every run exercises a fresh fault sequence reproducibly.
fn chaos_seed() -> u64 {
    match std::env::var("DWQA_CHAOS_SEED") {
        Ok(v) => v.parse().unwrap_or(0xC4A05),
        Err(_) => 0xC4A05,
    }
}

fn question_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for city in ["Barcelona", "Madrid", "New York"] {
        pool.extend(
            daily_questions(city, 2004, Month::January)
                .into_iter()
                .take(3),
        );
        pool.push(monthly_question(city, 2004, Month::January));
    }
    pool
}

/// A resilient chaos source over the pipeline's own corpus.
fn chaos_source(pipeline: &IntegrationPipeline, plan: FaultPlan) -> Arc<dyn DocumentSource> {
    let store = pipeline.qa.store().expect("pipeline indexes a corpus");
    Arc::new(ResilientSource::new(
        FaultInjector::new(CorpusSource::new(store), plan),
        RetryPolicy::default(),
    ))
}

/// A fast retry policy so failure-heavy tests don't sleep through real
/// backoff schedules.
fn fast_policy() -> RetryPolicy {
    RetryPolicy::builder()
        .base_backoff(Duration::from_micros(50))
        .max_backoff(Duration::from_millis(1))
        .breaker_cooldown(Duration::from_millis(5))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any fault seed and rate, `submit_batch` under injection
    /// returns exactly one outcome per question, in input order: the
    /// answers of question `i` are always a (re-validated) subset of the
    /// fault-free answers of the same question — faults can drop
    /// answers, never corrupt or reorder them — and the worker pool
    /// survives.
    #[test]
    fn one_outcome_per_question_in_input_order(
        seed in 0u64..1_000_000,
        rate in 0.0f64..0.8,
    ) {
        let questions = question_pool();

        // Fault-free reference answers, question by question.
        let clean_pipeline = small_fixture();
        let clean_engine = QaEngine::new(&clean_pipeline).with_cache_capacity(0);
        let clean: Vec<Vec<dwqa_qa::Answer>> =
            questions.iter().map(|q| clean_engine.answer(q)).collect();

        let mut pipeline = small_fixture();
        let source = {
            let store = pipeline.qa.store().expect("pipeline indexes a corpus");
            Arc::new(ResilientSource::new(
                FaultInjector::new(CorpusSource::new(store), FaultPlan::chaos(seed, rate)),
                fast_policy(),
            )) as Arc<dyn DocumentSource>
        };
        let engine = QaEngine::new(&pipeline)
            .with_workers(4)
            .with_source(source)
            .with_deadline(Duration::from_secs(10));
        let report = pipeline.submit_batch_with(&engine, &questions);

        prop_assert_eq!(report.outcomes.len(), questions.len());
        prop_assert_eq!(report.answers.len(), questions.len());
        for (i, answers) in report.answers.iter().enumerate() {
            for a in answers {
                prop_assert!(
                    clean[i].contains(a),
                    "question {i}: answer {a:?} not among its fault-free answers"
                );
            }
        }
        prop_assert_eq!(engine.metrics().counter_value(names::WORKER_DEATHS), 0);
        prop_assert_eq!(engine.metrics().counter_value("engine.outcome.panicked"), 0);
    }

    /// A rolled-back feed leaves the warehouse fact counts and the cache
    /// revision identical to the pre-feed snapshot, for any fault seed.
    #[test]
    fn rolled_back_feed_restores_the_snapshot(seed in 0u64..1_000_000) {
        let mut pipeline = small_fixture();
        let engine = QaEngine::new(&pipeline).with_workers(2);
        let questions = question_pool();

        pipeline.set_feed_fault(Some(FeedFault { seed, rate: 1.0 }));
        let snapshot_before = pipeline.warehouse.snapshot();
        let facts_before = pipeline
            .warehouse
            .fact("City Weather")
            .expect("schema has the weather star")
            .len();
        let revision_before = pipeline.revision();

        let report = pipeline.submit_batch_with(&engine, &questions);
        prop_assert!(report.rolled_back);
        prop_assert!(report.feed_error.is_some());
        prop_assert_eq!(report.feed.loaded, 0, "a rolled-back feed reports no loads");
        prop_assert_eq!(
            pipeline.warehouse.fact("City Weather").expect("weather star").len(),
            facts_before
        );
        prop_assert_eq!(pipeline.revision(), revision_before, "no spurious cache bump");
        prop_assert_eq!(pipeline.warehouse.snapshot(), snapshot_before);
        prop_assert_eq!(engine.metrics().counter_value(names::ROLLBACKS), 1);

        // The same batch commits once the fault lifts: nothing was
        // corrupted by the failed attempt.
        pipeline.set_feed_fault(None);
        let report = pipeline.submit_batch_with(&engine, &questions);
        prop_assert!(!report.rolled_back);
        prop_assert!(report.feed.loaded > 0);
        prop_assert_eq!(pipeline.revision(), revision_before + 1);
    }
}

#[test]
fn permanent_failure_yields_source_unavailable_within_deadline() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let mut pipeline = small_fixture();
    let deadline = Duration::from_secs(5);
    let source = chaos_source(&pipeline, FaultPlan::new(seed).with_not_found(1.0));
    let engine = QaEngine::new(&pipeline)
        .with_workers(4)
        .with_source(source)
        .with_deadline(deadline);
    let questions = question_pool();
    let start = Instant::now();
    let report = pipeline.submit_batch_with(&engine, &questions);
    let wall = start.elapsed();
    for (i, outcome) in report.outcomes.iter().enumerate() {
        assert_eq!(
            *outcome,
            AnswerOutcome::SourceUnavailable,
            "question {i}: {:?}",
            report.answers[i]
        );
        assert!(report.answers[i].is_empty());
    }
    // No hang: 404s are non-retryable, so the whole batch resolves well
    // inside one per-question deadline per worker.
    assert!(
        wall < deadline * (questions.len() as u32),
        "batch took {wall:?}"
    );
    assert_eq!(engine.metrics().counter_value(names::WORKER_DEATHS), 0);
    assert!(!report.rolled_back);
    assert_eq!(report.feed.loaded, 0, "nothing to load from empty answers");
}

#[test]
fn injected_panics_are_isolated_to_their_question() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let pipeline = small_fixture();
    let source = chaos_source(&pipeline, FaultPlan::new(seed).with_panic(1.0));
    let engine = QaEngine::new(&pipeline).with_workers(4).with_source(source);
    let questions = question_pool();
    let reports = engine.answer_batch_checked(&questions);
    assert_eq!(reports.len(), questions.len());
    // Every question that reached acquisition hit the poisoned fetch;
    // each failure stayed inside its own question.
    let panicked = reports
        .iter()
        .filter(|r| r.outcome == AnswerOutcome::Panicked)
        .count();
    assert!(panicked > 0, "metrics:\n{}", engine.metrics().render());
    for r in &reports {
        if r.outcome == AnswerOutcome::Panicked {
            assert!(r.answers.is_empty());
            assert!(
                r.detail.as_deref().unwrap_or("").contains("injected panic"),
                "{:?}",
                r.detail
            );
        }
    }
    // The pool survived: every slot was filled by a live worker.
    assert_eq!(engine.metrics().counter_value(names::WORKER_DEATHS), 0);
    assert_eq!(
        engine.metrics().counter_value("engine.outcome.panicked"),
        panicked as u64
    );
}

#[test]
fn zero_deadline_times_out_instead_of_hanging() {
    let pipeline = small_fixture();
    let engine = QaEngine::new(&pipeline)
        .with_workers(2)
        .with_deadline(Duration::ZERO);
    let questions = question_pool()[..4].to_vec();
    let reports = engine.answer_batch_checked(&questions);
    for r in &reports {
        assert_eq!(r.outcome, AnswerOutcome::TimedOut);
        assert!(r.answers.is_empty());
    }
    assert_eq!(
        engine.metrics().counter_value("engine.outcome.timed-out"),
        4
    );
}

#[test]
fn corrupted_bodies_degrade_but_never_alter_answers() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let pipeline = small_fixture();
    let clean_engine = QaEngine::new(&pipeline).with_cache_capacity(0);
    let q = monthly_question("Barcelona", 2004, Month::January);
    let clean = clean_engine.answer(&q);
    assert!(!clean.is_empty());

    // Truncate every body: extraction still runs, but any answer whose
    // sentence fell off the truncated tail is dropped, never mangled.
    let source = chaos_source(&pipeline, FaultPlan::new(seed).with_truncate(1.0));
    let engine = QaEngine::new(&pipeline).with_source(source);
    let report = engine.answer_checked(&q);
    assert_eq!(report.outcome, AnswerOutcome::Degraded);
    for a in &report.answers {
        assert!(clean.contains(a), "degraded run invented {a:?}");
    }

    // Degraded results are not cached: the engine reports a miss again.
    let misses_before = engine.metrics().counter_value(names::CACHE_MISSES);
    let again = engine.answer_checked(&q);
    assert_eq!(again.outcome, AnswerOutcome::Degraded);
    assert_eq!(
        engine.metrics().counter_value(names::CACHE_MISSES),
        misses_before + 1
    );
}

#[test]
fn fault_free_source_preserves_clean_behaviour() {
    let mut pipeline = small_fixture();
    let questions = question_pool();
    let clean_pipeline = small_fixture();
    let clean_engine = QaEngine::new(&clean_pipeline).with_cache_capacity(0);
    let clean: Vec<Vec<dwqa_qa::Answer>> =
        questions.iter().map(|q| clean_engine.answer(q)).collect();

    // A perfect source behind the full resilience stack changes nothing.
    let source = chaos_source(&pipeline, FaultPlan::new(1));
    let engine = QaEngine::new(&pipeline)
        .with_workers(4)
        .with_source(source)
        .with_deadline(Duration::from_secs(10));
    let report = pipeline.submit_batch_with(&engine, &questions);
    assert_eq!(report.answers, clean);
    assert!(report.outcomes.iter().all(|o| o.is_ok()));
    assert!(!report.rolled_back);
    assert!(report.feed.loaded > 0);
    assert_eq!(engine.metrics().gauge_value(names::SOURCE_RETRIES), 0);
    assert_eq!(engine.metrics().gauge_value(names::SOURCE_BREAKER_TRIPS), 0);
}
