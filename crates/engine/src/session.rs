//! The concurrent batch engine and the session-oriented API.
//!
//! [`QaEngine`] drives the pipeline's immutable read path with a pool of
//! scoped worker threads and an LRU answer cache; [`QaSession`] wraps an
//! engine with per-session history; [`SubmitBatch`] puts
//! `pipeline.submit_batch(&questions)` on [`IntegrationPipeline`],
//! combining the concurrent read phase with the serialized write phase
//! into one deterministic [`BatchReport`].

use crate::cache::{normalize_question, AnswerCache};
use crate::outcome::{panic_message, AnswerOutcome, QuestionReport};
use crate::stats::Instruments;
use dwqa_core::{FeedReport, IntegrationPipeline, ReadPath};
use dwqa_faults::{DocumentSource, Fetched, SourceHealth};
use dwqa_obs::{FlightRecorder, MetricsRegistry, Trace, Tracer};
use dwqa_qa::{Answer, PipelineTrace};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default answer-cache capacity (questions).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Whether a deadline has passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Collapses all whitespace runs to single spaces, so sentence
/// containment is robust to the newline/trim normalisation the sentence
/// splitter applies.
fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The concurrent QA engine: a worker pool over the pipeline's immutable
/// read path, an answer cache, and per-stage statistics. Shareable across
/// threads by reference; cheap to construct from any pipeline.
///
/// Optionally hardened: with a [`DocumentSource`] attached
/// ([`QaEngine::with_source`]) every cache miss re-acquires its passage
/// documents through the (possibly unreliable) source and re-validates
/// extracted answers against the fetched bodies; with a deadline
/// ([`QaEngine::with_deadline`]) each question gets a wall-clock budget.
/// Worker panics are always isolated to the offending question.
pub struct QaEngine {
    read: ReadPath,
    cache: AnswerCache,
    instruments: Instruments,
    tracer: Tracer,
    workers: usize,
    source: Option<Arc<dyn DocumentSource>>,
    deadline: Option<Duration>,
}

impl QaEngine {
    /// An engine over the pipeline's read path, with one worker per
    /// available core (at least one) and the default cache capacity.
    pub fn new(pipeline: &IntegrationPipeline) -> QaEngine {
        QaEngine::over(pipeline.read_path())
    }

    /// An engine over an explicit read path.
    pub fn over(read: ReadPath) -> QaEngine {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        QaEngine {
            read,
            cache: AnswerCache::new(DEFAULT_CACHE_CAPACITY),
            instruments: Instruments::new(Arc::new(MetricsRegistry::new())),
            tracer: Tracer::default(),
            workers,
            source: None,
            deadline: None,
        }
    }

    /// Sets the worker-pool size (clamped to at least one).
    pub fn with_workers(mut self, workers: usize) -> QaEngine {
        self.workers = workers.max(1);
        self
    }

    /// Attaches a document source: every cache miss re-acquires its
    /// passage documents through it and re-validates extracted answers
    /// against the fetched bodies.
    pub fn with_source(mut self, source: Arc<dyn DocumentSource>) -> QaEngine {
        self.source = Some(source);
        self
    }

    /// Sets or clears the document source in place (the REPL's `:chaos`
    /// toggle).
    pub fn set_source(&mut self, source: Option<Arc<dyn DocumentSource>>) {
        self.source = source;
    }

    /// Gives every question a wall-clock budget; on expiry the question
    /// reports [`AnswerOutcome::TimedOut`] instead of running on.
    pub fn with_deadline(mut self, budget: Duration) -> QaEngine {
        self.deadline = Some(budget);
        self
    }

    /// Sets or clears the per-question deadline in place.
    pub fn set_deadline(&mut self, budget: Option<Duration>) {
        self.deadline = budget;
    }

    /// The attached document source, if any.
    pub fn source(&self) -> Option<&Arc<dyn DocumentSource>> {
        self.source.as_ref()
    }

    /// The per-question deadline, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Cumulative health of the attached source stack.
    pub fn source_health(&self) -> Option<SourceHealth> {
        self.source.as_ref().map(|s| s.health())
    }

    /// Replaces the answer cache with one of the given capacity
    /// (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> QaEngine {
        self.cache = AnswerCache::new(capacity);
        self
    }

    /// Turns per-question trace collection on or off. Tracing also
    /// defaults on when the `DWQA_TRACE` environment variable is set.
    pub fn with_tracing(self, on: bool) -> QaEngine {
        self.tracer.set_enabled(on);
        self
    }

    /// Replaces the flight recorder with one keeping the last
    /// `capacity` question traces, preserving the enabled switch.
    pub fn with_trace_capacity(mut self, capacity: usize) -> QaEngine {
        let enabled = self.tracer.enabled();
        self.tracer = Tracer::new(capacity);
        self.tracer.set_enabled(enabled || self.tracer.enabled());
        self
    }

    /// Toggles trace collection in place (the REPL's `:trace` switch).
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Whether per-question traces are currently being collected.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// The engine's tracer (switch + flight recorder).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The flight recorder holding the most recent question traces.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        self.tracer.recorder()
    }

    /// The worker-pool size used by [`QaEngine::answer_batch`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's metrics registry (live; updated by every answer and
    /// shared with the retrieval, warehouse and store layers below it).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.instruments.registry()
    }

    /// The engine's answer cache.
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// The underlying read path.
    pub fn read_path(&self) -> &ReadPath {
        &self.read
    }

    /// Answers one question, consulting the cache first. A cached entry
    /// is served only if it was computed against the current warehouse
    /// revision; feedback ETL therefore invalidates it.
    ///
    /// Shorthand for [`QaEngine::answer_checked`] when the outcome tag is
    /// not needed.
    pub fn answer(&self, question: &str) -> Vec<Answer> {
        self.answer_checked(question).answers
    }

    /// Answers one question with full hardening: panic isolation, the
    /// per-question deadline, and (when a source is attached) document
    /// re-acquisition with answer re-validation. Never panics; the
    /// outcome tag says how the attempt ended.
    pub fn answer_checked(&self, question: &str) -> QuestionReport {
        self.answer_observed(question, None, None)
    }

    /// [`QaEngine::answer_checked`] with an explicit wall-clock deadline
    /// for this one question, overriding the engine-wide budget. `None`
    /// falls back to the engine's [`QaEngine::with_deadline`] default.
    /// This is how a service front end propagates a per-request deadline
    /// down to the pipeline stages without reconfiguring the shared
    /// engine.
    pub fn answer_checked_by(&self, question: &str, deadline: Option<Instant>) -> QuestionReport {
        self.answer_observed(question, None, deadline)
    }

    /// [`QaEngine::answer_checked`] under an observation context: the
    /// engine's registry (and, when tracing is on, a fresh trace rooted
    /// at a `question` span) is installed for the duration of the
    /// question, so every layer below records without handle threading.
    fn answer_observed(
        &self,
        question: &str,
        batch_index: Option<usize>,
        deadline: Option<Instant>,
    ) -> QuestionReport {
        self.instruments.record_question();
        let obs = dwqa_obs::observe(
            Some(Arc::clone(self.instruments.registry())),
            Some(&self.tracer),
            "question",
            question,
        );
        if let Some(i) = batch_index {
            obs.root_field("batch_index", i);
        }
        let deadline = deadline.or_else(|| self.deadline.map(|budget| Instant::now() + budget));
        let report =
            match catch_unwind(AssertUnwindSafe(|| self.answer_guarded(question, deadline))) {
                Ok(report) => report,
                Err(payload) => QuestionReport::panicked(panic_message(payload.as_ref())),
            };
        self.instruments.record_outcome(report.outcome);
        obs.root_field("outcome", report.outcome.label());
        obs.root_field("answers", report.answers.len());
        if let Some(detail) = &report.detail {
            obs.root_field("detail", detail.as_str());
        }
        if let Some(health) = self.source_health() {
            self.instruments.sync_source_health(&health);
        }
        report
    }

    /// The guarded answer path (runs under `catch_unwind`).
    fn answer_guarded(&self, question: &str, deadline: Option<Instant>) -> QuestionReport {
        let key = normalize_question(question);
        let revision = self.read.revision();
        if let Some(hit) = self.cache.lookup(&key, revision) {
            self.instruments.record_cache_hit();
            dwqa_obs::root_field("cache", "hit");
            return QuestionReport::ok(hit);
        }
        self.instruments.record_cache_miss();
        dwqa_obs::root_field("cache", "miss");
        let qa = self.read.qa();
        let t = Instant::now();
        let analysis = {
            let _span = dwqa_obs::span!("analyze");
            qa.analyze(question)
        };
        self.instruments.analyze.record(t.elapsed());
        if expired(deadline) {
            return QuestionReport::timed_out("deadline expired after question analysis");
        }
        let t = Instant::now();
        let mut passages = {
            let span = dwqa_obs::span!("passages");
            let passages = qa.passages(&analysis);
            span.record("returned", passages.len());
            passages
        };
        self.instruments.passages.record(t.elapsed());
        if expired(deadline) {
            return QuestionReport::timed_out("deadline expired after passage selection");
        }

        // Acquisition phase: when a source is attached, re-fetch every
        // passage document through it. Failed documents drop their
        // passages; corrupted bodies force answer re-validation below.
        let mut fetched_by_url: HashMap<String, Fetched> = HashMap::new();
        let mut faults: Vec<String> = Vec::new();
        if let (Some(source), Some(store)) = (&self.source, qa.store()) {
            let span = dwqa_obs::span!("acquire");
            let mut urls: Vec<&str> = Vec::new();
            for p in &passages {
                let url = store.get(p.doc).url.as_str();
                if !urls.contains(&url) {
                    urls.push(url);
                }
            }
            span.record("urls", urls.len());
            for url in &urls {
                match source.fetch_by(url, deadline) {
                    Ok(fetched) => {
                        if !fetched.integrity.is_intact() {
                            faults.push(format!("{url}: body {:?}", fetched.integrity));
                        }
                        fetched_by_url.insert((*url).to_owned(), fetched);
                    }
                    Err(err) => faults.push(format!("{url}: {err}")),
                }
            }
            span.record("fetched", fetched_by_url.len());
            span.record("faults", faults.len());
            if !urls.is_empty() && fetched_by_url.is_empty() {
                return QuestionReport::source_unavailable(faults.join("; "));
            }
            passages.retain(|p| fetched_by_url.contains_key(&store.get(p.doc).url));
            if expired(deadline) {
                return QuestionReport::timed_out("deadline expired during document acquisition");
            }
        }

        let t = Instant::now();
        let mut answers = {
            let span = dwqa_obs::span!("extract", passages = passages.len());
            let answers = qa.extract(&analysis, &passages);
            span.record("answers", answers.len());
            answers
        };
        self.instruments.extract.record(t.elapsed());

        // Re-validation: an answer extracted from a re-acquired document
        // survives only if the fetched body is intact or still contains
        // the answer sentence verbatim (modulo whitespace). Corruption
        // can therefore only *drop* answers, never alter their values.
        if self.source.is_some() {
            let span = dwqa_obs::span!("validate", answers = answers.len());
            let before = answers.len();
            answers.retain(|a| match fetched_by_url.get(&a.url) {
                Some(f) if f.integrity.is_intact() => true,
                Some(f) => normalize_ws(&f.doc.text).contains(&normalize_ws(&a.sentence)),
                None => false,
            });
            let dropped = before - answers.len();
            span.record("dropped", dropped);
            if dropped > 0 {
                faults.push(format!("{dropped} answer(s) failed body re-validation"));
            }
        }

        if !faults.is_empty() {
            // Degraded answers are not cached: a retry may fetch clean
            // copies and produce a first-class result.
            return QuestionReport::degraded(answers, faults.join("; "));
        }
        self.cache.store(key, revision, answers.clone());
        QuestionReport::ok(answers)
    }

    /// The Table-1 trace for a question (uncached).
    pub fn trace(&self, question: &str) -> PipelineTrace {
        self.read.trace(question)
    }

    /// Pre-seeds the cache by answering `questions` (on the calling
    /// thread), so a later batch over them is served from memory.
    pub fn warm(&self, questions: &[String]) {
        for q in questions {
            let _ = self.answer(q);
        }
    }

    /// Answers a batch concurrently on the worker pool. Results come
    /// back **in input order** regardless of which worker finished
    /// first, so merging is deterministic.
    pub fn answer_batch(&self, questions: &[String]) -> Vec<Vec<Answer>> {
        self.answer_batch_checked(questions)
            .into_iter()
            .map(|report| report.answers)
            .collect()
    }

    /// Like [`QaEngine::answer_batch`], returning the full per-question
    /// reports (answers + outcome tags), in input order. One poisoned
    /// question yields a [`AnswerOutcome::Panicked`] report for that
    /// question only — the worker pool survives.
    pub fn answer_batch_checked(&self, questions: &[String]) -> Vec<QuestionReport> {
        self.instruments.record_batch();
        let n = questions.len();
        let workers = self.workers.min(n.max(1));
        if workers <= 1 {
            return questions
                .iter()
                .enumerate()
                .map(|(i, q)| self.answer_observed(q, Some(i), None))
                .collect();
        }
        let slots: Vec<Mutex<Option<QuestionReport>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let joined = crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| loop {
                    // Work stealing off a shared index: whichever worker
                    // is free takes the next question, but every report
                    // lands in its question's slot.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let report = self.answer_observed(&questions[i], Some(i), None);
                    *slots[i].lock() = Some(report);
                });
            }
        });
        if joined.is_err() {
            // answer_checked isolates panics, so a worker death here is
            // a bug — count it (the chaos harness asserts this stays 0)
            // and degrade the unfilled slots instead of poisoning the
            // whole batch.
            self.instruments.record_worker_death();
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner().unwrap_or_else(|| {
                    QuestionReport::panicked(
                        "batch worker died before filling this slot".to_owned(),
                    )
                })
            })
            .collect()
    }
}

/// A session over the integrated system: an engine plus the history of
/// questions asked through it. Sessions are the unit of interaction for
/// the REPL and the experiment binaries.
pub struct QaSession {
    engine: QaEngine,
    history: Vec<String>,
}

impl QaSession {
    /// Opens a session on a pipeline with a default engine.
    pub fn new(pipeline: &IntegrationPipeline) -> QaSession {
        QaSession::with_engine(QaEngine::new(pipeline))
    }

    /// Opens a session over a pre-configured engine.
    pub fn with_engine(engine: QaEngine) -> QaSession {
        QaSession {
            engine,
            history: Vec::new(),
        }
    }

    /// Asks one question (cached, recorded in the session history).
    pub fn ask(&mut self, question: &str) -> Vec<Answer> {
        self.ask_checked(question).answers
    }

    /// Asks one question, returning the full report (answers + outcome
    /// tag), recorded in the session history.
    pub fn ask_checked(&mut self, question: &str) -> QuestionReport {
        self.history.push(question.to_owned());
        self.engine.answer_checked(question)
    }

    /// Asks a batch concurrently (recorded in the session history).
    pub fn ask_batch(&mut self, questions: &[String]) -> Vec<Vec<Answer>> {
        self.history.extend(questions.iter().cloned());
        self.engine.answer_batch(questions)
    }

    /// The Table-1 trace for a question (not recorded).
    pub fn trace(&self, question: &str) -> PipelineTrace {
        self.engine.trace(question)
    }

    /// Every question asked through this session, in order.
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// The session's engine.
    pub fn engine(&self) -> &QaEngine {
        &self.engine
    }

    /// The session's engine, mutably (to toggle the source or deadline).
    pub fn engine_mut(&mut self) -> &mut QaEngine {
        &mut self.engine
    }

    /// The session engine's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.engine.metrics()
    }
}

/// The outcome of one batch submission: per-question answers and outcome
/// tags (input order), the merged feed report, and timing.
#[derive(Debug)]
pub struct BatchReport {
    /// Answers per question, aligned with the submitted slice.
    pub answers: Vec<Vec<Answer>>,
    /// How each question's attempt ended, aligned with the slice.
    pub outcomes: Vec<AnswerOutcome>,
    /// The merged Step-5 report over the whole batch. Empty when the
    /// feed transaction rolled back — Step 5 is all-or-nothing.
    pub feed: FeedReport,
    /// Whether the feed transaction failed and was rolled back.
    pub rolled_back: bool,
    /// The feed failure, when `rolled_back`.
    pub feed_error: Option<String>,
    /// True when the pipeline has a durable store attached, so a
    /// committed feed was WAL-logged before being acknowledged.
    pub durable: bool,
    /// Worker threads used for the read phase.
    pub workers: usize,
    /// Wall-clock time of the whole submission (read + write phase).
    pub wall: Duration,
    /// The worst-latency question trace of this batch, when the
    /// engine's tracer was enabled (`None` otherwise).
    pub worst_trace: Option<Trace>,
}

/// Batch submission over an [`IntegrationPipeline`]: answer concurrently,
/// feed serially, report deterministically.
pub trait SubmitBatch {
    /// Submits a batch with a default engine (no cache reuse across
    /// calls; use [`SubmitBatch::submit_batch_with`] to keep one).
    fn submit_batch(&mut self, questions: &[String]) -> BatchReport;

    /// Submits a batch through an existing engine, reusing its cache,
    /// worker configuration and statistics.
    fn submit_batch_with(&mut self, engine: &QaEngine, questions: &[String]) -> BatchReport;
}

impl SubmitBatch for IntegrationPipeline {
    fn submit_batch(&mut self, questions: &[String]) -> BatchReport {
        let engine = QaEngine::new(self);
        self.submit_batch_with(&engine, questions)
    }

    fn submit_batch_with(&mut self, engine: &QaEngine, questions: &[String]) -> BatchReport {
        let start = Instant::now();
        // Read phase: concurrent, order-preserving.
        let reports = engine.answer_batch_checked(questions);
        // Write phase: one all-or-nothing transaction, serialized in
        // input order, so on commit the warehouse ends in exactly the
        // state sequential ask-and-feed would produce — and on failure
        // it is untouched (no partial load, no spurious revision bump).
        let batches: Vec<&[Answer]> = reports.iter().map(|r| r.answers.as_slice()).collect();
        let t = Instant::now();
        // The write phase gets its own observation, so the feed
        // transaction's span and commit/rollback events land in the
        // flight recorder alongside the per-question traces.
        let feed_result = {
            let _obs = dwqa_obs::observe(
                Some(Arc::clone(engine.metrics())),
                Some(engine.tracer()),
                "feed",
                "batch feed",
            );
            self.feed_batch(&batches)
        };
        engine.instruments.feed.record(t.elapsed());
        let (feed, rolled_back, feed_error) = match feed_result {
            Ok(feed) => (feed, false, None),
            Err(err) => {
                engine.instruments.record_rollback();
                (FeedReport::default(), true, Some(err.to_string()))
            }
        };
        // Back-annotate the batch-level feed disposition onto the
        // question traces (plus the feed trace itself), then pick this
        // batch's worst-latency question trace for the report.
        let disposition = if rolled_back {
            "rolled-back"
        } else if feed.loaded > 0 {
            "committed"
        } else {
            "no-op"
        };
        let recorder = engine.flight_recorder();
        recorder.annotate_last(questions.len() + 1, "feed", disposition.into());
        let worst_trace = recorder
            .recent()
            .into_iter()
            .rev()
            .take(questions.len() + 1)
            .filter(|t| t.root().map(|r| r.name == "question").unwrap_or(false))
            .max_by_key(|t| t.root().map(|r| r.elapsed_us).unwrap_or(0));
        let outcomes = reports.iter().map(|r| r.outcome).collect();
        let answers = reports.into_iter().map(|r| r.answers).collect();
        BatchReport {
            answers,
            outcomes,
            feed,
            rolled_back,
            feed_error,
            durable: self.is_durable(),
            workers: engine.workers(),
            wall: start.elapsed(),
            worst_trace,
        }
    }
}
