//! `interactive`: open-loop asks and batches, Poisson arrivals at a fixed
//! mean rate over one pipelined connection, Zipf-skewed over the daily questions of a
//! 12-month corpus (about 2.5k distinct questions against a 256-entry
//! answer cache). No writes.

use crate::cluster::{self, Cluster};
use crate::common::{self, Params};
use crate::load::{self, Kind, Op, Scheduled};
use crate::report::{self, Outcome, Snap};
use crate::rng::{Rng, Zipf};
use crate::stats::{Dist, Windowed};
use dwqa_core::evaluate_temperatures;
use dwqa_qa::Answer;
use std::collections::HashMap;
use std::time::Duration;

/// Months of corpus.
const MONTHS: usize = 12;
/// Mean arrivals per second (asks and batches together), Poisson.
const RATE: f64 = 200.0;
/// Every tenth arrival is a batch.
const BATCH_EVERY: usize = 10;
/// Questions per batch.
const BATCH: usize = 8;
/// Zipf exponent of question popularity.
const ZIPF_S: f64 = 1.0;
/// Unmeasured warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(2);
/// Tail levels (per-mille), fixed by the tail rule at the 20 s run:
/// about 3600 asks and 400 batches.
const ASK_TAIL: u32 = 990;
const BATCH_TAIL: u32 = 950;
/// Distinct questions re-asked in process after the run.
const REASK_SAMPLE: usize = 32;
/// Distinct questions whose answers are scored against the truth.
const SCORED: usize = 256;

/// The arrivals of `length`, times and questions drawn from `rng`.
fn schedule(rng: &mut Rng, zipf: &Zipf, pool: &[String], length: Duration) -> Vec<Scheduled> {
    let times = rng.poisson(RATE, length);
    times
        .into_iter()
        .enumerate()
        .map(|(i, at)| {
            let (kind, n) = if i % BATCH_EVERY == BATCH_EVERY - 1 {
                (Kind::Batch, BATCH)
            } else {
                (Kind::Ask, 1)
            };
            let questions = (0..n).map(|_| pool[zipf.sample(rng)].clone()).collect();
            Scheduled {
                at,
                op: Op { kind, questions },
            }
        })
        .collect()
}

/// Runs the workload; `Err` names the first failed output check.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let months = cluster::months(MONTHS);
    let store_dir = p.out_file("store");
    let (cluster, setup_s) = common::repeated_setup(
        |_| Cluster::start(p.seed, &months, &store_dir),
        |c: Cluster| drop(c.stop()),
    );
    let questions = cluster::questions(&months);
    let points: HashMap<String, (String, dwqa_common::Date)> = questions.iter().cloned().collect();
    let mut pool: Vec<String> = questions.into_iter().map(|(q, _)| q).collect();
    let mut rng = Rng::new(p.seed ^ 0x1A7E_11AC);
    rng.shuffle(&mut pool);
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let addr = cluster.primary.local_addr();
    let tracer = cluster.primary.engine().tracer().clone();
    tracer.set_enabled(false);

    // Warm-up: fill the answer cache at the measured rate.
    let spans = p.span_log();
    let drain = Duration::from_secs(30);
    let warm = schedule(&mut rng, &zipf, &pool, WARMUP);
    load::pipelined(addr, warm, WARMUP, drain, None, &spans)
        .map_err(|e| format!("warm-up connection: {e}"))?;

    let registries = [
        cluster.primary.metrics().as_ref(),
        cluster.standby.metrics().as_ref(),
    ];
    let before = Snap::take(&registries);
    let ticks = report::CpuTicks::now();
    let windows = p.trace.then(|| common::trace_windows(&tracer, &spans));
    let arrivals = schedule(&mut rng, &zipf, &pool, p.window());
    let log = load::pipelined(addr, arrivals, p.window(), drain, windows.as_ref(), &spans)
        .map_err(|e| format!("load connection: {e}"))?;
    let delta = Snap::take(&registries).since(&before);
    let steal_pct = report::CpuTicks::now().steal_pct_since(&ticks);

    // Check: every ok reply to the same question carries identical
    // answers (a cache hit equals a miss).
    let mut seen: HashMap<&str, &Vec<Answer>> = HashMap::new();
    let mut order: Vec<&str> = Vec::new();
    let mut answered = Windowed::new(p.window());
    for r in log.records.iter().filter(|r| common::succeeded(r)) {
        let answers = r
            .response
            .as_ref()
            .and_then(|resp| resp.answers.as_ref())
            .ok_or_else(|| format!("request {} replied ok without answers", r.id))?;
        if answers.len() != r.questions.len() {
            return Err(format!(
                "request {}: {} answer sets for {} questions",
                r.id,
                answers.len(),
                r.questions.len()
            ));
        }
        answered.work(
            r.at,
            r.at + r.latency.unwrap_or_default(),
            r.questions.len() as f64,
        );
        for (q, a) in r.questions.iter().zip(answers) {
            match seen.get(q.as_str()) {
                Some(first) if *first != a => {
                    return Err(format!("two ok replies to {q:?} carry different answers"));
                }
                Some(_) => {}
                None => {
                    seen.insert(q, a);
                    order.push(q);
                }
            }
        }
    }
    // Check: a fixed sample re-asked in process matches the wire.
    let read = cluster.primary.engine().read_path().clone();
    for q in order.iter().take(REASK_SAMPLE) {
        if read.answer(q) != *seen[q] {
            return Err(format!(
                "in-process answer to {q:?} differs from the served one"
            ));
        }
    }

    // Quality: the first SCORED distinct questions' answers against the
    // corpus truth, each question expecting its own point.
    let scored: Vec<&str> = order.iter().take(SCORED).copied().collect();
    let tuples: Vec<Answer> = scored
        .iter()
        .flat_map(|q| seen[q].iter().cloned())
        .collect();
    let expected: Vec<(String, dwqa_common::Date)> =
        scored.iter().map(|q| points[*q].clone()).collect();
    let eval = evaluate_temperatures(
        &tuples,
        common::oracle(&cluster.truth),
        &expected,
        common::TOLERANCE_C,
    );

    let (mut asks, plain, traced) = common::dists(&log.records, Kind::Ask, p.window());
    let (mut batches, _, _) = common::dists(&log.records, Kind::Batch, p.window());
    let mut out = Outcome {
        attempted: log.records.len() as u64,
        failed: (asks.failed() + batches.failed()) as u64,
        ..Outcome::default()
    };
    out.set("setup_s", setup_s);
    out.latency("main", "ask", &mut asks, ASK_TAIL);
    out.latency("side", "batch of 8", &mut batches, BATCH_TAIL);
    out.set("goodput_per_s", answered.rate());
    out.set("precision", eval.precision());
    out.set("recall", eval.recall());
    out.set(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.notes.push(format!(
        "quality over {} questions: tp={} fp={} fn={}",
        scored.len(),
        eval.true_positives,
        eval.false_positives,
        eval.false_negatives
    ));

    // Per-layer figures.
    report::server_layers(&mut out, &delta);
    let ok_rtt: Vec<f64> = log
        .records
        .iter()
        .filter(|r| common::succeeded(r))
        .filter_map(|r| r.round_trip)
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    let rtt_mean = ok_rtt.iter().sum::<f64>() / ok_rtt.len().max(1) as f64;
    let service = delta.mean_us(dwqa_obs::names::SERVER_SERVICE_TIME);
    out.set("server.wire_mean_us", rtt_mean - service);
    let n = delta.samples(dwqa_obs::names::SERVER_SERVICE_TIME);
    let stages = delta.sum_us(dwqa_obs::names::STAGE_ANALYZE)
        + delta.sum_us(dwqa_obs::names::STAGE_PASSAGES)
        + delta.sum_us(dwqa_obs::names::STAGE_EXTRACT);
    let unattributed = delta.sum_us(dwqa_obs::names::SERVER_SERVICE_TIME)
        - delta.sum_us(dwqa_obs::names::SERVER_QUEUE_WAIT)
        - stages;
    out.set(
        "server.unattributed_mean_us",
        report::ratio(unattributed, n),
    );
    let mut lags = Dist::default();
    for &lag in &log.send_lag_us {
        lags.ok(lag as f64);
    }
    out.set("harness.operations", log.records.len() as f64);
    out.set("harness.cpu_steal_pct", steal_pct);
    out.notes
        .push(format!("CPU steal during the window: {steal_pct:.1}%"));
    out.set("harness.send_lag_tail_us", lags.quantile(ASK_TAIL));
    common::trace_overhead(&mut out, plain, traced);

    if p.trace {
        let recorder = cluster.primary.engine().flight_recorder();
        std::fs::write(p.out_file("server-traces.jsonl"), recorder.dump_jsonl())
            .map_err(|e| format!("write server traces: {e}"))?;
        spans
            .write_jsonl(&p.out_file("spans.jsonl"))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    out.set("obs.bench_spans", spans.len() as f64);
    drop(cluster.stop());
    out.set("peak_rss_mb", report::peak_rss_mb());
    Ok(out)
}
