//! `feedback_etl`: the paper's Step 5 as a job. A closed loop sends
//! `feedback` of 8 never-fed daily questions at a time to the durable
//! primary (sync standby, quorum 1), the next batch leaving as soon as
//! the previous one is acknowledged, while a low-rate open-loop `ask`
//! trickle reads beside it. Each stream has a connection of its own and
//! one request in flight, so a reply never queues behind the other
//! stream's unacknowledged bytes (see README).

use crate::cluster::{self, Cluster};
use crate::common::{self, Params};
use crate::load::{self, Kind, Op, Record, Scheduled};
use crate::report::{self, Outcome, Snap};
use crate::rng::{Rng, Zipf};
use crate::stats::{Dist, Windowed};
use dwqa_obs::names;
use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

/// Questions per `feedback` request.
const BATCH: usize = 8;
/// Trickle asks per second, evenly spaced.
const TRICKLE_RATE: f64 = 40.0;
/// Unmeasured warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Supply sizing constant, questions·months per second of run. A feed
/// transaction checkpoints the whole warehouse, so the pass consumes
/// about c/m questions per second at m months while m months supply
/// 213·m questions; m² ≥ K·T with K = 3c / 213 keeps three times the
/// supply a run of T seconds needs. On a quiet 2-CPU host c ≈ 22000
/// (328 questions/s at 67 months).
const SUPPLY_K: f64 = 310.0;
/// Tail levels (per-mille), fixed by the tail rule at the 20 s run:
/// several hundred feedbacks and 800 trickle asks.
const FEEDBACK_TAIL: u32 = 950;
const ASK_TAIL: u32 = 950;
/// Feedback batches (from the first) whose loaded tuples are scored.
const SCORED_BATCHES: usize = 96;

/// Months of corpus whose daily questions outlast a run of `seconds`.
fn months_for(seconds: u64) -> usize {
    let t = seconds as f64 + WARMUP.as_secs_f64();
    ((SUPPLY_K * t).sqrt().ceil() as usize).max(12)
}

fn trickle(rng: &mut Rng, zipf: &Zipf, pool: &[String], length: Duration) -> Vec<Scheduled> {
    load::fixed_rate(TRICKLE_RATE, length, |_| Op {
        kind: Kind::Ask,
        questions: vec![pool[zipf.sample(rng)].clone()],
    })
}

/// Acknowledged feedbacks of a log.
#[derive(Debug, Default)]
struct Acks {
    /// Rows loaded.
    loaded: u64,
    /// Tuples the feed skipped as already loaded.
    duplicates: u64,
    /// Feedbacks acknowledged.
    acked: usize,
    /// Acknowledged feedbacks that loaded nothing: every point their
    /// questions ask about was already loaded as a neighbouring day of
    /// an earlier question's page.
    empty: usize,
    /// Feedbacks refused, failed or timed out.
    failed: usize,
}

fn acks(records: &[Record]) -> Result<Acks, String> {
    let mut a = Acks::default();
    for r in records.iter().filter(|r| r.kind == Kind::Feedback) {
        if !common::succeeded(r) {
            a.failed += 1;
            continue;
        }
        let resp = r.response.as_ref().expect("a success has a reply");
        let n = resp
            .loaded
            .ok_or_else(|| format!("feedback {} ack without `loaded`", r.id))?;
        a.loaded += n;
        a.duplicates += resp.duplicates.unwrap_or(0);
        a.acked += 1;
        a.empty += usize::from(n == 0);
    }
    Ok(a)
}

/// Runs the workload; `Err` names the first failed output check.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let months = cluster::months(months_for(p.seconds));
    let store_dir = p.out_file("store");
    let (cluster, setup_s) = common::repeated_setup(
        |_| Cluster::start(p.seed, &months, &store_dir),
        |c: Cluster| drop(c.stop()),
    );
    let questions = cluster::questions(&months);
    // Check: the supply never repeats a question, so every feedback is
    // fed fresh questions for the whole run.
    let distinct: HashSet<&str> = questions.iter().map(|(q, _)| q.as_str()).collect();
    if distinct.len() != questions.len() {
        return Err("the never-fed supply repeats a question".to_owned());
    }
    let mut order: Vec<usize> = (0..questions.len()).collect();
    let mut rng = Rng::new(p.seed ^ 0x0E71_FEED);
    rng.shuffle(&mut order);
    let mut supply: VecDeque<Vec<String>> = order
        .chunks(BATCH)
        .map(|c| c.iter().map(|&i| questions[i].0.clone()).collect())
        .collect();
    let mut exhausted = false;
    // The closed loop: the next never-fed batch on every reply.
    let mut next_batch = || {
        let batch = supply.pop_front();
        exhausted |= batch.is_none();
        batch.map(|questions| Op {
            kind: Kind::Feedback,
            questions,
        })
    };
    let pool: Vec<String> = order.iter().map(|&i| questions[i].0.clone()).collect();
    let zipf = Zipf::new(pool.len(), 1.0);
    let addr = cluster.primary.local_addr();
    let tracer = cluster.primary.engine().tracer().clone();
    tracer.set_enabled(false);
    let spans = p.span_log();

    let asks = trickle(&mut rng, &zipf, &pool, WARMUP);
    let warm = load::closed_and_trickle(addr, &mut next_batch, asks, WARMUP, None, &spans)
        .map_err(|e| format!("warm-up connections: {e}"))?;

    let registries = [
        cluster.primary.metrics().as_ref(),
        cluster.standby.metrics().as_ref(),
    ];
    let before = Snap::take(&registries);
    let ticks = report::CpuTicks::now();
    let windows = p.trace.then(|| common::trace_windows(&tracer, &spans));
    let asks = trickle(&mut rng, &zipf, &pool, p.window());
    let log = load::closed_and_trickle(
        addr,
        &mut next_batch,
        asks,
        p.window(),
        windows.as_ref(),
        &spans,
    )
    .map_err(|e| format!("load connections: {e}"))?;
    let delta = Snap::take(&registries).since(&before);
    let steal_pct = report::CpuTicks::now().steal_pct_since(&ticks);

    if exhausted {
        return Err(format!(
            "the never-fed question supply ({} months) ran out before the run ended",
            months.len()
        ));
    }
    if p.trace {
        std::fs::write(
            p.out_file("server-traces.jsonl"),
            cluster.primary.engine().flight_recorder().dump_jsonl(),
        )
        .map_err(|e| format!("write server traces: {e}"))?;
        spans
            .write_jsonl(&p.out_file("spans.jsonl"))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    let truth = cluster.truth.clone();
    let (primary, standby) = cluster.stop();

    // Check: acknowledged loads add up to the primary's weather rows,
    // and the standby holds exactly the primary's warehouse.
    let warm_acks = acks(&warm.records)?;
    let run_acks = acks(&log.records)?;
    let rows = primary
        .warehouse
        .fact("City Weather")
        .map_err(|e| format!("no City Weather fact: {e}"))?
        .len() as u64;
    let acked_rows = warm_acks.loaded + run_acks.loaded;
    if (warm_acks.failed + run_acks.failed == 0 && acked_rows != rows) || acked_rows > rows {
        return Err(format!(
            "acknowledged loads total {acked_rows} rows but the primary holds {rows}"
        ));
    }
    if primary.warehouse.snapshot() != standby.warehouse.snapshot() {
        return Err("the standby's warehouse differs from the primary's".to_owned());
    }

    // Quality: the loaded tuples of the first SCORED_BATCHES feedbacks'
    // own points against the corpus truth.
    let scored: Vec<&Record> = warm
        .records
        .iter()
        .chain(&log.records)
        .filter(|r| r.kind == Kind::Feedback && common::succeeded(r))
        .take(SCORED_BATCHES)
        .collect();
    let point_of: HashMap<&str, &(String, dwqa_common::Date)> = questions
        .iter()
        .map(|(q, point)| (q.as_str(), point))
        .collect();
    let mut covered = HashSet::new();
    let mut points = Vec::new();
    for r in &scored {
        for answer in r
            .response
            .iter()
            .flat_map(|x| x.answers.iter().flatten().flatten())
        {
            if let (Some(city), Some(date)) = (&answer.context_location, answer.context_date) {
                covered.insert((dwqa_common::text::fold(city), date));
            }
        }
        points.extend(r.questions.iter().map(|q| point_of[q.as_str()].clone()));
    }
    let weather = common::loaded_weather(&primary.warehouse);
    let (precision, recall) = common::score_points(
        &points,
        &weather,
        |key| covered.contains(key),
        common::oracle(&truth),
    );

    let (mut feedbacks, plain, traced) = common::dists(&log.records, Kind::Feedback, p.window());
    let (mut asks, _, _) = common::dists(&log.records, Kind::Ask, p.window());
    let mut rows_loaded = Windowed::new(p.window());
    for r in log
        .records
        .iter()
        .filter(|r| r.kind == Kind::Feedback && common::succeeded(r))
    {
        let n = r.response.as_ref().and_then(|x| x.loaded).unwrap_or(0);
        rows_loaded.work(r.at, r.at + r.latency.unwrap_or_default(), n as f64);
    }
    let mut out = Outcome {
        attempted: log.records.len() as u64,
        failed: (feedbacks.failed() + asks.failed()) as u64,
        ..Outcome::default()
    };
    out.set("setup_s", setup_s);
    out.latency(
        "main",
        "feedback of 8, to the sync-quorum ack",
        &mut feedbacks,
        FEEDBACK_TAIL,
    );
    out.latency("side", "trickle ask", &mut asks, ASK_TAIL);
    out.set("goodput_per_s", rows_loaded.rate());
    out.set("precision", precision);
    out.set("recall", recall);
    out.set(
        "ok_frac",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.notes.push(format!(
        "{} months; {} feedbacks acked, {} of them loading nothing ({} rows, {} duplicate \
         tuples skipped); {rows} weather rows; quality over {} points",
        months.len(),
        run_acks.acked,
        run_acks.empty,
        run_acks.loaded,
        run_acks.duplicates,
        points.len()
    ));

    report::server_layers(&mut out, &delta);
    report::wal_bytes_per_row(&mut out, &delta, run_acks.loaded as f64);
    out.set("core.feed_txns", delta.samples(names::STAGE_FEED));
    out.set("core.feed_txn_mean_us", delta.mean_us(names::STAGE_FEED));
    let residual = delta.sum_us(names::SERVER_SERVICE_TIME)
        - delta.sum_us(names::SERVER_QUEUE_WAIT)
        - delta.sum_us(names::STAGE_ANALYZE)
        - delta.sum_us(names::STAGE_PASSAGES)
        - delta.sum_us(names::STAGE_EXTRACT)
        - delta.sum_us(names::STAGE_FEED);
    out.set(
        "server.feedback_residual_mean_us",
        report::ratio(residual, feedbacks.len() as f64),
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
    out.set("obs.bench_spans", spans.len() as f64);
    drop((primary, standby));
    out.set("peak_rss_mb", report::peak_rss_mb());
    Ok(out)
}
