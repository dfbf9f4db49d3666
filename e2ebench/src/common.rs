//! Pieces every workload shares: run parameters, repeated set-up, the
//! success rule, trace-overhead arithmetic and tuple scoring.

use crate::load::{Kind, Record, TraceWindows};
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::stats::{median, Dist, Windowed};
use dwqa_common::Date;
use dwqa_corpus::GroundTruth;
use dwqa_server::Status;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Length of one traced or untraced window in a traced run.
pub const TRACE_WINDOW: Duration = Duration::from_millis(500);

/// Tolerance when scoring a temperature against the ground truth, °C
/// (readings are written as whole degrees).
pub const TOLERANCE_C: f64 = 0.51;

/// The command line of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: u64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Where stores, spans and traces go.
    pub out_dir: PathBuf,
    /// Prefix of this run's output files.
    pub tag: String,
}

impl Params {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }

    /// A fresh span log for this run.
    pub fn span_log(&self) -> Arc<SpanLog> {
        Arc::new(SpanLog::new(Instant::now()))
    }

    /// The path of one of this run's output files.
    pub fn out_file(&self, suffix: &str) -> PathBuf {
        self.out_dir.join(format!("{}-{suffix}", self.tag))
    }
}

/// Runs `build` [`SETUPS`] times, tearing all but the last down with
/// `teardown`, and returns the last result and the median set-up time.
pub fn repeated_setup<T>(
    mut build: impl FnMut(usize) -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t = Instant::now();
        let built = build(i);
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Whether a reply counts as a success: executed, and every question's
/// outcome `ok` (a degraded or timed-out answer is a failure).
pub fn succeeded(record: &Record) -> bool {
    record.response.as_ref().is_some_and(|r| {
        r.status == Status::Ok
            && r.outcomes
                .as_ref()
                .is_none_or(|o| o.iter().all(|x| x == "ok"))
            && r.detail.as_deref() != Some("feed transaction rolled back")
    })
}

/// The latencies of one kind over a measured run of `length`, per
/// window, plus the untraced and traced windows' totals.
pub fn dists(records: &[Record], kind: Kind, length: Duration) -> (Windowed, Dist, Dist) {
    let (mut windows, mut plain, mut traced) =
        (Windowed::new(length), Dist::default(), Dist::default());
    for r in records.iter().filter(|r| r.kind == kind) {
        let ms = r
            .latency
            .filter(|_| succeeded(r))
            .map(|l| l.as_secs_f64() * 1e3);
        windows.add(r.at, ms);
        let part = if r.traced { &mut traced } else { &mut plain };
        match ms {
            Some(ms) => part.ok(ms),
            None => part.fail(),
        }
    }
    (windows, plain, traced)
}

/// Sets the trace-overhead guard: how much slower the main operation's
/// median was in traced windows than in untraced ones, %.
pub fn trace_overhead(out: &mut Outcome, mut plain: Dist, mut traced: Dist) {
    out.set("obs.untraced_samples", plain.len() as f64);
    out.set("obs.traced_samples", traced.len() as f64);
    let base = plain.quantile(500);
    let pct = if base > 0.0 && traced.len() > 0 {
        (traced.quantile(500) - base) / base * 100.0
    } else {
        0.0
    };
    out.set("obs.trace_overhead_pct", pct);
}

/// Traced windows that switch `tracer` and the benchmark's `spans`
/// together.
pub fn trace_windows(tracer: &dwqa_obs::Tracer, spans: &Arc<SpanLog>) -> TraceWindows {
    let (tracer, spans) = (tracer.clone(), Arc::clone(spans));
    TraceWindows {
        length: TRACE_WINDOW,
        toggle: Box::new(move |on| {
            tracer.set_enabled(on);
            spans.set_enabled(on);
        }),
    }
}

/// Precision and recall of the loaded `City Weather` rows over a fixed
/// set of points: a point counts when a row holds it, and that row is
/// correct when its temperature matches `truth` within tolerance.
/// `loaded` maps `(folded city, date)` to the loaded temperature;
/// `covered` says whether the scored operations produced the point at
/// all (points they did not produce are misses, whatever loaded later).
pub fn score_points(
    points: &[(String, Date)],
    loaded: &std::collections::HashMap<(String, Date), f64>,
    covered: impl Fn(&(String, Date)) -> bool,
    truth: impl Fn(&str, Date) -> Option<f64>,
) -> (f64, f64) {
    let (mut tp, mut fp) = (0usize, 0usize);
    for point in points {
        let key = (dwqa_common::text::fold(&point.0), point.1);
        if !covered(&key) {
            continue;
        }
        let Some(&value) = loaded.get(&key) else {
            continue;
        };
        match truth(&point.0, point.1) {
            Some(t) if (t - value).abs() <= TOLERANCE_C => tp += 1,
            _ => fp += 1,
        }
    }
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if points.is_empty() {
        0.0
    } else {
        tp as f64 / points.len() as f64
    };
    (precision, recall)
}

/// Every `City Weather` row of `warehouse`, keyed by `(folded city,
/// date)`.
pub fn loaded_weather(
    warehouse: &dwqa_warehouse::Warehouse,
) -> std::collections::HashMap<(String, Date), f64> {
    use dwqa_warehouse::{AggFn, CubeQuery, Value};
    let rows = CubeQuery::on("City Weather")
        .group_by("City", "City")
        .group_by("Date", "Date")
        .aggregate("temperature_c", AggFn::Avg)
        .execute_reference(warehouse)
        .unwrap_or_else(|e| panic!("weather roll-up: {e}"));
    rows.rows
        .iter()
        .filter_map(|row| match (&row[0], &row[1], row[2].as_f64()) {
            (Value::Text(city), Value::Date(date), Some(t)) => {
                Some(((dwqa_common::text::fold(city), *date), t))
            }
            _ => None,
        })
        .collect()
}

/// The truth oracle of a corpus as a closure.
pub fn oracle(truth: &GroundTruth) -> impl Fn(&str, Date) -> Option<f64> + '_ {
    move |city, date| truth.temperature(city, date)
}
