//! `bi_analysis`: the analyst's loop in process, with no server and no
//! QA. Each cycle commits one small feedback delta (four new weather
//! readings, answers precomputed in set-up) and then runs the standing
//! analyses: the temperature-band sales analysis, the missing-weather
//! question generator, and a few fixed cube queries, all through the
//! pipeline's roll-up cache.

use crate::common::{self, Params};
use crate::report::{self, Outcome, Snap};
use crate::rng::Rng;
use crate::spans::SpanLog;
use crate::stats::{Dist, Windowed};
use dwqa_common::{Date, Month};
use dwqa_core::{
    integrated_schema, questions_for_missing_weather_with, sales_by_temperature_band_with,
    IntegrationPipeline, PipelineOptions, TemperatureBand,
};
use dwqa_corpus::{default_cities, generate_sales, PageStyle, SalesConfig};
use dwqa_ir::DocumentStore;
use dwqa_obs::{MetricsRegistry, Tracer};
use dwqa_qa::{Answer, AnswerValue};
use dwqa_warehouse::{AggFn, CubeQuery, Predicate, ResultSet, Value, Warehouse};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Months of corpus (sales and weather history).
const MONTHS: usize = 12;
/// Sales density: four times the TCP workloads' sales rows.
const BASE_DAILY_SALES: usize = 8;
const SWEET_BONUS: usize = 24;
/// New readings per delta.
const DELTA_POINTS: usize = 4;
/// Deltas precomputed in set-up; a run that needs more fails.
const DELTAS: usize = 12_288;
/// Band width of the temperature analysis, °C.
const BAND_WIDTH: f64 = 5.0;
/// Unmeasured warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Tail level (per-mille), fixed by the tail rule at the 20 s run:
/// about 850 cycles.
const TAIL: u32 = 950;
/// Deltas (from the first) whose loaded tuples are scored.
const SCORED_DELTAS: usize = 64;

/// The fixed cube queries of the standing analysis.
fn standing_queries() -> Vec<CubeQuery> {
    vec![
        CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "City")
            .group_by("Date", "Month")
            .aggregate("price", AggFn::Sum),
        CubeQuery::on("City Weather")
            .group_by("City", "City")
            .group_by("Date", "Month")
            .aggregate("temperature_c", AggFn::Avg),
        CubeQuery::on("Last Minute Sales").aggregate("price", AggFn::Count),
        CubeQuery::on("Last Minute Sales")
            .filter(
                "Destination",
                "City",
                Predicate::Eq(Value::text("Barcelona")),
            )
            .group_by("Date", "Quarter")
            .aggregate("miles", AggFn::Sum),
    ]
}

struct World {
    pipeline: IntegrationPipeline,
    deltas: Vec<Vec<Answer>>,
    delta_truth: HashMap<(String, Date), f64>,
    /// The month left without weather, for the missing-weather analysis.
    missing: (i32, Month),
}

/// Set-up: seeded truth and sales, the pipeline over an empty corpus,
/// every month's weather but the last loaded, and the deltas.
fn build(seed: u64) -> World {
    let months = crate::cluster::months(MONTHS);
    let (_docs, truth) = dwqa_bench::build_corpus(&dwqa_bench::FixtureConfig {
        seed,
        months: months.clone(),
        ..dwqa_bench::FixtureConfig::default()
    });
    let cities = default_cities();
    let sales = generate_sales(
        &SalesConfig {
            seed: seed ^ 0x5A1E5,
            base_daily_sales: BASE_DAILY_SALES,
            sweet_bonus: SWEET_BONUS,
            ..SalesConfig::default()
        },
        &cities,
        &truth,
    );
    let mut warehouse = Warehouse::new(integrated_schema());
    warehouse
        .load("Last Minute Sales", sales)
        .unwrap_or_else(|e| panic!("load sales: {e}"));
    let mut pipeline =
        IntegrationPipeline::build(warehouse, DocumentStore::new(), PipelineOptions::default());
    let missing = *months.last().expect("at least one month");
    let mut history: Vec<(&str, Date, f64)> = truth
        .iter()
        .filter(|(_, d, _)| (d.year(), d.month()) != missing)
        .collect();
    history.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    let preload: Vec<Answer> = history
        .iter()
        .map(|&(city, date, t)| {
            answer_for(
                city,
                date,
                t,
                &dwqa_bench::page_url(city, PageStyle::Prose, date.month()),
            )
        })
        .collect();
    pipeline
        .try_apply_feedback(&preload)
        .unwrap_or_else(|e| panic!("preload weather: {e}"));

    // New days after the corpus, each city's reading drawn around its
    // monthly mean.
    let mut rng = Rng::new(seed ^ 0xB1_DE17A);
    let mut distinct = HashSet::new();
    let climates: Vec<_> = cities.iter().filter(|c| distinct.insert(c.city)).collect();
    let start = Date::new(2004 + (MONTHS / 12) as i32 + 1, Month::January, 1).expect("valid date");
    let mut points = Vec::with_capacity(DELTAS * DELTA_POINTS);
    for day in 0.. {
        if points.len() >= DELTAS * DELTA_POINTS {
            break;
        }
        let date = start.add_days(day);
        for climate in &climates {
            let mean = climate.monthly_mean[date.month().number() as usize - 1];
            let t = (mean + (rng.next_f64() * 2.0 - 1.0) * 2.0 * climate.daily_sigma).round();
            points.push((climate.city, date, t));
        }
    }
    points.truncate(DELTAS * DELTA_POINTS);
    let delta_truth = points
        .iter()
        .map(|&(c, d, t)| ((dwqa_common::text::fold(c), d), t))
        .collect();
    let deltas = points
        .chunks(DELTA_POINTS)
        .map(|chunk| {
            chunk
                .iter()
                .map(|&(c, d, t)| {
                    answer_for(
                        c,
                        d,
                        t,
                        &dwqa_bench::page_url(c, PageStyle::Prose, d.month()),
                    )
                })
                .collect()
        })
        .collect();
    World {
        pipeline,
        deltas,
        delta_truth,
        missing,
    }
}

/// Synthesizes the answer a perfect QA system would give for one point.
fn answer_for(city: &str, date: Date, celsius: f64, url: &str) -> Answer {
    Answer {
        value: AnswerValue::Temperature {
            celsius,
            raw: celsius,
            unit: dwqa_nlp::TempUnit::Celsius,
        },
        score: 1.0,
        url: url.to_owned(),
        sentence: String::new(),
        context_date: Some(date),
        context_location: Some(city.to_owned()),
    }
}

/// What the analyst saw in one cycle.
struct Analyses {
    bands: Vec<TemperatureBand>,
    missing: Vec<String>,
    queries: Vec<ResultSet>,
}

/// Per-cycle timings, µs.
#[derive(Default)]
struct Timings {
    feed_us: f64,
    rollups: f64,
    rollup_us: f64,
    analyses: f64,
    analysis_post_us: f64,
}

/// Runs the standing analyses through the roll-up cache, timing each
/// roll-up and recording spans under `parent` when tracing.
fn analyse(
    world: &World,
    queries: &[CubeQuery],
    spans: &SpanLog,
    (cycle, root): (u64, u64),
    t: &mut Timings,
) -> dwqa_warehouse::Result<Analyses> {
    let pipeline = &world.pipeline;
    let timed = |name: &'static str, parent: u64, t: &mut Timings, q: &CubeQuery| {
        let start = Instant::now();
        let result = pipeline.rollup(q);
        let end = Instant::now();
        spans.record(name, cycle, (parent != 0).then_some(parent), start, end);
        t.rollups += 1.0;
        t.rollup_us += (end - start).as_secs_f64() * 1e6;
        result
    };
    let analysis =
        |name: &'static str,
         t: &mut Timings,
         f: &mut dyn FnMut(u64, &mut Timings) -> dwqa_warehouse::Result<()>| {
            let seq = spans.reserve();
            let before = t.rollup_us;
            let start = Instant::now();
            let r = f(seq, t);
            let end = Instant::now();
            spans.record_reserved(seq, name, cycle, (root != 0).then_some(root), start, end);
            t.analyses += 1.0;
            t.analysis_post_us += (end - start).as_secs_f64() * 1e6 - (t.rollup_us - before);
            r
        };
    let mut bands = Vec::new();
    analysis("core.analysis.bands", t, &mut |seq, t| {
        bands = sales_by_temperature_band_with(|q| timed("core.rollup", seq, t, q), BAND_WIDTH)?;
        Ok(())
    })?;
    let mut missing = Vec::new();
    let (year, month) = world.missing;
    analysis("core.analysis.missing", t, &mut |seq, t| {
        missing =
            questions_for_missing_weather_with(|q| timed("core.rollup", seq, t, q), year, month)?;
        Ok(())
    })?;
    let mut results = Vec::with_capacity(queries.len());
    for q in queries {
        results.push(timed("core.cube_query", root, t, q)?);
    }
    Ok(Analyses {
        bands,
        missing,
        queries: results,
    })
}

/// Runs the workload; `Err` names the first failed output check.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let (mut world, setup_s) = common::repeated_setup(|_| build(p.seed), drop);
    let queries = standing_queries();
    let registry = Arc::new(MetricsRegistry::new());
    let tracer = Tracer::default();
    tracer.set_enabled(false);
    let spans = p.span_log();

    let mut next_delta = 0usize;
    let mut cycle_ms = Windowed::new(p.window());
    let mut post_ms = Windowed::new(p.window());
    let mut cycles_done = Windowed::new(p.window());
    let (mut plain, mut traced) = (Dist::default(), Dist::default());
    let mut timings = Timings::default();
    let mut last = None;
    let mut measured_cycles = 0u64;
    let mut before = None;
    let (mut hits0, mut misses0) = (0, 0);
    let mut ticks = report::CpuTicks::default();
    let origin = Instant::now();
    let measure_from = origin + WARMUP;
    let end = measure_from + p.window();
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let measuring = now >= measure_from;
        if measuring && before.is_none() {
            before = Some(Snap::take(&[registry.as_ref()]));
            ticks = report::CpuTicks::now();
            hits0 = world.pipeline.rollup_cache().hits();
            misses0 = world.pipeline.rollup_cache().misses();
            timings = Timings::default();
        }
        let in_trace = p.trace
            && measuring
            && ((now - measure_from).as_nanos() / common::TRACE_WINDOW.as_nanos()) % 2 == 1;
        tracer.set_enabled(in_trace);
        spans.set_enabled(in_trace);
        let Some(delta) = world.deltas.get(next_delta) else {
            return Err(format!(
                "the {DELTAS} precomputed deltas ran out before the run ended"
            ));
        };
        next_delta += 1;
        let cycle = next_delta as u64;
        let root = spans.reserve();
        // The flight-recorder trace carries the cycle number the
        // benchmark's own spans use as their id.
        let label = if in_trace {
            format!("cycle {cycle}")
        } else {
            String::new()
        };
        let obs = dwqa_obs::observe(
            Some(Arc::clone(&registry)),
            Some(&tracer),
            "bi_cycle",
            &label,
        );
        let start = Instant::now();
        let fed = world.pipeline.try_apply_feedback(delta);
        let fed_at = Instant::now();
        spans.record(
            "core.feed_txn",
            cycle,
            (root != 0).then_some(root),
            start,
            fed_at,
        );
        let ok = match fed {
            Ok(report) if report.loaded == 0 => {
                return Err(format!("delta {cycle} loaded nothing: a reading repeated"));
            }
            Ok(_) => true,
            Err(_) => false,
        };
        timings.feed_us += (fed_at - start).as_secs_f64() * 1e6;
        let analyses = analyse(&world, &queries, &spans, (cycle, root), &mut timings)
            .map_err(|e| format!("cycle {cycle}: standing analysis failed: {e}"))?;
        let done = Instant::now();
        spans.record_reserved(root, "bi.cycle", cycle, None, start, done);
        drop(obs);
        last = Some(analyses);
        if !measuring {
            continue;
        }
        measured_cycles += 1;
        let at = start - measure_from;
        let part = if in_trace { &mut traced } else { &mut plain };
        if ok {
            let ms = (done - start).as_secs_f64() * 1e3;
            cycle_ms.add(at, Some(ms));
            post_ms.add(at, Some((done - fed_at).as_secs_f64() * 1e3));
            cycles_done.work(at, done - measure_from, 1.0);
            part.ok(ms);
        } else {
            cycle_ms.add(at, None);
            post_ms.add(at, None);
            part.fail();
        }
    }
    tracer.set_enabled(false);
    spans.set_enabled(false);
    let delta = Snap::take(&[registry.as_ref()]).since(&before.unwrap_or_default());
    let steal_pct = report::CpuTicks::now().steal_pct_since(&ticks);

    // Check: what the analyst saw last equals a cold recompute.
    let warehouse = &world.pipeline.warehouse;
    let cold = Analyses {
        bands: sales_by_temperature_band_with(|q| q.execute_reference(warehouse), BAND_WIDTH)
            .map_err(|e| format!("reference band analysis: {e}"))?,
        missing: questions_for_missing_weather_with(
            |q| q.execute_reference(warehouse),
            world.missing.0,
            world.missing.1,
        )
        .map_err(|e| format!("reference missing-weather analysis: {e}"))?,
        queries: queries
            .iter()
            .map(|q| q.execute_reference(warehouse))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reference query: {e}"))?,
    };
    let seen = last.ok_or("no cycle ran")?;
    if seen.bands != cold.bands {
        return Err("the band analysis differs from a cold recompute".to_owned());
    }
    if seen.missing != cold.missing {
        return Err("the missing-weather questions differ from a cold recompute".to_owned());
    }
    if let Some(i) = (0..queries.len()).find(|&i| seen.queries[i] != cold.queries[i]) {
        return Err(format!("standing query {i} differs from execute_reference"));
    }
    let fresh = dwqa_core::RollupCache::default();
    for (i, q) in queries.iter().enumerate() {
        let r = fresh
            .run(warehouse, world.pipeline.revision(), q)
            .map_err(|e| format!("fresh-cache query {i}: {e}"))?;
        if r != seen.queries[i] {
            return Err(format!(
                "standing query {i} differs from a fresh roll-up cache"
            ));
        }
    }

    // Quality: the first SCORED_DELTAS deltas' readings, as loaded.
    let scored: Vec<(String, Date)> = world.deltas[..SCORED_DELTAS.min(next_delta)]
        .iter()
        .flatten()
        .map(|a| {
            (
                a.context_location.clone().unwrap_or_default(),
                a.context_date.expect("synthesized with a date"),
            )
        })
        .collect();
    let fed: HashSet<(String, Date)> = scored
        .iter()
        .map(|(c, d)| (dwqa_common::text::fold(c), *d))
        .collect();
    let truth = &world.delta_truth;
    let (precision, recall) = common::score_points(
        &scored,
        &common::loaded_weather(warehouse),
        |key| fed.contains(key),
        |c, d| truth.get(&(dwqa_common::text::fold(c), d)).copied(),
    );

    let mut out = Outcome {
        attempted: measured_cycles,
        failed: cycle_ms.failed() as u64,
        ..Outcome::default()
    };
    out.set("setup_s", setup_s);
    out.latency(
        "main",
        "bi cycle (commit + standing analyses)",
        &mut cycle_ms,
        TAIL,
    );
    out.latency(
        "side",
        "standing analyses after the commit",
        &mut post_ms,
        TAIL,
    );
    out.set("goodput_per_s", cycles_done.rate());
    out.set("precision", precision);
    out.set("recall", recall);
    out.set(
        "ok_frac",
        1.0 - out.failed as f64 / measured_cycles.max(1) as f64,
    );
    out.notes.push(format!(
        "{} sales rows, {} weather rows at the end",
        warehouse.fact("Last Minute Sales").map_or(0, |f| f.len()),
        warehouse.fact("City Weather").map_or(0, |f| f.len())
    ));

    report::store_layers(&mut out, &delta);
    let cycles = measured_cycles as f64;
    out.set("harness.operations", cycles);
    out.set("harness.cpu_steal_pct", steal_pct);
    out.notes
        .push(format!("CPU steal during the window: {steal_pct:.1}%"));
    out.set("core.feed_txns", cycles);
    out.set(
        "core.feed_txn_mean_us",
        report::ratio(timings.feed_us, cycles),
    );
    out.set("core.rollups", timings.rollups);
    out.set(
        "core.rollup_mean_us",
        report::ratio(timings.rollup_us, timings.rollups),
    );
    out.set("core.analyses", timings.analyses);
    out.set(
        "core.analysis_post_mean_us",
        report::ratio(timings.analysis_post_us, timings.analyses),
    );
    let hits = (world.pipeline.rollup_cache().hits() - hits0) as f64;
    let misses = (world.pipeline.rollup_cache().misses() - misses0) as f64;
    out.set("core.rollup_hits", hits);
    out.set("core.rollup_misses", misses);
    out.set("core.rollup_hit_ratio", report::ratio(hits, hits + misses));
    out.set(
        "warehouse.rows_scanned_per_cycle",
        report::ratio(delta.count(dwqa_obs::names::WAREHOUSE_ROWS_SCANNED), cycles),
    );
    common::trace_overhead(&mut out, plain, traced);
    if p.trace {
        std::fs::write(
            p.out_file("cycle-traces.jsonl"),
            tracer.recorder().dump_jsonl(),
        )
        .map_err(|e| format!("write cycle traces: {e}"))?;
        spans
            .write_jsonl(&p.out_file("spans.jsonl"))
            .map_err(|e| format!("write spans: {e}"))?;
    }
    out.set("obs.bench_spans", spans.len() as f64);
    world.deltas.clear();
    out.set("peak_rss_mb", report::peak_rss_mb());
    Ok(out)
}
