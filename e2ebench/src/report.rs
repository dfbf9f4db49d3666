//! The metric catalogue, the registry snapshots per-layer numbers come
//! from, and the one-line JSON result.

use crate::stats::Windowed;
use dwqa_obs::{names, MetricsRegistry};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run, in order. `main`
/// and `side` are the workload's two operation kinds (see README).
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("main_p50_ms", "ms"),
    ("main_tail_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("side_tail_ms", "ms"),
    ("goodput_per_s", "1/s"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run, in order. A layer a
/// workload does not exercise reads 0. Each ratio is preceded by its
/// base counts.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("server.requests", "count"),
    ("server.refused", "count"),
    ("server.refused_frac", "ratio"),
    ("server.service_samples", "count"),
    ("server.service_mean_us", "us"),
    ("server.queue_wait_mean_us", "us"),
    ("server.wire_mean_us", "us"),
    ("server.unattributed_mean_us", "us"),
    ("server.feedback_residual_mean_us", "us"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("qa.analyze_samples", "count"),
    ("qa.analyze_mean_us", "us"),
    ("qa.extract_mean_us", "us"),
    ("ir.passages_samples", "count"),
    ("ir.passages_mean_us", "us"),
    ("ir.queries", "count"),
    ("ir.docs_total", "count"),
    ("ir.docs_pruned", "count"),
    ("ir.docs_pruned_ratio", "ratio"),
    ("ir.windows_scored", "count"),
    ("ir.windows_scored_per_query", "count"),
    ("core.feed_txns", "count"),
    ("core.feed_txn_mean_us", "us"),
    ("core.rollups", "count"),
    ("core.rollup_mean_us", "us"),
    ("core.analyses", "count"),
    ("core.analysis_post_mean_us", "us"),
    ("core.rollup_hits", "count"),
    ("core.rollup_misses", "count"),
    ("core.rollup_hit_ratio", "ratio"),
    ("warehouse.rows_scanned", "count"),
    ("warehouse.rows_scanned_per_cycle", "count"),
    ("warehouse.delta_applied", "count"),
    ("warehouse.delta_demoted", "count"),
    ("store.wal_appends", "count"),
    ("store.wal_append_mean_us", "us"),
    ("store.fsyncs", "count"),
    ("store.fsyncs_per_commit", "ratio"),
    ("store.rows_loaded", "count"),
    ("store.wal_bytes_per_row", "B"),
    ("store.checkpoints", "count"),
    ("store.checkpoint_mean_us", "us"),
    ("repl.frames_shipped", "count"),
    ("repl.acks", "count"),
    ("repl.quorum_timeouts", "count"),
    ("repl.reconnects", "count"),
    ("harness.operations", "count"),
    ("harness.send_lag_tail_us", "us"),
    ("harness.cpu_steal_pct", "%"),
    ("obs.traced_samples", "count"),
    ("obs.untraced_samples", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.bench_spans", "count"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations refused, failed or timed out.
    pub failed: u64,
    /// Metric values by name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets `{slot}_p50_ms` (the median over windows of each window's
    /// median) and `{slot}_tail_ms` (the quantile at the fixed `tail`
    /// level, per-mille, over the whole window), and notes the counts.
    pub fn latency(&mut self, slot: &'static str, label: &str, w: &mut Windowed, tail: u32) {
        let (p50_name, tail_name) = match slot {
            "main" => ("main_p50_ms", "main_tail_ms"),
            _ => ("side_p50_ms", "side_tail_ms"),
        };
        let (p50, tail_ms) = (w.p50(), w.tail(tail));
        self.set(p50_name, p50);
        self.set(tail_name, tail_ms);
        // The level is fixed per metric so runs stay comparable; say
        // when this run had too few samples to keep ten beyond it.
        let short = crate::stats::tail_level(w.len()).is_none_or(|highest| highest < tail);
        self.notes.push(format!(
            "{slot} = {label}: n={} failed={} p50={p50:.3} ms p{}={tail_ms:.3} ms{}",
            w.len(),
            w.failed(),
            f64::from(tail) / 10.0,
            if short {
                " (fewer than 10 samples beyond the tail)"
            } else {
                ""
            }
        ));
    }

    /// The JSON result line: end-to-end metrics when `trace` is off,
    /// per-layer metrics when it is on.
    pub fn json(&self, trace: bool) -> String {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counters read from the registries for per-layer deltas.
const COUNTERS: [&str; 22] = [
    names::SERVER_REQUESTS,
    names::SERVER_SHED,
    names::SERVER_RATE_LIMITED,
    names::CACHE_HITS,
    names::CACHE_MISSES,
    names::RETRIEVAL_COUNT,
    names::RETRIEVAL_DOCS_TOTAL,
    names::RETRIEVAL_DOCS_PRUNED,
    names::RETRIEVAL_WINDOWS_SCORED,
    names::STORE_WAL_APPENDS,
    names::STORE_WAL_BYTES,
    names::STORE_WAL_FSYNCS,
    names::STORE_CHECKPOINTS,
    names::WAREHOUSE_ROWS_SCANNED,
    names::WAREHOUSE_ROLLUP_HITS,
    names::WAREHOUSE_ROLLUP_MISSES,
    names::WAREHOUSE_DELTA_APPLIED,
    names::WAREHOUSE_DELTA_DEMOTED,
    names::REPL_FRAMES_SHIPPED,
    names::REPL_ACKS,
    names::REPL_QUORUM_TIMEOUTS,
    names::REPL_RECONNECTS,
];

/// Histograms read from the registries (exact `sum_us` and `samples`
/// only: their quantiles are power-of-two bucket bounds).
const HISTOGRAMS: [&str; 8] = [
    names::SERVER_QUEUE_WAIT,
    names::SERVER_SERVICE_TIME,
    names::STAGE_ANALYZE,
    names::STAGE_PASSAGES,
    names::STAGE_EXTRACT,
    names::STAGE_FEED,
    names::STORE_WAL_APPEND_TIME,
    names::STORE_CHECKPOINT_TIME,
];

/// Counter values and histogram sums at one instant, summed over one or
/// more registries.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, (u64, u64)>,
}

impl Snap {
    /// Reads every tracked instrument of `registries`.
    pub fn take(registries: &[&MetricsRegistry]) -> Snap {
        let mut snap = Snap::default();
        for reg in registries {
            for name in COUNTERS {
                *snap.counters.entry(name).or_default() += reg.counter_value(name);
            }
            for name in HISTOGRAMS {
                let h = reg.histogram(name);
                let e = snap.hists.entry(name).or_default();
                e.0 += h.sum_us();
                e.1 += h.samples();
            }
        }
        snap
    }

    /// `self - before`, instrument by instrument.
    pub fn since(&self, before: &Snap) -> Snap {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (*k, v - before.counters.get(k).copied().unwrap_or(0)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, (s, n))| {
                let (bs, bn) = before.hists.get(k).copied().unwrap_or((0, 0));
                (*k, (s - bs, n - bn))
            })
            .collect();
        Snap { counters, hists }
    }

    /// A counter's value.
    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// A histogram's summed microseconds.
    pub fn sum_us(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.0 as f64)
    }

    /// A histogram's sample count.
    pub fn samples(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.1 as f64)
    }

    /// A histogram's exact mean, µs (0 without samples).
    pub fn mean_us(&self, name: &str) -> f64 {
        ratio(self.sum_us(name), self.samples(name))
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Fills the per-layer metrics every TCP workload shares from a
/// registry delta over the measured window.
pub fn server_layers(out: &mut Outcome, d: &Snap) {
    let requests = d.count(names::SERVER_REQUESTS);
    let refused = d.count(names::SERVER_SHED) + d.count(names::SERVER_RATE_LIMITED);
    out.set("server.requests", requests);
    out.set("server.refused", refused);
    out.set("server.refused_frac", ratio(refused, requests));
    out.set(
        "server.service_samples",
        d.samples(names::SERVER_SERVICE_TIME),
    );
    out.set(
        "server.service_mean_us",
        d.mean_us(names::SERVER_SERVICE_TIME),
    );
    out.set(
        "server.queue_wait_mean_us",
        d.mean_us(names::SERVER_QUEUE_WAIT),
    );
    let hits = d.count(names::CACHE_HITS);
    let misses = d.count(names::CACHE_MISSES);
    out.set("engine.cache_hits", hits);
    out.set("engine.cache_misses", misses);
    out.set("engine.cache_hit_ratio", ratio(hits, hits + misses));
    out.set("qa.analyze_samples", d.samples(names::STAGE_ANALYZE));
    out.set("qa.analyze_mean_us", d.mean_us(names::STAGE_ANALYZE));
    out.set("qa.extract_mean_us", d.mean_us(names::STAGE_EXTRACT));
    out.set("ir.passages_samples", d.samples(names::STAGE_PASSAGES));
    out.set("ir.passages_mean_us", d.mean_us(names::STAGE_PASSAGES));
    let queries = d.count(names::RETRIEVAL_COUNT);
    let total = d.count(names::RETRIEVAL_DOCS_TOTAL);
    let pruned = d.count(names::RETRIEVAL_DOCS_PRUNED);
    let windows = d.count(names::RETRIEVAL_WINDOWS_SCORED);
    out.set("ir.queries", queries);
    out.set("ir.docs_total", total);
    out.set("ir.docs_pruned", pruned);
    out.set("ir.docs_pruned_ratio", ratio(pruned, total));
    out.set("ir.windows_scored", windows);
    out.set("ir.windows_scored_per_query", ratio(windows, queries));
    store_layers(out, d);
    out.set("repl.frames_shipped", d.count(names::REPL_FRAMES_SHIPPED));
    out.set("repl.acks", d.count(names::REPL_ACKS));
    out.set("repl.quorum_timeouts", d.count(names::REPL_QUORUM_TIMEOUTS));
    out.set("repl.reconnects", d.count(names::REPL_RECONNECTS));
}

/// Fills the store and warehouse counters from a registry delta.
pub fn store_layers(out: &mut Outcome, d: &Snap) {
    let appends = d.count(names::STORE_WAL_APPENDS);
    let fsyncs = d.count(names::STORE_WAL_FSYNCS);
    out.set("store.wal_appends", appends);
    out.set(
        "store.wal_append_mean_us",
        d.mean_us(names::STORE_WAL_APPEND_TIME),
    );
    out.set("store.fsyncs", fsyncs);
    out.set("store.fsyncs_per_commit", ratio(fsyncs, appends));
    out.set("store.checkpoints", d.count(names::STORE_CHECKPOINTS));
    out.set(
        "store.checkpoint_mean_us",
        d.mean_us(names::STORE_CHECKPOINT_TIME),
    );
    out.set(
        "warehouse.rows_scanned",
        d.count(names::WAREHOUSE_ROWS_SCANNED),
    );
    out.set(
        "warehouse.delta_applied",
        d.count(names::WAREHOUSE_DELTA_APPLIED),
    );
    out.set(
        "warehouse.delta_demoted",
        d.count(names::WAREHOUSE_DELTA_DEMOTED),
    );
}

/// Sets `store.rows_loaded` and `store.wal_bytes_per_row`.
pub fn wal_bytes_per_row(out: &mut Outcome, d: &Snap, rows: f64) {
    out.set("store.rows_loaded", rows);
    out.set(
        "store.wal_bytes_per_row",
        ratio(d.count(names::STORE_WAL_BYTES), rows),
    );
}

/// Machine-wide CPU time counters from `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    /// The counters now (zero where `/proc/stat` cannot be read).
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        let field = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user, nice, system, idle, iowait, irq, softirq, steal
        CpuTicks {
            busy: field(0) + field(1) + field(2) + field(5) + field(6),
            steal: field(7),
        }
    }

    /// The share of CPU time the machine wanted since `before` that the
    /// hypervisor gave to someone else, %: interference from outside
    /// the program, which slows every figure of a run.
    pub fn steal_pct_since(&self, before: &CpuTicks) -> f64 {
        let steal = self.steal.saturating_sub(before.steal) as f64;
        let busy = self.busy.saturating_sub(before.busy) as f64;
        ratio(steal, busy + steal) * 100.0
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn parse(text: &str) -> Content {
        serde_json::from_str(text).expect("valid JSON")
    }

    fn text<'a>(c: &'a Content, key: &str) -> &'a str {
        match c.get(key) {
            Some(Content::Str(s)) => s,
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"));
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Content::Seq(items)) = json.get(key) else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|m| (text(m, "name").to_owned(), text(m, "unit").to_owned()))
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        let line = parse(&out.json(false));
        let Content::Map(entries) = &line else {
            panic!("not an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").expect("metrics");
        assert_eq!(text(metrics.get("setup_s").expect("setup_s"), "unit"), "s");
        // Per-layer metrics a workload did not touch read 0.
        let traced = parse(&out.json(true));
        let acks = traced
            .get("metrics")
            .and_then(|m| m.get("repl.acks"))
            .and_then(|m| m.get("value"));
        assert!(
            matches!(acks, Some(Content::F64(v)) if *v == 0.0),
            "{acks:?}"
        );
    }
}
