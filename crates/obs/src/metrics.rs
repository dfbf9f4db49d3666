//! The metrics registry: named counters, gauges, and latency histograms.
//!
//! All instruments are lock-free once resolved: the registry hands out
//! `Arc` handles that record through atomics, so hot paths cache the
//! handle and never touch the registry lock again. Histograms use
//! logarithmic (power-of-two microsecond) buckets. Readers — the server's
//! `stats` verb, the REPL's `:stats`, the experiment binaries — take one
//! [`MetricsRegistry::snapshot`] instead of keeping their own stat views.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^(i-1), 2^i)` µs, with bucket 0 holding sub-microsecond samples.
pub const BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `delta` to the counter.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instrument for values that are *mirrored* rather
/// than accumulated (e.g. the cumulative health counters of a source
/// stack, stored idempotently).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Stores the latest value.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (used when absorbing another registry).
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free latency histogram with power-of-two microsecond buckets
/// plus a running sum, so both quantile bounds and exact means are O(1)
/// to read.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_for(us: u64) -> usize {
        ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// The exclusive upper bound (µs) of a bucket.
    pub fn bucket_bound(bucket: usize) -> u64 {
        1u64 << bucket.min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        self.record_us(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample given in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_for(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn samples(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all samples, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Mean sample, in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.sum_us().checked_div(self.samples()).unwrap_or(0)
    }

    /// An upper bound (µs) on the `q`-quantile latency (0.0 ..= 1.0).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.samples();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(BUCKETS - 1)
    }

    /// A snapshot of every bucket count.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Merges `other` into `self`, bucket by bucket over the **full**
    /// bucket range. A merge bounded by the destination's highest
    /// observed bucket silently drops the source's tail counts whenever
    /// the two histograms saw different latency ranges (regression test:
    /// `absorb_keeps_every_bucket_of_disjoint_ranges`).
    pub fn absorb(&self, other: &Histogram) {
        for i in 0..BUCKETS {
            let n = other.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                self.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum_us.fetch_add(other.sum_us(), Ordering::Relaxed);
    }
}

/// A named registry of counters, gauges and histograms. Cheap to share
/// (`Arc`), safe to record into from any thread; instrument handles are
/// `Arc`s so hot paths resolve a name once and record lock-free after.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // The maps are only held for get-or-insert; a poisoned lock means a
    // panic mid-BTreeMap-insert, which leaves the map structurally
    // sound, so recovering the guard is safe.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = locked(&self.counters);
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::new());
                map.insert(name.to_owned(), Arc::clone(&c));
                c
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = locked(&self.gauges);
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::new());
                map.insert(name.to_owned(), Arc::clone(&g));
                g
            }
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = locked(&self.histograms);
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new());
                map.insert(name.to_owned(), Arc::clone(&h));
                h
            }
        }
    }

    /// The current value of a counter, **without** creating it (0 when
    /// the counter was never recorded).
    pub fn counter_value(&self, name: &str) -> u64 {
        locked(&self.counters)
            .get(name)
            .map(|c| c.value())
            .unwrap_or(0)
    }

    /// The current value of a gauge, without creating it.
    pub fn gauge_value(&self, name: &str) -> u64 {
        locked(&self.gauges)
            .get(name)
            .map(|g| g.value())
            .unwrap_or(0)
    }

    /// Every instrument's current value in one sorted name → value map:
    /// counters and gauges under their own names, each histogram as
    /// `<name>.samples`, `.sum_us`, `.p50_us`, `.p95_us`, `.p99_us` and
    /// `.max_us` (quantiles are bucket upper bounds). Reading creates no
    /// instrument.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let mut snap = BTreeMap::new();
        for (name, c) in locked(&self.counters).iter() {
            snap.insert(name.clone(), c.value());
        }
        for (name, g) in locked(&self.gauges).iter() {
            snap.insert(name.clone(), g.value());
        }
        for (name, h) in locked(&self.histograms).iter() {
            for (suffix, value) in [
                ("samples", h.samples()),
                ("sum_us", h.sum_us()),
                ("p50_us", h.quantile_us(0.50)),
                ("p95_us", h.quantile_us(0.95)),
                ("p99_us", h.quantile_us(0.99)),
                ("max_us", h.quantile_us(1.0)),
            ] {
                snap.insert(format!("{name}.{suffix}"), value);
            }
        }
        snap
    }

    /// The [`snapshot`](MetricsRegistry::snapshot) as plain text: one
    /// `name value` line per entry, names padded to a common width.
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let width = snap.keys().map(|k| k.chars().count()).max().unwrap_or(0);
        snap.iter()
            .map(|(name, value)| format!("{name:<width$}  {value}\n"))
            .collect()
    }

    /// Merges every instrument of `other` into `self`: counters and
    /// gauges add, histograms merge bucket-wise over the full range.
    /// Do not absorb two registries into each other concurrently.
    pub fn absorb(&self, other: &MetricsRegistry) {
        let theirs: Vec<(String, Arc<Counter>)> = locked(&other.counters)
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (name, c) in theirs {
            self.counter(&name).add(c.value());
        }
        let theirs: Vec<(String, Arc<Gauge>)> = locked(&other.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (name, g) in theirs {
            self.gauge(&name).add(g.value());
        }
        let theirs: Vec<(String, Arc<Histogram>)> = locked(&other.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        for (name, h) in theirs {
            self.histogram(&name).absorb(&h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(2);
        reg.counter("c").inc();
        assert_eq!(reg.counter_value("c"), 3);
        assert_eq!(reg.counter_value("missing"), 0);
        reg.gauge("g").set(7);
        reg.gauge("g").set(5);
        assert_eq!(reg.gauge_value("g"), 5);
        assert_eq!(reg.snapshot().into_keys().collect::<Vec<_>>(), ["c", "g"]);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 5000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.samples(), 8);
        assert_eq!(h.sum_us(), 5406);
        assert_eq!(h.mean_us(), 675);
        // Half the samples sit at 100 µs, so p50 lands in its bucket
        // (64..128 µs → bound 128).
        assert_eq!(h.quantile_us(0.5), 128);
        assert!(h.quantile_us(1.0) >= 5000);
        assert_eq!(Histogram::new().quantile_us(0.5), 0);
    }

    #[test]
    fn absorb_keeps_every_bucket_of_disjoint_ranges() {
        // Regression shape for a range-bounded merge bug: one histogram
        // saw only microsecond-scale samples, the other only
        // second-scale ones. A merge bounded by the destination's
        // observed range would drop the entire source.
        let small = Histogram::new();
        for _ in 0..10 {
            small.record(Duration::from_micros(3));
        }
        let large = Histogram::new();
        for _ in 0..4 {
            large.record(Duration::from_secs(2));
        }
        small.absorb(&large);
        assert_eq!(small.samples(), 14, "no bucket count lost");
        assert_eq!(small.sum_us(), 30 + 4 * 2_000_000);
        assert!(small.quantile_us(1.0) >= 2_000_000);
        assert_eq!(small.quantile_us(0.5), 4); // small samples still lead
    }

    #[test]
    fn registry_absorb_merges_all_instruments() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        a.counter("x").add(1);
        b.counter("x").add(2);
        b.counter("only_b").add(5);
        b.gauge("g").set(9);
        b.histogram("h").record(Duration::from_micros(10));
        a.absorb(&b);
        assert_eq!(a.counter_value("x"), 3);
        assert_eq!(a.counter_value("only_b"), 5);
        assert_eq!(a.gauge_value("g"), 9);
        assert_eq!(a.histogram("h").samples(), 1);
        // The source registry is untouched.
        assert_eq!(b.counter_value("x"), 2);
        assert_eq!(b.histogram("h").samples(), 1);
    }

    #[test]
    fn snapshot_flattens_every_instrument_in_sorted_order() {
        let reg = MetricsRegistry::new();
        reg.counter("b.count").add(3);
        reg.gauge("a.level").set(7);
        for us in [1u64, 2, 3, 100, 100, 100, 100, 5000] {
            reg.histogram("c.time").record(Duration::from_micros(us));
        }
        let snap = reg.snapshot();
        let expected = [
            ("a.level", 7),
            ("b.count", 3),
            ("c.time.max_us", 8192),
            ("c.time.p50_us", 128),
            ("c.time.p95_us", 8192),
            ("c.time.p99_us", 8192),
            ("c.time.samples", 8),
            ("c.time.sum_us", 5406),
        ];
        let got: Vec<(&str, u64)> = snap.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(got, expected);
        // Reading is side-effect free: no instrument appears.
        assert_eq!(reg.snapshot(), snap);
        assert!(MetricsRegistry::new().snapshot().is_empty());
    }

    #[test]
    fn render_prints_one_aligned_line_per_snapshot_entry() {
        let reg = MetricsRegistry::new();
        reg.counter("engine.questions").add(4);
        reg.gauge("x").set(1);
        let text = reg.render();
        assert_eq!(text, "engine.questions  4\nx                 1\n");
        assert_eq!(MetricsRegistry::new().render(), "");
    }

    #[test]
    fn handles_are_shared() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("shared");
        let c2 = reg.counter("shared");
        c1.add(1);
        c2.add(1);
        assert_eq!(reg.counter_value("shared"), 2);
    }
}
