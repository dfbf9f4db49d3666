//! Latency distributions with honest failure accounting.
//!
//! Percentiles come only from the benchmark's own sample vectors
//! (nearest rank), never from the registry's power-of-two histogram
//! buckets. A refused, failed or timed-out operation is ranked at +∞,
//! so refusing work can never improve a median or a tail.

/// What a percentile reports when it lands on a failed operation: a
/// finite stand-in for +∞ (1000 s), far above any measured latency.
pub const FAILED_MS: f64 = 1.0e6;

/// The tail levels the tail rule chooses from, highest first, in
/// per-mille.
const TAIL_LEVELS: [u32; 3] = [990, 950, 900];

/// The rule for a `_tail` metric: the highest of p99, p95 and p90 that
/// leaves at least 10 samples beyond it among `n` samples. `None` when
/// even p90 has fewer than 10 beyond it (fewer than 100 samples).
pub fn tail_level(n: usize) -> Option<u32> {
    TAIL_LEVELS
        .into_iter()
        .find(|&permille| n - rank(n, permille) >= 10)
}

/// The 1-based nearest rank of the `permille` quantile among `n`
/// samples (at least 1).
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).max(1)
}

/// The latencies of one operation kind: successes in milliseconds plus a
/// count of failures, each ranked at +∞.
#[derive(Debug, Default, Clone)]
pub struct Dist {
    ok_ms: Vec<f64>,
    failed: usize,
}

impl Dist {
    /// Adds a completed operation's latency.
    pub fn ok(&mut self, ms: f64) {
        self.ok_ms.push(ms);
    }

    /// Adds a refused, failed or timed-out operation.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Operations recorded.
    pub fn len(&self) -> usize {
        self.ok_ms.len() + self.failed
    }

    /// Operations that failed.
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// The nearest-rank `permille` quantile, failures ranked at +∞
    /// (reported as [`FAILED_MS`]). 0 for an empty distribution.
    pub fn quantile(&mut self, permille: u32) -> f64 {
        let n = self.len();
        if n == 0 {
            return 0.0;
        }
        self.ok_ms.sort_by(f64::total_cmp);
        let r = rank(n, permille);
        self.ok_ms.get(r - 1).copied().unwrap_or(FAILED_MS)
    }
}

/// Windows a measured run is split into. Medians and rates are computed
/// per window and the median of the windows is reported, so a burst of
/// interference in one window does not move them. Tails pool every
/// window: they need every sample beyond the level.
pub const WINDOWS: usize = 3;

/// Latencies and work counts of one operation kind, per window.
#[derive(Debug, Clone)]
pub struct Windowed {
    length: std::time::Duration,
    dists: Vec<Dist>,
    work: Vec<f64>,
    /// The latest completion of each window's work.
    finished: Vec<std::time::Duration>,
}

impl Windowed {
    /// Empty windows splitting a measured run of `length`.
    pub fn new(length: std::time::Duration) -> Windowed {
        Windowed {
            length,
            dists: vec![Dist::default(); WINDOWS],
            work: vec![0.0; WINDOWS],
            finished: vec![std::time::Duration::ZERO; WINDOWS],
        }
    }

    fn index(&self, at: std::time::Duration) -> usize {
        let share = at.as_secs_f64() / self.length.as_secs_f64();
        ((share * WINDOWS as f64) as usize).min(WINDOWS - 1)
    }

    /// Adds an operation started at `at` (from the window's start): its
    /// latency, or `None` when it failed.
    pub fn add(&mut self, at: std::time::Duration, ms: Option<f64>) {
        let i = self.index(at);
        match ms {
            Some(ms) => self.dists[i].ok(ms),
            None => self.dists[i].fail(),
        }
    }

    /// Adds `units` of work started at `at` and completed at `done`
    /// to the window holding `at`.
    pub fn work(&mut self, at: std::time::Duration, done: std::time::Duration, units: f64) {
        let i = self.index(at);
        self.work[i] += units;
        self.finished[i] = self.finished[i].max(done);
    }

    /// Operations recorded.
    pub fn len(&self) -> usize {
        self.dists.iter().map(Dist::len).sum()
    }

    /// Operations that failed.
    pub fn failed(&self) -> usize {
        self.dists.iter().map(Dist::failed).sum()
    }

    /// The median over windows of each window's median.
    pub fn p50(&mut self) -> f64 {
        let per: Vec<f64> = self.dists.iter_mut().map(|d| d.quantile(500)).collect();
        median(&per)
    }

    /// The `permille` quantile over every window's operations.
    pub fn tail(&self, permille: u32) -> f64 {
        let mut all = Dist::default();
        for d in &self.dists {
            all.ok_ms.extend_from_slice(&d.ok_ms);
            all.failed += d.failed;
        }
        all.quantile(permille)
    }

    /// The median over windows of work per second, each window's work
    /// over the time from its start to its last completion.
    pub fn rate(&self) -> f64 {
        let span = self.length.as_secs_f64() / WINDOWS as f64;
        let per: Vec<f64> = (0..WINDOWS)
            .map(|i| {
                let secs = self.finished[i].as_secs_f64() - span * i as f64;
                if secs > 0.0 {
                    self.work[i] / secs
                } else {
                    0.0
                }
            })
            .collect();
        median(&per)
    }
}

/// The median of a small sample (set-up times, per-run figures).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_chosen_level() {
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(100), Some(900));
        assert_eq!(tail_level(199), Some(900));
        assert_eq!(tail_level(200), Some(950));
        assert_eq!(tail_level(999), Some(950));
        assert_eq!(tail_level(1000), Some(990));
        assert_eq!(tail_level(50_000), Some(990));
        for n in 100..3000 {
            let level = tail_level(n).expect("n >= 100 always has p90");
            assert!(n - rank(n, level) >= 10, "n={n} level={level}");
            // No higher level would also have kept ten beyond it.
            if let Some(&higher) = TAIL_LEVELS.iter().rev().find(|&&l| l > level) {
                assert!(n - rank(n, higher) < 10, "n={n} skipped {higher}");
            }
        }
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut d = Dist::default();
        for ms in (1..=100).rev() {
            d.ok(ms as f64);
        }
        assert_eq!(d.quantile(500), 50.0);
        assert_eq!(d.quantile(990), 99.0);
        assert_eq!(d.quantile(1000), 100.0);
        assert_eq!(d.quantile(1), 1.0);
    }

    #[test]
    fn failures_rank_at_infinity_and_cannot_improve_a_tail() {
        let mut served = Dist::default();
        let mut refused = Dist::default();
        for i in 0..100 {
            served.ok(1.0 + f64::from(i % 10));
            // The same load, but the ten slowest requests were refused.
            if i % 10 == 9 {
                refused.fail();
            } else {
                refused.ok(1.0 + f64::from(i % 10));
            }
        }
        assert_eq!(refused.failed(), 10);
        assert_eq!(refused.len(), 100);
        assert_eq!(served.quantile(950), 10.0);
        assert_eq!(refused.quantile(950), FAILED_MS);
        assert!(refused.quantile(950) >= served.quantile(950));
        assert_eq!(refused.quantile(500), served.quantile(500));
    }

    #[test]
    fn windowed_figures_are_medians_over_windows() {
        let mut w = Windowed::new(std::time::Duration::from_secs(3));
        for i in 0..300 {
            let at = std::time::Duration::from_millis(i * 10);
            // The middle window suffers a burst of interference.
            let ms = if (100..200).contains(&i) { 50.0 } else { 1.0 };
            w.add(at, Some(ms));
            w.work(at, at + std::time::Duration::from_millis(10), 1.0);
        }
        assert_eq!(w.len(), 300);
        // The burst moves neither the median nor the rate...
        assert_eq!(w.p50(), 1.0);
        assert_eq!(w.rate(), 100.0);
        // ...but the tail sees every sample.
        assert_eq!(w.tail(500), 1.0);
        assert_eq!(w.tail(900), 50.0);
        // Failures rank at +∞ inside their windows.
        for _ in 0..60 {
            w.add(std::time::Duration::from_millis(5), None);
            w.add(std::time::Duration::from_millis(2500), None);
        }
        assert_eq!(w.failed(), 120);
        assert_eq!(w.tail(990), FAILED_MS);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
