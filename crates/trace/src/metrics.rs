//! Process-wide metrics registry: counters, gauges, and log2-bucketed
//! histograms behind `&'static str` keys.
//!
//! Keys are static strings by design — recording never allocates, and the
//! namespace stays greppable (`dfs.*`, `job.*`, `index.*`, `op.*`). The
//! [`global`] registry is what the engine layers report into; scoped
//! registries can be created for tests.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::sync::lock;

/// What a key identifies, for snapshot rendering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// Log2-bucketed histogram of `u64` observations.
///
/// Bucket `i` holds observations whose value needs `i` significant bits,
/// i.e. bucket 0 is exactly `0`, bucket `i` covers `[2^(i-1), 2^i)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Upper bound (inclusive) of bucket `i`.
    fn bucket_limit(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing the
    /// q-th observation (`q` in `[0, 1]`). Exact for the max, conservative
    /// (over-estimating by < 2x) elsewhere — the usual log2 trade-off.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_limit(i).min(self.max);
            }
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Nonzero buckets as `(bucket_index, count)` pairs — the compact wire
    /// form.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }

    /// Rebuilds from the compact wire form.
    pub fn from_parts(pairs: &[(usize, u64)], sum: u64, min: u64, max: u64) -> Histogram {
        let mut h = Histogram::new();
        for &(i, n) in pairs {
            if i < h.buckets.len() {
                h.buckets[i] = n;
                h.count += n;
            }
        }
        h.sum = sum;
        h.min = if h.count == 0 { u64::MAX } else { min };
        h.max = max;
        h
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, i64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Thread-safe registry of named metrics.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, key: &'static str, delta: u64) {
        *lock(&self.inner).counters.entry(key).or_insert(0) += delta;
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&self, key: &'static str, value: i64) {
        lock(&self.inner).gauges.insert(key, value);
    }

    /// Records `value` into the named log2 histogram.
    pub fn observe(&self, key: &'static str, value: u64) {
        lock(&self.inner)
            .histograms
            .entry(key)
            .or_default()
            .observe(value);
    }

    /// Folds a whole histogram into the named one (e.g. per-job task
    /// timings rolled up into a process-lifetime histogram).
    pub fn observe_histogram(&self, key: &'static str, h: &Histogram) {
        lock(&self.inner)
            .histograms
            .entry(key)
            .or_default()
            .merge(h);
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = lock(&self.inner);
        RegistrySnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Clears all metrics (test isolation).
    pub fn reset(&self) {
        let mut inner = lock(&self.inner);
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }
}

/// Immutable copy of the registry at one instant.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    pub counters: BTreeMap<&'static str, u64>,
    pub gauges: BTreeMap<&'static str, i64>,
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl RegistrySnapshot {
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    pub fn gauge(&self, key: &str) -> i64 {
        self.gauges.get(key).copied().unwrap_or(0)
    }

    /// Counter deltas relative to an earlier snapshot (saturating, so a
    /// reset between snapshots yields zeros rather than underflow).
    /// Gauges keep their later value; histograms keep the later copy.
    pub fn since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| (k, v.saturating_sub(earlier.counter(k))))
            .collect();
        RegistrySnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Aligned text table of every metric, grouped by kind.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(0)
            .max(20);
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v:>14}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<width$}  {v:>14}  (gauge)\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<width$}  {:>14}  (n={} mean={:.1} p50={} p95={} max={})\n",
                h.sum(),
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.max(),
            ));
        }
        out
    }
}

/// The process-wide registry the engine layers report into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0u64, 1, 2, 3, 4, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1110);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        // p50 lands in the bucket holding the 4th observation (value 3 →
        // bucket [2,4)), whose inclusive limit is 3.
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_is_exact_at_bucket_edges() {
        // Observations sitting exactly on inclusive bucket limits
        // (2^i - 1) come back unchanged at every rank.
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 7, 15, 31, 63, 127] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.125), 0);
        assert_eq!(h.quantile(0.25), 1);
        assert_eq!(h.quantile(0.5), 7);
        assert_eq!(h.quantile(0.75), 31);
        assert_eq!(h.quantile(1.0), 127);
    }

    #[test]
    fn quantile_overestimates_by_less_than_two_x_within_a_bucket() {
        // Worst case of the log2 layout: a value just past a bucket edge
        // reports the bucket's upper limit, which stays under 2x the
        // true value. A second, larger observation keeps `max` from
        // masking the bucket limit.
        for v in [2u64, 5, 9, 100, 1000, 4097, 1 << 40] {
            let mut h = Histogram::new();
            h.observe(v);
            h.observe(u64::MAX / 4);
            let est = h.quantile(0.25); // rank 1 → v's bucket
            assert!(est >= v, "estimate {est} must not under-report {v}");
            assert!(est < 2 * v, "estimate {est} must stay under 2x of {v}");
        }
    }

    #[test]
    fn quantile_at_one_is_the_exact_max_even_mid_bucket() {
        let mut h = Histogram::new();
        for v in [3u64, 900, 77] {
            h.observe(v);
        }
        // 900's bucket limit is 1023; the estimator clamps to the
        // tracked max instead of reporting the limit.
        assert_eq!(h.quantile(1.0), 900);
        assert_eq!(Histogram::new().quantile(0.99), 0, "empty histogram");
    }

    #[test]
    fn histogram_merge_and_wire_form() {
        let mut a = Histogram::new();
        a.observe(5);
        a.observe(9);
        let mut b = Histogram::new();
        b.observe(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 1_000_000);
        let rebuilt = Histogram::from_parts(&a.nonzero_buckets(), a.sum(), a.min(), a.max());
        assert_eq!(rebuilt, a);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let reg = MetricsRegistry::new();
        reg.counter_add("op.records", 10);
        reg.counter_add("op.records", 5);
        reg.gauge_set("dfs.nodes.alive", 16);
        reg.observe("job.task.micros", 250);
        reg.observe("job.task.micros", 800);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("op.records"), 15);
        assert_eq!(snap.gauge("dfs.nodes.alive"), 16);
        assert_eq!(snap.histograms["job.task.micros"].count(), 2);
        let rendered = snap.render();
        assert!(rendered.contains("op.records"));
        assert!(rendered.contains("dfs.nodes.alive"));
    }

    #[test]
    fn snapshot_since_saturates() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a", 10);
        let before = reg.snapshot();
        reg.counter_add("a", 7);
        let after = reg.snapshot();
        assert_eq!(after.since(&before).counter("a"), 7);
        // A snapshot taken after a reset must not underflow.
        reg.reset();
        reg.counter_add("a", 1);
        assert_eq!(reg.snapshot().since(&before).counter("a"), 0);
    }
}
