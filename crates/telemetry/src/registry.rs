//! The metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Design goals (DESIGN.md "Observability"):
//!
//! * **Lock-cheap hot path.** Handles returned by the registry are
//!   `Arc`s over atomics; incrementing a counter or observing a latency
//!   is a handful of atomic ops with no lock. The registry's
//!   `parking_lot::RwLock` is touched only at registration time, and
//!   call sites cache their handles.
//! * **Label support.** A metric is identified by `(name, labels)`;
//!   labels are sorted at registration so the same set always maps to
//!   the same series.
//! * **Histogram summaries.** Histograms use fixed upper-edge buckets
//!   and report p50/p90/p99 by linear interpolation inside the bucket
//!   that crosses the target rank, clamped to the observed min/max.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest `f64` value.
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Atomic f64 accumulator (CAS loop; contention here is negligible).
#[derive(Debug)]
struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    fn new(v: f64) -> Self {
        AtomicF64 {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn update(&self, f: impl Fn(f64) -> f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }
}

/// A fixed-bucket histogram with p50/p90/p99 summaries.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper edges, strictly increasing; an implicit overflow bucket
    /// catches everything above the last edge.
    bounds: Vec<f64>,
    /// One count per edge plus the overflow bucket.
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicF64,
    min: AtomicF64,
    max: AtomicF64,
}

impl Histogram {
    /// Default latency buckets: 1 ns to ~30 s, four per decade. The
    /// twelve edges below 1 µs give sub-microsecond series (most pump
    /// phases, a GEOPM step) quantiles of their own; the edges from 1 µs
    /// up are computed as they always were, so their bits do not move.
    pub fn default_bounds() -> Vec<f64> {
        let mut bounds: Vec<f64> = (0..12)
            .map(|k| 1e-9 * 10f64.powf(0.25 * k as f64))
            .collect();
        let mut edge = 1e-6;
        while edge < 40.0 {
            bounds.push(edge);
            edge *= 10f64.powf(0.25);
        }
        bounds
    }

    /// Linear buckets, handy for dimensionless ratios like tracking
    /// error: `linear_bounds(0.05, 40)` covers (0, 2.0] in 0.05 steps.
    pub fn linear_bounds(step: f64, count: usize) -> Vec<f64> {
        (1..=count).map(|i| step * i as f64).collect()
    }

    fn new(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistogramCore {
                bounds,
                counts,
                total: AtomicU64::new(0),
                sum: AtomicF64::new(0.0),
                min: AtomicF64::new(f64::INFINITY),
                max: AtomicF64::new(f64::NEG_INFINITY),
            }),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let c = &self.core;
        let idx = c.bounds.partition_point(|&edge| edge < v);
        c.counts[idx].fetch_add(1, Ordering::Relaxed);
        c.total.fetch_add(1, Ordering::Relaxed);
        c.sum.update(|s| s + v);
        // Most observations set no new extreme: a plain load rules them
        // out, and the CAS loop runs only when one might.
        if v < c.min.get() {
            c.min.update(|m| m.min(v));
        }
        if v > c.max.get() {
            c.max.update(|m| m.max(v));
        }
    }

    pub fn count(&self) -> u64 {
        self.core.total.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        self.core.sum.get()
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    pub fn min(&self) -> f64 {
        let m = self.core.min.get();
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    pub fn max(&self) -> f64 {
        let m = self.core.max.get();
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Estimate the q-quantile (`0.0..=1.0`) by interpolating within
    /// the bucket that crosses the target rank.
    pub fn quantile(&self, q: f64) -> f64 {
        let c = &self.core;
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * total as f64;
        let mut cum = 0u64;
        for (idx, count) in c.counts.iter().enumerate() {
            let n = count.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= target {
                let lower = if idx == 0 { 0.0 } else { c.bounds[idx - 1] };
                let upper = if idx < c.bounds.len() {
                    c.bounds[idx]
                } else {
                    // Overflow bucket: fall back on the observed max.
                    self.max().max(lower)
                };
                let frac = if n == 0 {
                    0.0
                } else {
                    ((target - cum as f64) / n as f64).clamp(0.0, 1.0)
                };
                let est = lower + (upper - lower) * frac;
                return est.clamp(self.min(), self.max());
            }
            cum = next;
        }
        self.max()
    }

    /// Cumulative `(upper_edge, count)` pairs for exposition; the final
    /// entry is the `+Inf` bucket.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let c = &self.core;
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(c.counts.len());
        for (idx, count) in c.counts.iter().enumerate() {
            cum += count.load(Ordering::Relaxed);
            let edge = if idx < c.bounds.len() {
                c.bounds[idx]
            } else {
                f64::INFINITY
            };
            out.push((edge, cum));
        }
        out
    }
}

/// One metric's identity: name plus sorted `key=value` labels.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

/// Escape a label value for the Prometheus text exposition format:
/// inside `k="v"` bodies, backslash, double-quote and line-feed must be
/// written as `\\`, `\"` and `\n` or a hostile label (a job type name
/// with a quote, an error string with a newline) corrupts the scrape.
/// Clean values (the overwhelmingly common case) are returned borrowed.
pub(crate) fn escape_label(v: &str) -> std::borrow::Cow<'_, str> {
    if !v.contains(['\\', '"', '\n']) {
        return std::borrow::Cow::Borrowed(v);
    }
    let mut out = String::with_capacity(v.len() + 8);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// `name{k="v",...}` (or bare name without labels), with label
    /// values escaped per the Prometheus text format.
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A point-in-time copy of one metric, used by the renderers.
#[derive(Clone, Debug)]
pub enum Snapshot {
    Counter {
        id: MetricId,
        value: u64,
    },
    Gauge {
        id: MetricId,
        value: f64,
    },
    Histogram {
        id: MetricId,
        count: u64,
        sum: f64,
        mean: f64,
        min: f64,
        max: f64,
        p50: f64,
        p90: f64,
        p99: f64,
        buckets: Vec<(f64, u64)>,
    },
}

impl Snapshot {
    pub fn id(&self) -> &MetricId {
        match self {
            Snapshot::Counter { id, .. } => id,
            Snapshot::Gauge { id, .. } => id,
            Snapshot::Histogram { id, .. } => id,
        }
    }
}

/// The shared registry of named series.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: RwLock<HashMap<MetricId, Metric>>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        if let Some(Metric::Counter(c)) = self.metrics.read().get(&id) {
            return c.clone();
        }
        match self
            .metrics
            .write()
            .entry(id)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric type mismatch for counter: {other:?}"),
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        if let Some(Metric::Gauge(g)) = self.metrics.read().get(&id) {
            return g.clone();
        }
        match self
            .metrics
            .write()
            .entry(id)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric type mismatch for gauge: {other:?}"),
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with_bounds(name, labels, Histogram::default_bounds())
    }

    pub fn histogram_with_bounds(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: Vec<f64>,
    ) -> Histogram {
        let id = MetricId::new(name, labels);
        if let Some(Metric::Histogram(h)) = self.metrics.read().get(&id) {
            return h.clone();
        }
        match self
            .metrics
            .write()
            .entry(id)
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric type mismatch for histogram: {other:?}"),
        }
    }

    /// Snapshot every series, sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Vec<Snapshot> {
        let metrics = self.metrics.read();
        let mut out: Vec<Snapshot> = metrics
            .iter()
            .map(|(id, metric)| match metric {
                Metric::Counter(c) => Snapshot::Counter {
                    id: id.clone(),
                    value: c.get(),
                },
                Metric::Gauge(g) => Snapshot::Gauge {
                    id: id.clone(),
                    value: g.get(),
                },
                Metric::Histogram(h) => Snapshot::Histogram {
                    id: id.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    mean: h.mean(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.quantile(0.50),
                    p90: h.quantile(0.90),
                    p99: h.quantile(0.99),
                    buckets: h.cumulative_buckets(),
                },
            })
            .collect();
        out.sort_by(|a, b| a.id().cmp(b.id()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("frames_total", &[("dir", "rx")]);
        c.inc();
        c.add(4);
        // Same (name, labels) resolves to the same series.
        assert_eq!(r.counter("frames_total", &[("dir", "rx")]).get(), 5);
        assert_eq!(r.counter("frames_total", &[("dir", "tx")]).get(), 0);
        let g = r.gauge("queue_depth", &[]);
        g.set(7.5);
        assert_eq!(r.gauge("queue_depth", &[]).get(), 7.5);
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        let r = Registry::new();
        r.counter("m", &[("type", "bt\".D\\81\nboom")]).inc();
        let snaps = r.snapshot();
        assert_eq!(
            snaps[0].id().render(),
            "m{type=\"bt\\\".D\\\\81\\nboom\"}",
            "quote, backslash and newline must be escaped"
        );
        // Clean labels render unchanged (no allocation-churn regression).
        assert!(matches!(
            escape_label("bt.D.81"),
            std::borrow::Cow::Borrowed("bt.D.81")
        ));
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        r.counter("m", &[("a", "1"), ("b", "2")]).inc();
        r.counter("m", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(r.counter("m", &[("a", "1"), ("b", "2")]).get(), 2);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn histogram_quantiles_bracket_uniform_data() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("lat", &[], Histogram::linear_bounds(0.01, 100));
        for i in 0..1000 {
            h.observe((i as f64 + 0.5) / 1000.0);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 0.5).abs() < 1e-3);
        assert!(
            (h.quantile(0.5) - 0.5).abs() < 0.02,
            "p50 {}",
            h.quantile(0.5)
        );
        assert!(
            (h.quantile(0.9) - 0.9).abs() < 0.02,
            "p90 {}",
            h.quantile(0.9)
        );
        assert!((h.quantile(0.99) - 0.99).abs() < 0.02);
    }

    #[test]
    fn sub_microsecond_series_read_their_own_quantiles() {
        let r = Registry::new();
        let h = r.histogram("phase", &[]);
        for _ in 0..990 {
            h.observe(200e-9);
        }
        for _ in 0..10 {
            h.observe(50e-6);
        }
        let p50 = h.quantile(0.5);
        assert!((100e-9..=300e-9).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn histogram_overflow_uses_observed_max() {
        let r = Registry::new();
        let h = r.histogram_with_bounds("lat", &[], vec![1.0]);
        h.observe(50.0);
        h.observe(90.0);
        assert!(h.quantile(0.99) <= 90.0);
        assert!(h.quantile(0.99) > 1.0);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let r = Registry::new();
        let h = r.histogram("lat", &[]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let r = Registry::new();
        let h = r.histogram("lat", &[]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }
}
