//! The process-wide metrics registry: counters and fixed-bucket histograms
//! cheap enough for the mission hot path.
//!
//! Counters are *sharded*: each instrument holds a small array of
//! cache-line-padded atomics and a writing thread picks its shard by a
//! thread-local index, so concurrent mission workers incrementing the same
//! counter do not serialize on one cache line. Reads sum the shards —
//! counters are exact (every add lands in exactly one shard), merely not
//! instantaneous snapshots across shards, which is all an exposition dump
//! needs.
//!
//! Histograms use fixed upper bounds chosen at registration (first
//! registration of a name wins) and accumulate their sum in 1 ns
//! fixed-point, so `observe` is atomics-only — no locks anywhere on the
//! write path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Shards per counter. Eight covers the worker counts the mission executor
/// realistically runs with while keeping an idle counter at one cache line
/// per shard.
pub const SHARDS: usize = 8;

/// One cache line of counter state, padded so neighbouring shards never
/// false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The shard index of this thread, assigned round-robin on first use.
    static THREAD_SHARD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn shard_index() -> usize {
    THREAD_SHARD.with(|shard| *shard)
}

/// A monotonically increasing, sharded counter.
#[derive(Debug)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| PaddedU64::default()),
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The exact total of every add so far.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Fixed-point quantum of the histogram sum: 1 ns for second-valued
/// observations, which bounds the accumulated rounding error far below
/// anything an exposition reader can see.
const SUM_QUANTUM: f64 = 1e9;

/// A fixed-bucket histogram (cumulative bucket semantics on exposition,
/// like Prometheus): `bounds` are the finite upper bounds, with an implicit
/// `+Inf` bucket at the end.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: Counter,
    sum_quanta: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|pair| pair[0] < pair[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: Counter::new(),
            sum_quanta: AtomicU64::new(0),
        }
    }

    /// Records one observation. Values at a bound land in that bound's
    /// bucket (`le` semantics); everything above the last bound lands in
    /// the implicit `+Inf` bucket.
    pub fn observe(&self, value: f64) {
        let index = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        self.count.inc();
        let quanta = (value.max(0.0) * SUM_QUANTUM).round() as u64;
        self.sum_quanta.fetch_add(quanta, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.value()
    }

    /// Sum of observations (1 ns fixed-point resolution).
    pub fn sum(&self) -> f64 {
        self.sum_quanta.load(Ordering::Relaxed) as f64 / SUM_QUANTUM
    }

    /// The finite upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) observation counts, the `+Inf` bucket
    /// last.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect()
    }
}

/// Default bounds for wall-clock histograms: 1 ms to 2 minutes, roughly
/// logarithmic — module ticks sit at the bottom, whole missions at the top.
pub const SECONDS_BUCKETS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
];

/// The named-instrument registry. Instruments are created on first lookup
/// and live for the registry's lifetime; hot call sites should cache the
/// returned [`Arc`] (a lookup takes a mutex).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty, private registry (tests; the engine uses
    /// [`Registry::global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry every instrumented crate writes into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().expect("obs registry poisoned");
        match counters.get(name) {
            Some(counter) => counter.clone(),
            None => {
                let counter = Arc::new(Counter::new());
                counters.insert(name.to_string(), counter.clone());
                counter
            }
        }
    }

    /// The histogram named `name`, created with `bounds` on first use (a
    /// later registration with different bounds gets the original
    /// instrument — bounds are part of the name's identity, first wins).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().expect("obs registry poisoned");
        match histograms.get(name) {
            Some(histogram) => histogram.clone(),
            None => {
                let histogram = Arc::new(Histogram::new(bounds));
                histograms.insert(name.to_string(), histogram.clone());
                histogram
            }
        }
    }

    /// Renders every instrument as Prometheus-style text exposition
    /// (instruments in name order, buckets cumulative).
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        for (name, counter) in self.counters.lock().expect("obs registry poisoned").iter() {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", counter.value());
        }
        for (name, histogram) in self
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
        {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (bound, count) in histogram.bounds().iter().zip(histogram.bucket_counts()) {
                cumulative += count;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    format_value(*bound)
                );
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.count());
            let _ = writeln!(out, "{name}_sum {}", format_value(histogram.sum()));
            let _ = writeln!(out, "{name}_count {}", histogram.count());
        }
        out
    }
}

/// Formats an exposition value: finite floats as-is, non-finite sanitized
/// to 0 (the registry never produces them, but a dump must stay parseable).
fn format_value(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_count_and_share_by_name() {
        let registry = Registry::new();
        let a = registry.counter("mls_test_total");
        let b = registry.counter("mls_test_total");
        assert!(Arc::ptr_eq(&a, &b));
        a.inc();
        b.add(4);
        assert_eq!(a.value(), 5);
        assert_eq!(registry.counter("mls_other_total").value(), 0);
    }

    #[test]
    fn counters_are_exact_across_threads() {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("mls_threads_total");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(counter.value(), 80_000);
    }

    #[test]
    fn histogram_bucket_edges_are_le_semantics() {
        let registry = Registry::new();
        let histogram = registry.histogram("mls_lat_seconds", &[0.1, 1.0, 10.0]);
        // Exactly at a bound lands in that bound's bucket.
        histogram.observe(0.1);
        // Strictly inside a bucket.
        histogram.observe(0.5);
        // At the last finite bound.
        histogram.observe(10.0);
        // Above every bound: the +Inf bucket.
        histogram.observe(11.0);
        // Negative observations clamp into the first bucket (and the sum).
        histogram.observe(-1.0);
        assert_eq!(histogram.bucket_counts(), vec![2, 1, 1, 1]);
        assert_eq!(histogram.count(), 5);
        assert!((histogram.sum() - (0.1 + 0.5 + 10.0 + 11.0)).abs() < 1e-6);
    }

    #[test]
    fn histogram_bounds_identity_is_first_registration() {
        let registry = Registry::new();
        let first = registry.histogram("mls_h", &[1.0]);
        let second = registry.histogram("mls_h", &[2.0, 3.0]);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(second.bounds(), &[1.0]);
    }

    #[test]
    fn exposition_renders_all_instrument_kinds() {
        let registry = Registry::new();
        registry.counter("mls_jobs_total").add(7);
        let histogram = registry.histogram("mls_wall_seconds", &[0.5, 1.0]);
        histogram.observe(0.25);
        histogram.observe(2.0);
        let text = registry.exposition();
        assert!(text.contains("# TYPE mls_jobs_total counter"));
        assert!(text.contains("mls_jobs_total 7"));
        assert!(text.contains("mls_wall_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("mls_wall_seconds_bucket{le=\"1\"} 1"));
        assert!(text.contains("mls_wall_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mls_wall_seconds_count 2"));
        // Every non-comment line is `name value` — parseable exposition.
        for line in text.lines().filter(|line| !line.starts_with('#')) {
            let mut parts = line.split_whitespace();
            assert!(parts.next().is_some(), "metric name missing: {line}");
            let value = parts.next().expect("metric value missing");
            assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
            assert!(parts.next().is_none(), "trailing tokens: {line}");
        }
    }
}
