//! The sharded metrics registry: named counters, gauges and log-bucketed
//! histograms.
//!
//! Names hash to one of [`SHARDS`] independent shards, so concurrent updates
//! of different metrics rarely contend. Counter and gauge updates on an
//! already-registered name are lock-free (a shard read-lock plus one atomic
//! RMW); only first registration and histogram recording take a short
//! exclusive lock. Snapshots merge every shard and sort by name, so their
//! ordering is deterministic regardless of hash placement or thread
//! interleaving.

use crate::histogram::LatencyHistogram;
use crate::snapshot::{CounterSnapshot, GaugeSnapshot, HistogramBucket, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Number of independent shards metric names hash over.
const SHARDS: usize = 16;

/// Which snapshot section a histogram belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramClass {
    /// Values derived from deterministic quantities (virtual-clock times,
    /// counts): byte-identical across runs, safe for golden pinning.
    Deterministic,
    /// Wall-clock values: excluded from the golden (deterministic) section.
    Timing,
}

#[derive(Debug)]
struct HistogramCell {
    histogram: LatencyHistogram,
    class: HistogramClass,
}

/// One shard: three independent name → metric maps.
#[derive(Debug, Default)]
struct Shard {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, HistogramCell>>,
}

impl Shard {
    fn new() -> Self {
        Shard::default()
    }
}

/// The process-wide metrics store behind [`crate::global`].
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Shard>,
}

/// FNV-1a over the metric name; stable across runs so shard placement never
/// perturbs anything observable.
fn shard_of(name: &str) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % SHARDS as u64) as usize
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
        }
    }

    /// Adds `delta` to the named counter, registering it at zero first if
    /// needed.
    pub fn add(&self, name: &str, delta: u64) {
        let shard = &self.shards[shard_of(name)];
        if let Some(counter) = shard.counters.read().expect("counter shard").get(name) {
            counter.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        let mut counters = shard.counters.write().expect("counter shard");
        counters
            .entry(name.to_string())
            .or_default()
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value of the named counter (0 when unregistered).
    pub fn counter(&self, name: &str) -> u64 {
        let shard = &self.shards[shard_of(name)];
        shard
            .counters
            .read()
            .expect("counter shard")
            .get(name)
            .map_or(0, |counter| counter.load(Ordering::Relaxed))
    }

    /// Sets the named gauge to `value`, registering it first if needed.
    pub fn set_gauge(&self, name: &str, value: i64) {
        let shard = &self.shards[shard_of(name)];
        if let Some(gauge) = shard.gauges.read().expect("gauge shard").get(name) {
            gauge.store(value, Ordering::Relaxed);
            return;
        }
        let mut gauges = shard.gauges.write().expect("gauge shard");
        gauges
            .entry(name.to_string())
            .or_default()
            .store(value, Ordering::Relaxed);
    }

    /// Raises the named gauge to `value` if it is below it (a deterministic
    /// high-water mark under any thread interleaving).
    pub fn max_gauge(&self, name: &str, value: i64) {
        let shard = &self.shards[shard_of(name)];
        if let Some(gauge) = shard.gauges.read().expect("gauge shard").get(name) {
            gauge.fetch_max(value, Ordering::Relaxed);
            return;
        }
        let mut gauges = shard.gauges.write().expect("gauge shard");
        gauges
            .entry(name.to_string())
            .or_default()
            .fetch_max(value, Ordering::Relaxed);
    }

    /// Current value of the named gauge (0 when unregistered).
    pub fn gauge(&self, name: &str) -> i64 {
        let shard = &self.shards[shard_of(name)];
        shard
            .gauges
            .read()
            .expect("gauge shard")
            .get(name)
            .map_or(0, |gauge| gauge.load(Ordering::Relaxed))
    }

    /// Records `value_ns` into the named histogram of the given class.
    ///
    /// # Panics
    ///
    /// Panics when the name was previously registered under the other class
    /// — a metric cannot be deterministic in one callsite and wall-clock in
    /// another.
    pub fn observe(&self, name: &str, value_ns: u64, class: HistogramClass) {
        let shard = &self.shards[shard_of(name)];
        let mut histograms = shard.histograms.lock().expect("histogram shard");
        let cell = histograms
            .entry(name.to_string())
            .or_insert_with(|| HistogramCell {
                histogram: LatencyHistogram::new(),
                class,
            });
        assert_eq!(
            cell.class, class,
            "histogram {name} registered under two classes"
        );
        cell.histogram.record_ns(value_ns);
    }

    /// A clone of the named histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<LatencyHistogram> {
        let shard = &self.shards[shard_of(name)];
        let histograms = shard.histograms.lock().expect("histogram shard");
        histograms.get(name).map(|cell| cell.histogram.clone())
    }

    /// Drops every registered metric.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.counters.write().expect("counter shard").clear();
            shard.gauges.write().expect("gauge shard").clear();
            shard.histograms.lock().expect("histogram shard").clear();
        }
    }

    /// All counters, sorted by name.
    pub fn collect_counters(&self) -> Vec<CounterSnapshot> {
        let mut merged = BTreeMap::new();
        for shard in &self.shards {
            for (name, counter) in shard.counters.read().expect("counter shard").iter() {
                merged.insert(name.clone(), counter.load(Ordering::Relaxed));
            }
        }
        merged
            .into_iter()
            .map(|(name, value)| CounterSnapshot { name, value })
            .collect()
    }

    /// All gauges, sorted by name.
    pub fn collect_gauges(&self) -> Vec<GaugeSnapshot> {
        let mut merged = BTreeMap::new();
        for shard in &self.shards {
            for (name, gauge) in shard.gauges.read().expect("gauge shard").iter() {
                merged.insert(name.clone(), gauge.load(Ordering::Relaxed));
            }
        }
        merged
            .into_iter()
            .map(|(name, value)| GaugeSnapshot { name, value })
            .collect()
    }

    /// All histograms of `class`, sorted by name.
    pub fn collect_histograms(&self, class: HistogramClass) -> Vec<HistogramSnapshot> {
        let mut merged = BTreeMap::new();
        for shard in &self.shards {
            for (name, cell) in shard.histograms.lock().expect("histogram shard").iter() {
                if cell.class == class {
                    merged.insert(name.clone(), HistogramSnapshot::of(name, &cell.histogram));
                }
            }
        }
        merged.into_values().collect()
    }
}

impl HistogramSnapshot {
    /// Summarises `histogram` under `name` into its serializable form.
    pub fn of(name: &str, histogram: &LatencyHistogram) -> Self {
        HistogramSnapshot {
            name: name.to_string(),
            count: histogram.count(),
            sum_ns: histogram.sum_ns().min(u128::from(u64::MAX)) as u64,
            min_ns: histogram.min_ns(),
            max_ns: histogram.max_ns(),
            p50_ns: histogram.percentile_ns(50),
            p95_ns: histogram.percentile_ns(95),
            p99_ns: histogram.percentile_ns(99),
            buckets: histogram
                .nonzero_buckets()
                .into_iter()
                .map(|(bound_ns, count)| HistogramBucket { bound_ns, count })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_collect_sorted() {
        let registry = Registry::new();
        registry.add("b.second", 2);
        registry.add("a.first", 1);
        registry.add("b.second", 3);
        assert_eq!(registry.counter("b.second"), 5);
        assert_eq!(registry.counter("missing"), 0);
        let counters = registry.collect_counters();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].name, "a.first");
        assert_eq!(counters[0].value, 1);
        assert_eq!(counters[1].value, 5);
    }

    #[test]
    fn gauges_set_and_high_water() {
        let registry = Registry::new();
        registry.set_gauge("depth", 7);
        registry.set_gauge("depth", 3);
        assert_eq!(registry.gauge("depth"), 3);
        registry.max_gauge("peak", 5);
        registry.max_gauge("peak", 2);
        assert_eq!(registry.gauge("peak"), 5);
    }

    #[test]
    fn histograms_split_by_class_and_reset_clears() {
        let registry = Registry::new();
        registry.observe("sim.latency", 100, HistogramClass::Deterministic);
        registry.observe("wall.latency", 200, HistogramClass::Timing);
        assert_eq!(
            registry
                .collect_histograms(HistogramClass::Deterministic)
                .len(),
            1
        );
        let timing = registry.collect_histograms(HistogramClass::Timing);
        assert_eq!(timing.len(), 1);
        assert_eq!(timing[0].count, 1);
        assert_eq!(timing[0].sum_ns, 200);
        registry.reset();
        assert!(registry.collect_counters().is_empty());
        assert!(registry
            .collect_histograms(HistogramClass::Timing)
            .is_empty());
        assert_eq!(registry.histogram("wall.latency"), None);
    }

    #[test]
    fn concurrent_adds_from_many_threads_sum_exactly() {
        let registry = std::sync::Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let registry = registry.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        registry.add("contended", 1);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("join");
        }
        assert_eq!(registry.counter("contended"), 8000);
    }
}
