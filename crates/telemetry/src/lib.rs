//! `camdnn-telemetry` — the observability spine of the CAM/RTM stack.
//!
//! One process-wide recorder ([`global`]) unifies three measurement surfaces
//! that previously lived in per-crate silos:
//!
//! * a **metrics registry** ([`Registry`]) of named counters, gauges and
//!   log-bucketed histograms, sharded by name hash so hot-path updates on
//!   distinct metrics never contend, with deterministic (sorted-by-name)
//!   snapshot ordering;
//! * a **hierarchical span recorder** ([`SpanGuard`], [`SpanContext`]):
//!   enter/exit scopes with thread-safe parenting and wall-clock timing,
//!   aggregated per collapsed-stack path and exportable as flamegraph text
//!   ([`flamegraph`]);
//! * one **exposition format** over [`MetricsSnapshot`]: canonical JSON
//!   (schema `metrics_snapshot_v1`, see `BENCH_schema.md`).
//!
//! # Determinism contract
//!
//! Snapshots are split in two. The `deterministic` section holds counters,
//! gauges and histograms of virtual-clock values: for a fixed workload it is
//! byte-identical across runs and at any `RAYON_NUM_THREADS`, so tests
//! golden-pin [`MetricsSnapshot::deterministic_json`]. The `timing` section
//! holds wall-clock histograms and span aggregates and is never pinned.
//!
//! # Cost contract
//!
//! Recording is **off** by default. Every instrumentation hook in the stack
//! first checks [`enabled`] — a single relaxed atomic load — and does nothing
//! else when recording is off, so the disabled path stays within noise of
//! uninstrumented code (`benches/telemetry.rs` pins < 3% on the engine hot
//! loop). Instrumented crates gate on [`enabled`] themselves; the free
//! functions here ([`count`], [`observe`], [`span`], …) also check it, so
//! callers never need an outer `if`.
//!
//! ```
//! telemetry::set_enabled(true);
//! telemetry::reset();
//! {
//!     let _compile = telemetry::span("compile");
//!     telemetry::count("compile.layers", 3);
//! }
//! let snapshot = telemetry::snapshot();
//! assert_eq!(snapshot.deterministic.counters[0].value, 3);
//! assert_eq!(snapshot.timing.spans[0].path, "compile");
//! telemetry::set_enabled(false);
//! # telemetry::reset();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod histogram;
mod registry;
mod snapshot;
mod span;

pub use histogram::{nearest_rank, LatencyHistogram};
pub use registry::{HistogramClass, Registry};
pub use snapshot::{
    CounterSnapshot, DeterministicSection, GaugeSnapshot, HistogramBucket, HistogramSnapshot,
    MetricsSnapshot, SpanSnapshot, TimingSection,
};
pub use span::{ContextGuard, SpanCollector, SpanContext, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// The process-wide telemetry state: the enable flag, the metrics registry
/// and the span collector.
#[derive(Debug)]
pub struct Telemetry {
    enabled: AtomicBool,
    registry: Registry,
    spans: SpanCollector,
}

impl Telemetry {
    fn new() -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            registry: Registry::new(),
            spans: SpanCollector::new(),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span collector.
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }
}

/// The process-wide telemetry instance.
pub fn global() -> &'static Telemetry {
    static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
    GLOBAL.get_or_init(Telemetry::new)
}

/// Whether recording is on. Instrumentation hooks gate on this single
/// relaxed load; everything else in this crate is behind it.
#[inline]
pub fn enabled() -> bool {
    global().enabled.load(Ordering::Relaxed)
}

/// Turns recording on or off (off is the default).
pub fn set_enabled(on: bool) {
    global().enabled.store(on, Ordering::Relaxed);
}

/// Drops every recorded metric and span aggregate (the enable flag is left
/// as is). Tests call this to start from a clean, deterministic state.
pub fn reset() {
    global().registry.reset();
    global().spans.reset();
}

/// Adds `delta` to the named counter when recording is on.
#[inline]
pub fn count(name: &str, delta: u64) {
    if enabled() {
        global().registry.add(name, delta);
    }
}

/// Sets the named gauge when recording is on.
#[inline]
pub fn gauge(name: &str, value: i64) {
    if enabled() {
        global().registry.set_gauge(name, value);
    }
}

/// Raises the named gauge high-water mark when recording is on.
#[inline]
pub fn gauge_max(name: &str, value: i64) {
    if enabled() {
        global().registry.max_gauge(name, value);
    }
}

/// Records a deterministic (virtual-clock) value into the named histogram
/// when recording is on.
#[inline]
pub fn observe(name: &str, value_ns: u64) {
    if enabled() {
        global()
            .registry
            .observe(name, value_ns, HistogramClass::Deterministic);
    }
}

/// Records a wall-clock value into the named timing histogram when recording
/// is on.
#[inline]
pub fn observe_timing(name: &str, value_ns: u64) {
    if enabled() {
        global()
            .registry
            .observe(name, value_ns, HistogramClass::Timing);
    }
}

/// Opens a span scope named `name`; the scope closes (and its wall-clock
/// time records) when the returned guard drops. Inert when recording is off.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if enabled() {
        SpanGuard::enter(name)
    } else {
        SpanGuard::disabled()
    }
}

/// Takes a full snapshot of the current telemetry state.
pub fn snapshot() -> MetricsSnapshot {
    let registry = &global().registry;
    MetricsSnapshot {
        schema: MetricsSnapshot::SCHEMA.to_string(),
        deterministic: DeterministicSection {
            counters: registry.collect_counters(),
            gauges: registry.collect_gauges(),
            histograms: registry.collect_histograms(HistogramClass::Deterministic),
        },
        timing: TimingSection {
            histograms: registry.collect_histograms(HistogramClass::Timing),
            spans: global()
                .spans
                .collect()
                .into_iter()
                .map(|(path, count, total_ns, self_ns)| SpanSnapshot {
                    path,
                    count,
                    total_ns,
                    self_ns,
                })
                .collect(),
        },
    }
}

/// Collapsed-stack flamegraph text of the span aggregates (one
/// `path self_ns` line per path, sorted).
pub fn flamegraph() -> String {
    global().spans.collapsed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Serialises tests that touch the global recorder (the unit tests of
    /// every module share this one lock).
    pub(crate) fn with_recorder<T>(test: impl FnOnce() -> T) -> T {
        static LOCK: Mutex<()> = Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
        reset();
        set_enabled(true);
        let out = test();
        set_enabled(false);
        reset();
        out
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        with_recorder(|| {
            set_enabled(false);
            count("ghost", 1);
            gauge("ghost.gauge", 2);
            observe("ghost.hist", 3);
            observe_timing("ghost.timing", 4);
            let snap = snapshot();
            assert_eq!(snap.deterministic, DeterministicSection::default());
            assert_eq!(snap.timing, TimingSection::default());
        });
    }

    #[test]
    fn snapshot_sections_split_deterministic_from_timing() {
        with_recorder(|| {
            count("z.counter", 2);
            count("a.counter", 1);
            gauge_max("peak", 9);
            observe("det.hist", 50);
            observe_timing("wall.hist", 70);
            {
                let _span = span("root");
            }
            let snap = snapshot();
            assert_eq!(snap.schema, MetricsSnapshot::SCHEMA);
            let names: Vec<&str> = snap
                .deterministic
                .counters
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            assert_eq!(names, vec!["a.counter", "z.counter"], "sorted by name");
            assert_eq!(snap.deterministic.gauges[0].value, 9);
            assert_eq!(snap.deterministic.histograms[0].name, "det.hist");
            assert_eq!(snap.timing.histograms[0].name, "wall.hist");
            assert_eq!(snap.timing.spans[0].path, "root");
            // The deterministic section knows nothing wall-clock.
            assert!(!snap.deterministic_json().contains("wall.hist"));
            assert!(!snap.deterministic_json().contains("root"));
        });
    }

    /// The sort-based oracle: exact nearest-rank percentile over raw values.
    fn oracle_percentile(values: &[u64], pct: u64) -> u64 {
        if values.is_empty() {
            return 0;
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted[(nearest_rank(sorted.len() as u64, pct) - 1) as usize]
    }

    fn recorded(values: &[u64]) -> LatencyHistogram {
        let mut histogram = LatencyHistogram::new();
        for &value in values {
            histogram.record_ns(value);
        }
        histogram
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_histogram_merge_is_commutative_and_associative(
            a in proptest::collection::vec(0u64..1_000_000_000, 0..40),
            b in proptest::collection::vec(0u64..1_000_000_000, 0..40),
            c in proptest::collection::vec(0u64..1_000_000_000, 0..40),
        ) {
            let (ha, hb, hc) = (recorded(&a), recorded(&b), recorded(&c));
            // Commutative: a+b == b+a.
            let mut ab = ha.clone();
            ab.merge(&hb);
            let mut ba = hb.clone();
            ba.merge(&ha);
            prop_assert_eq!(&ab, &ba);
            // Associative: (a+b)+c == a+(b+c).
            let mut ab_c = ab.clone();
            ab_c.merge(&hc);
            let mut bc = hb.clone();
            bc.merge(&hc);
            let mut a_bc = ha.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);
            // Merge equals recording the union.
            let mut union: Vec<u64> = a.clone();
            union.extend(&b);
            union.extend(&c);
            prop_assert_eq!(&ab_c, &recorded(&union));
        }

        #[test]
        fn prop_histogram_percentiles_agree_with_sort_oracle(
            values in proptest::collection::vec(0u64..10_000_000_000, 1..60),
            pct in 1u64..=100,
        ) {
            let histogram = recorded(&values);
            let got = histogram.percentile_ns(pct);
            let exact = oracle_percentile(&values, pct);
            // Within one log-linear bucket (~1/32) of the exact rank value.
            prop_assert!(
                got.abs_diff(exact) <= exact / 32 + 1,
                "p{}: histogram {} vs oracle {}", pct, got, exact
            );
            prop_assert!(got <= histogram.max_ns());
        }
    }
}
