//! Serializable snapshots of the registry and span collector as canonical
//! JSON (schema: `BENCH_schema.md`, `metrics_snapshot_v1`).
//!
//! A snapshot is split into two sections:
//!
//! * **`deterministic`** — counters, gauges and deterministic histograms.
//!   For a fixed workload this section is byte-identical across runs and at
//!   any `RAYON_NUM_THREADS`, so tests may golden-pin its JSON.
//! * **`timing`** — wall-clock histograms and span aggregates. Real time is
//!   never deterministic, so this section is excluded from golden JSON.

use serde::{Deserialize, Serialize};

/// One named monotone counter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Dotted metric name, e.g. `apc.compile.misses`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One named point-in-time gauge.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GaugeSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Last set (or high-water) value.
    pub value: i64,
}

/// One occupied histogram bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Upper bound of the bucket, in nanoseconds (inclusive).
    pub bound_ns: u64,
    /// Values recorded into the bucket.
    pub count: u64,
}

/// One named log-bucketed histogram, summarised.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Dotted metric name.
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Sum of the recorded values, ns (saturating at `u64::MAX`).
    pub sum_ns: u64,
    /// Smallest recorded value (exact), ns.
    pub min_ns: u64,
    /// Largest recorded value (exact), ns.
    pub max_ns: u64,
    /// Nearest-rank p50 over bucket bounds, ns.
    pub p50_ns: u64,
    /// Nearest-rank p95 over bucket bounds, ns.
    pub p95_ns: u64,
    /// Nearest-rank p99 over bucket bounds, ns.
    pub p99_ns: u64,
    /// The occupied buckets, ascending by bound.
    pub buckets: Vec<HistogramBucket>,
}

/// One aggregated span path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// `;`-joined scope chain (collapsed-stack convention).
    pub path: String,
    /// Times the scope was entered.
    pub count: u64,
    /// Total wall-clock nanoseconds inside the scope.
    pub total_ns: u64,
    /// Total minus direct children's totals (clamped at zero).
    pub self_ns: u64,
}

/// The golden-safe section: byte-identical across runs for a fixed workload.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeterministicSection {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// Deterministic histograms (virtual-clock values), sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// The wall-clock section, excluded from golden comparisons.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimingSection {
    /// Wall-clock histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanSnapshot>,
}

/// A full snapshot of the telemetry state (schema `metrics_snapshot_v1`).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema discriminator, always `"metrics_snapshot_v1"`.
    pub schema: String,
    /// Counters, gauges and deterministic histograms (golden-safe).
    pub deterministic: DeterministicSection,
    /// Wall-clock histograms and spans (never golden-pinned).
    pub timing: TimingSection,
}

impl MetricsSnapshot {
    /// The schema discriminator of this snapshot layout.
    pub const SCHEMA: &'static str = "metrics_snapshot_v1";

    /// Canonical JSON of the whole snapshot.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("metrics snapshot serializes")
    }

    /// Canonical JSON of the deterministic section alone — the byte string
    /// golden tests pin.
    pub fn deterministic_json(&self) -> String {
        serde_json::to_string(&self.deterministic).expect("deterministic section serializes")
    }

    /// Parses a snapshot back from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns the underlying JSON error string on malformed input.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            schema: MetricsSnapshot::SCHEMA.to_string(),
            deterministic: DeterministicSection {
                counters: vec![CounterSnapshot {
                    name: "apc.compile.misses".to_string(),
                    value: 4,
                }],
                gauges: vec![GaugeSnapshot {
                    name: "serve.replicas".to_string(),
                    value: 2,
                }],
                histograms: vec![HistogramSnapshot {
                    name: "serve.sim.latency".to_string(),
                    count: 3,
                    sum_ns: 60,
                    min_ns: 10,
                    max_ns: 30,
                    p50_ns: 20,
                    p95_ns: 30,
                    p99_ns: 30,
                    buckets: vec![
                        HistogramBucket {
                            bound_ns: 10,
                            count: 1,
                        },
                        HistogramBucket {
                            bound_ns: 20,
                            count: 1,
                        },
                        HistogramBucket {
                            bound_ns: 30,
                            count: 1,
                        },
                    ],
                }],
            },
            timing: TimingSection {
                histograms: vec![],
                spans: vec![SpanSnapshot {
                    path: "compile;lower".to_string(),
                    count: 2,
                    total_ns: 500,
                    self_ns: 500,
                }],
            },
        }
    }

    #[test]
    fn snapshots_round_trip_through_json() {
        let snapshot = sample();
        let json = snapshot.to_json();
        let back = MetricsSnapshot::from_json(&json).expect("parse back");
        assert_eq!(back, snapshot);
        assert_eq!(back.to_json(), json, "round trip is byte-stable");
        assert!(json.contains("\"metrics_snapshot_v1\""));
        assert!(snapshot.deterministic_json().contains("apc.compile.misses"));
        assert!(!snapshot.deterministic_json().contains("compile;lower"));
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(MetricsSnapshot::from_json("{not json").is_err());
        assert!(MetricsSnapshot::from_json("{\"schema\": 3}").is_err());
    }
}
