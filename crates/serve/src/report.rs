//! Serving outcome reporting: latency distributions, queue behaviour, SLO
//! attainment.
//!
//! [`ServeReport`] is assembled from exact integer event times (virtual
//! nanoseconds in simulation mode), so a fixed trace seed produces a
//! byte-identical JSON document on every run — the serving counterpart of the
//! experiment API's `ScenarioRecord`.

use crate::config::ServeConfig;
use crate::fleet::Trajectory;
use crate::trace::TraceSpec;
use serde::{Deserialize, Serialize};
use telemetry::nearest_rank;

/// Exact summary of a latency (or queue-wait) distribution, in nanoseconds.
///
/// Percentiles use the nearest-rank definition over the exact sorted values —
/// no bucketing, no interpolation — so they are deterministic integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Mean, rounded to whole nanoseconds.
    pub mean_ns: u64,
    /// Median (50th percentile, nearest rank).
    pub p50_ns: u64,
    /// 95th percentile (nearest rank).
    pub p95_ns: u64,
    /// 99th percentile (nearest rank).
    pub p99_ns: u64,
    /// Largest observation.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Summarises `values` (order irrelevant; the vector is sorted in place).
    pub fn from_values(mut values: Vec<u64>) -> Self {
        if values.is_empty() {
            return LatencySummary::default();
        }
        values.sort_unstable();
        let count = values.len() as u64;
        let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
        let nearest = |pct: u64| -> u64 { values[(nearest_rank(count, pct) - 1) as usize] };
        LatencySummary {
            count,
            mean_ns: (sum / u128::from(count)) as u64,
            p50_ns: nearest(50),
            p95_ns: nearest(95),
            p99_ns: nearest(99),
            max_ns: values[values.len() - 1],
        }
    }

    /// The median in milliseconds (for table rendering).
    pub fn p50_ms(&self) -> f64 {
        self.p50_ns as f64 / 1e6
    }

    /// The 99th percentile in milliseconds (for table rendering).
    pub fn p99_ms(&self) -> f64 {
        self.p99_ns as f64 / 1e6
    }
}

/// Per-request latency decomposed into its four serving phases.
///
/// For every completed request
/// `queue_wait + batch_wait + execute + merge` equals its end-to-end latency
/// exactly (all four are integer nanoseconds on the same clock):
///
/// * **queue wait** — arrival until the batch's *planned* close (the moment
///   the batching policy decided the batch: the filling member's arrival for
///   size-triggered batches, the oldest member's deadline otherwise),
///   clamped to the request's own lifetime;
/// * **batch wait** — planned close until actual dispatch (replica-busy
///   head-of-line delay);
/// * **execute** — dispatch until the backend finished the batch;
/// * **merge** — demultiplexing per-request results out of the batch
///   (exactly zero on the virtual clock, where handing results back is
///   free; real wall-clock time in the threaded server).
///
/// On the virtual clock these summaries are exact integers from the
/// deterministic event order, so they are byte-identical across runs and
/// `RAYON_NUM_THREADS` settings, like the rest of the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Arrival → planned batch close.
    pub queue_wait: LatencySummary,
    /// Planned batch close → actual dispatch.
    pub batch_wait: LatencySummary,
    /// Dispatch → backend completion.
    pub execute: LatencySummary,
    /// Batch completion → per-request result delivery.
    pub merge: LatencySummary,
}

/// One request's exact phase durations, in nanoseconds (see
/// [`PhaseBreakdown`] for the phase boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseSample {
    /// Arrival → planned batch close.
    pub queue_wait_ns: u64,
    /// Planned batch close → actual dispatch.
    pub batch_wait_ns: u64,
    /// Dispatch → backend completion.
    pub execute_ns: u64,
    /// Batch completion → per-request result delivery.
    pub merge_ns: u64,
}

impl PhaseBreakdown {
    /// Summarises per-request phase samples into the four distributions,
    /// and — when [`telemetry`] recording is on — mirrors every sample into
    /// the global registry's `serve.phase.*` histograms (deterministic
    /// class: on the virtual clock the values are exact integers).
    pub fn from_samples(samples: &[PhaseSample]) -> Self {
        if telemetry::enabled() {
            for sample in samples {
                telemetry::observe("serve.phase.queue_wait", sample.queue_wait_ns);
                telemetry::observe("serve.phase.batch_wait", sample.batch_wait_ns);
                telemetry::observe("serve.phase.execute", sample.execute_ns);
                telemetry::observe("serve.phase.merge", sample.merge_ns);
            }
        }
        PhaseBreakdown {
            queue_wait: LatencySummary::from_values(
                samples.iter().map(|s| s.queue_wait_ns).collect(),
            ),
            batch_wait: LatencySummary::from_values(
                samples.iter().map(|s| s.batch_wait_ns).collect(),
            ),
            execute: LatencySummary::from_values(samples.iter().map(|s| s.execute_ns).collect()),
            merge: LatencySummary::from_values(samples.iter().map(|s| s.merge_ns).collect()),
        }
    }

    /// One-line human-readable rendering (p50/p99 per phase, in ms).
    pub fn summary(&self) -> String {
        format!(
            "queue p50 {:.3}/p99 {:.3} ms, batch p50 {:.3}/p99 {:.3} ms, \
             execute p50 {:.3}/p99 {:.3} ms, merge p50 {:.3}/p99 {:.3} ms",
            self.queue_wait.p50_ms(),
            self.queue_wait.p99_ms(),
            self.batch_wait.p50_ms(),
            self.batch_wait.p99_ms(),
            self.execute.p50_ms(),
            self.execute.p99_ms(),
            self.merge.p50_ms(),
            self.merge.p99_ms(),
        )
    }
}

/// `numerator / denominator`, or 0 when the denominator is.
pub(crate) fn ratio(numerator: f64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator / denominator as f64
    }
}

/// The fields [`ServeReport`] and [`FleetReport`](crate::fleet::FleetReport)
/// share, computed one way from a virtual-clock replay.
pub(crate) struct RequestSummary {
    pub(crate) offered: u64,
    pub(crate) admitted: u64,
    pub(crate) rejected: u64,
    pub(crate) completed: u64,
    pub(crate) batches: u64,
    pub(crate) mean_batch_size: f64,
    pub(crate) latency: LatencySummary,
    pub(crate) queue_wait: LatencySummary,
    pub(crate) phases: PhaseBreakdown,
    pub(crate) max_queue_depth: u64,
    pub(crate) makespan_ns: u64,
    pub(crate) samples_per_s: f64,
    pub(crate) slo_attained: u64,
    pub(crate) slo_attainment: f64,
}

impl RequestSummary {
    /// Summarises `trajectory`, a replay of a trace arriving at
    /// `arrivals_ns`, against the end-to-end objective `slo_ns`.
    pub(crate) fn new(trajectory: &Trajectory, arrivals_ns: &[u64], slo_ns: u64) -> Self {
        let completions = || trajectory.completions(arrivals_ns);
        let phases: Vec<PhaseSample> = completions().map(|c| c.phases()).collect();
        let offered = arrivals_ns.len() as u64;
        let completed = phases.len() as u64;
        let batches = trajectory.batches.len() as u64;
        let rejected = trajectory.rejected.len() as u64;
        let makespan_ns = completions().map(|c| c.completion_ns).max().unwrap_or(0);
        let slo_attained = completions().filter(|c| c.latency_ns() <= slo_ns).count() as u64;
        RequestSummary {
            offered,
            admitted: offered - rejected,
            rejected,
            completed,
            batches,
            mean_batch_size: ratio(completed as f64, batches),
            latency: LatencySummary::from_values(completions().map(|c| c.latency_ns()).collect()),
            queue_wait: LatencySummary::from_values(
                completions().map(|c| c.queue_wait_ns()).collect(),
            ),
            phases: PhaseBreakdown::from_samples(&phases),
            max_queue_depth: trajectory.max_queue_depth,
            makespan_ns,
            samples_per_s: ratio(completed as f64 * 1e9, makespan_ns),
            slo_attained,
            slo_attainment: ratio(slo_attained as f64, offered),
        }
    }
}

/// The outcome of serving one trace: load accounting, latency distribution,
/// batching behaviour and SLO attainment.
///
/// All time fields are exact integers derived from the virtual clock; the few
/// `f64` rates are computed with a fixed formula from those integers, so the
/// JSON rendering ([`ServeReport::to_json`]) is byte-identical across runs,
/// `RAYON_NUM_THREADS` settings and host thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// The served model's name.
    pub model: String,
    /// The executing backend's configured name.
    pub backend: String,
    /// The serving configuration (replicas, batching window, routing, SLO).
    pub config: ServeConfig,
    /// The trace that was served (process, request count, seed).
    pub trace: TraceSpec,
    /// Requests in the trace.
    pub offered: u64,
    /// Requests admitted past admission control.
    pub admitted: u64,
    /// Requests rejected by admission control (queue at capacity).
    pub rejected: u64,
    /// Requests that completed execution (equals `admitted` after a drain).
    pub completed: u64,
    /// Batches dispatched to the backend.
    pub batches: u64,
    /// `batch_size_counts[i]` = number of dispatched batches of size `i + 1`
    /// (length `max_batch_size`).
    pub batch_size_counts: Vec<u64>,
    /// Batches dispatched by each replica, in replica order.
    pub per_replica_batches: Vec<u64>,
    /// Mean dispatched batch size (`completed / batches`).
    pub mean_batch_size: f64,
    /// End-to-end request latency distribution (queueing + service).
    pub latency: LatencySummary,
    /// Queueing-delay distribution (arrival to batch dispatch).
    pub queue_wait: LatencySummary,
    /// Per-request latency decomposed into queue wait / batch wait /
    /// execute / merge (see [`PhaseBreakdown`]; per request the four phases
    /// sum to the end-to-end latency exactly).
    pub phases: PhaseBreakdown,
    /// Largest total number of waiting requests observed across all replicas.
    pub max_queue_depth: u64,
    /// Virtual time from trace start to the last completion, in nanoseconds.
    pub makespan_ns: u64,
    /// Achieved throughput: `completed · 1e9 / makespan_ns`.
    pub samples_per_s: f64,
    /// Completed requests whose end-to-end latency met `config.slo_ns`.
    pub slo_attained: u64,
    /// `slo_attained / offered` — rejected requests count against the SLO.
    pub slo_attainment: f64,
    /// Whether every executed value matched the reference inference
    /// (`None` when the backend does not check values).
    pub bit_exact: Option<bool>,
}

impl ServeReport {
    /// Serializes the report as one JSON object (single line).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("report serialization cannot fail")
    }

    /// Parses a document produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a serde error when the document does not describe a report.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        serde_json::from_str(text)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} on {}: {}/{} served ({} rejected), {:.1} samples/s, p50 {:.3} ms, p99 {:.3} ms, \
             SLO {:.1}% @ {:.1} ms, mean batch {:.2}",
            self.backend,
            self.model,
            self.completed,
            self.offered,
            self.rejected,
            self.samples_per_s,
            self.latency.p50_ms(),
            self.latency.p99_ms(),
            self.slo_attainment * 100.0,
            self.config.slo_ns as f64 / 1e6,
            self.mean_batch_size,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        let summary = LatencySummary::from_values((1..=100).collect());
        assert_eq!(summary.count, 100);
        assert_eq!(summary.p50_ns, 50);
        assert_eq!(summary.p95_ns, 95);
        assert_eq!(summary.p99_ns, 99);
        assert_eq!(summary.max_ns, 100);
        assert_eq!(summary.mean_ns, 50); // floor(50.5)
        let single = LatencySummary::from_values(vec![7]);
        assert_eq!(
            (single.p50_ns, single.p95_ns, single.p99_ns, single.max_ns),
            (7, 7, 7, 7)
        );
        assert_eq!(
            LatencySummary::from_values(Vec::new()),
            LatencySummary::default()
        );
    }

    #[test]
    fn percentiles_are_order_independent() {
        let a = LatencySummary::from_values(vec![5, 1, 9, 3, 7]);
        let b = LatencySummary::from_values(vec![9, 7, 5, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(a.p50_ns, 5);
    }

    // Summaries depend only on the multiset of values, not their order.
    proptest::proptest! {
        #[test]
        fn summaries_are_order_independent(
            values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        ) {
            let sorted = LatencySummary::from_values({
                let mut v = values.clone();
                v.sort_unstable();
                v
            });
            let reversed = LatencySummary::from_values({
                let mut v = values.clone();
                v.sort_unstable();
                v.reverse();
                v
            });
            proptest::prop_assert_eq!(sorted, reversed);
            proptest::prop_assert_eq!(sorted, LatencySummary::from_values(values));
        }
    }
}
