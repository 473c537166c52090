//! Serving configuration: replica fleet, dynamic-batching window, admission
//! control and the latency SLO.

use crate::error::Result;
use crate::fleet::{AutoscalePolicy, FleetConfig};
use serde::{Deserialize, Serialize};

/// Converts a duration in milliseconds to whole nanoseconds: round to the
/// nearest nanosecond, then clamp to at least one so no modeled duration is
/// ever zero on the virtual clock.
///
/// This is the *single* ms→ns conversion of the serving stack — SLO targets,
/// modeled service latencies and fleet stage costs all go through it, so a
/// boundary value like `0.29 ms` means the same `290_000 ns` everywhere
/// (truncating `as u64` casts read `0.29 * 1e6 = 289999.999…` as `289_999`).
pub fn ms_to_ns(ms: f64) -> u64 {
    ((ms * 1e6).round() as u64).max(1)
}

/// How incoming requests are spread over the model replicas.
///
/// All three policies are deterministic given the same arrival sequence and
/// queue states, which is what makes the simulation mode replayable; ties are
/// always broken towards the lowest replica index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum RoutePolicy {
    /// Cycle through the replicas in index order, one request each.
    RoundRobin,
    /// Send the request to the replica with the fewest outstanding samples
    /// (waiting plus in flight).
    LeastLoaded,
    /// Send the request to the replica with the shortest *waiting* queue,
    /// ignoring work already dispatched.
    JoinShortestQueue,
}

impl RoutePolicy {
    /// Short label used in scenario names and tables (`rr`, `ll`, `jsq`).
    pub fn label(&self) -> &'static str {
        match self {
            RoutePolicy::RoundRobin => "rr",
            RoutePolicy::LeastLoaded => "ll",
            RoutePolicy::JoinShortestQueue => "jsq",
        }
    }

    /// The one routing rule of the server and the simulations: picks among
    /// `(index, queued, in_flight)` candidates, ties to the lowest index
    /// (round-robin takes the `cursor`-th candidate and advances the cursor).
    /// `None` when there is no candidate.
    pub(crate) fn pick<I>(self, candidates: I, cursor: &mut usize) -> Option<usize>
    where
        I: IntoIterator<Item = (usize, usize, usize)>,
        I::IntoIter: Clone,
    {
        let mut candidates = candidates.into_iter();
        let chosen = match self {
            RoutePolicy::RoundRobin => {
                let count = candidates.clone().count().max(1);
                *cursor += 1;
                candidates.nth((*cursor - 1) % count)
            }
            RoutePolicy::LeastLoaded => {
                candidates.min_by_key(|&(i, queued, busy)| (queued + busy, i))
            }
            RoutePolicy::JoinShortestQueue => candidates.min_by_key(|&(i, queued, _)| (queued, i)),
        };
        chosen.map(|(index, _, _)| index)
    }
}

impl std::fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The dynamic-batching window: a batch closes at `max_batch_size` requests
/// or when the oldest queued request has waited `max_queue_delay_ns`,
/// whichever happens first.
///
/// `max_batch_size = 1` degenerates to request-at-a-time dispatch (the
/// baseline the serving bench compares against); `max_queue_delay_ns = 0`
/// closes a batch as soon as the worker is free, taking whatever is queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchingPolicy {
    /// Largest number of requests packed into one backend dispatch.
    pub max_batch_size: usize,
    /// Longest time the oldest queued request may wait before its batch is
    /// closed, in nanoseconds.
    pub max_queue_delay_ns: u64,
}

impl Default for BatchingPolicy {
    /// Close at 8 requests or 500 µs, whichever first.
    fn default() -> Self {
        BatchingPolicy::new(8, 500)
    }
}

impl BatchingPolicy {
    /// A policy closing at `max_batch_size` requests or `delay_us`
    /// microseconds, whichever first.
    pub fn new(max_batch_size: usize, delay_us: u64) -> Self {
        BatchingPolicy {
            max_batch_size,
            max_queue_delay_ns: delay_us * 1_000,
        }
    }

    /// Request-at-a-time dispatch: batches of one, no waiting.
    pub fn single() -> Self {
        BatchingPolicy {
            max_batch_size: 1,
            max_queue_delay_ns: 0,
        }
    }

    /// Short label used in scenario names (`b8/200us`).
    pub fn label(&self) -> String {
        format!(
            "b{}/{}us",
            self.max_batch_size,
            self.max_queue_delay_ns / 1_000
        )
    }

    /// Whether `queued` requests already fill a batch.
    pub fn is_full(&self, queued: usize) -> bool {
        queued >= self.max_batch_size
    }

    /// The time at which a batch whose oldest member joined the queue at
    /// `oldest_enqueue_ns` must close even if still short of
    /// [`max_batch_size`](Self::max_batch_size).
    pub fn close_deadline_ns(&self, oldest_enqueue_ns: u64) -> u64 {
        oldest_enqueue_ns.saturating_add(self.max_queue_delay_ns)
    }
}

/// Full configuration of a serving runtime instance (threaded server or
/// deterministic simulation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Number of independent model replicas, each with its own queue and
    /// worker.
    pub replicas: usize,
    /// The dynamic-batching window.
    pub batching: BatchingPolicy,
    /// Admission limit: requests *waiting* per replica beyond which submits
    /// are rejected (or block, on the backpressure path).
    pub queue_capacity: usize,
    /// How requests are routed to replicas.
    pub routing: RoutePolicy,
    /// The latency objective a request must meet to count towards
    /// [`ServeReport::slo_attainment`](crate::report::ServeReport), in
    /// nanoseconds end to end (queueing plus service).
    pub slo_ns: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            replicas: 1,
            batching: BatchingPolicy::default(),
            queue_capacity: 256,
            routing: RoutePolicy::RoundRobin,
            slo_ns: 50_000_000,
        }
    }
}

impl ServeConfig {
    /// Returns a copy with `replicas` model replicas.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Returns a copy with the given batching window.
    #[must_use]
    pub fn with_batching(mut self, batching: BatchingPolicy) -> Self {
        self.batching = batching;
        self
    }

    /// Returns a copy with the given per-replica queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Returns a copy with the given routing policy.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutePolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Returns a copy with the SLO target set to `slo_ms` milliseconds
    /// (rounded to whole nanoseconds via [`ms_to_ns`]).
    #[must_use]
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ns = ms_to_ns(slo_ms);
        self
    }

    /// This serving point as a one-stage fleet of fixed replicas, the shape
    /// [`simulate`](crate::simulate) replays.
    pub(crate) fn one_stage_fleet(&self) -> FleetConfig {
        FleetConfig {
            shards: 1,
            replicas: self.replicas,
            batching: self.batching,
            queue_capacity: self.queue_capacity,
            routing: self.routing,
            slo_ns: self.slo_ns,
            autoscaler: AutoscalePolicy::Fixed,
            idle_tile_uw: 0.0,
            ..FleetConfig::default()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`](crate::ServeError::InvalidConfig)
    /// when any knob would stall the runtime: zero replicas, a zero batch
    /// size, or a zero queue capacity.
    pub fn validate(&self) -> Result<()> {
        // Same checks and messages; the fleet-only knobs are fixed and valid.
        self.one_stage_fleet().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;

    #[test]
    fn batching_window_closes_on_size_or_deadline() {
        let policy = BatchingPolicy::new(4, 200);
        assert!(!policy.is_full(3));
        assert!(policy.is_full(4));
        assert_eq!(policy.close_deadline_ns(1_000), 201_000);
        assert_eq!(policy.label(), "b4/200us");
        assert_eq!(BatchingPolicy::single().label(), "b1/0us");
    }

    #[test]
    fn deadline_saturates_instead_of_wrapping() {
        let policy = BatchingPolicy::new(4, u64::MAX / 1_000);
        assert_eq!(policy.close_deadline_ns(u64::MAX - 5), u64::MAX);
    }

    #[test]
    fn validation_rejects_stalling_configs() {
        assert!(ServeConfig::default().validate().is_ok());
        for broken in [
            ServeConfig::default().with_replicas(0),
            ServeConfig::default().with_batching(BatchingPolicy::new(0, 10)),
            ServeConfig::default().with_queue_capacity(0),
        ] {
            let err = broken.validate().expect_err("must be rejected");
            assert!(matches!(err, ServeError::InvalidConfig { .. }), "{err}");
        }
    }

    #[test]
    fn ms_to_ns_rounds_and_clamps_at_the_boundary() {
        // 0.29 * 1e6 = 289999.99999999994 in f64: a truncating cast loses a
        // nanosecond, round-and-clamp does not. Pinned so every ms→ns call
        // site (SLO setters, executor latency, fleet stage costs) agrees.
        assert_eq!(ms_to_ns(0.29), 290_000);
        assert_eq!(ms_to_ns(1.5), 1_500_000);
        assert_eq!(ms_to_ns(0.0), 1);
        assert_eq!(ms_to_ns(0.0000004), 1); // rounds to zero -> clamped
        assert_eq!(ServeConfig::default().with_slo_ms(0.29).slo_ns, 290_000);
    }

    #[test]
    fn routing_picks_by_policy_with_lowest_index_ties() {
        // (index, queued, in_flight): replica 5 has the shortest queue,
        // replica 9 the least total load.
        let candidates = [(2, 3, 0), (5, 1, 4), (9, 2, 0)];
        let mut cursor = 0;
        let picks: Vec<Option<usize>> = (0..4)
            .map(|_| RoutePolicy::RoundRobin.pick(candidates, &mut cursor))
            .collect();
        assert_eq!(picks, vec![Some(2), Some(5), Some(9), Some(2)]);
        assert_eq!(cursor, 4);
        let pick = |policy: RoutePolicy| policy.pick(candidates, &mut 0);
        assert_eq!(pick(RoutePolicy::LeastLoaded), Some(9));
        assert_eq!(pick(RoutePolicy::JoinShortestQueue), Some(5));
        // Ties go to the lowest index; no candidate, no pick.
        let tied = [(4, 1, 1), (1, 1, 1)];
        assert_eq!(RoutePolicy::LeastLoaded.pick(tied, &mut 0), Some(1));
        assert_eq!(RoutePolicy::JoinShortestQueue.pick(tied, &mut 0), Some(1));
        assert_eq!(RoutePolicy::RoundRobin.pick([], &mut 0), None);
    }

    #[test]
    fn route_policy_labels_are_stable() {
        assert_eq!(RoutePolicy::RoundRobin.to_string(), "rr");
        assert_eq!(RoutePolicy::LeastLoaded.to_string(), "ll");
        assert_eq!(RoutePolicy::JoinShortestQueue.to_string(), "jsq");
    }
}
