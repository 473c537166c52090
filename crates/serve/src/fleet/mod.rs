//! Fleet-scale serving: model-parallel replicas, pipelined shards, and
//! autoscaling under million-user traces.
//!
//! The per-inference stack prices one model on one accelerator; the fleet
//! view asks the capacity-planning question: *how many tiles and replicas
//! does an SLO point cost under realistic traffic?* This module joins the
//! deterministic serving simulator with the partition compiler's stage
//! planning:
//!
//! - each **replica** is model-parallel: its layers are cut into `shards`
//!   pipeline stages by [`apc::plan_stages`] over the per-layer cost profile
//!   a [`camdnn::FunctionalBackend`] measures
//!   ([`ModelProfile`](camdnn::ModelProfile) — latencies from the
//!   tile-parallel partition-quality model, energies from the CAM counters
//!   plus routing);
//! - stages are connected by **bounded queues** with head-of-line blocking,
//!   so a slow stage backpressures the pipeline exactly as a hardware FIFO
//!   would;
//! - an **autoscaler** ([`AutoscalePolicy`]) adds and drains replicas as
//!   deterministic events in the simulation's total tie order, driven by
//!   queue depth or SLO headroom;
//! - a **cost model** integrates compute energy (per-stage microjoules per
//!   sample) and provisioned tile-time (static power over every tile a
//!   replica holds, from creation to retirement), yielding joules/sample per
//!   SLO point.
//!
//! Everything runs on the serving stack's one virtual-clock event loop (which
//! [`simulate`](crate::simulate) runs as a one-stage fleet): the same trace
//! seed produces byte-identical [`FleetReport`] JSON on every run, at any
//! `RAYON_NUM_THREADS` and on any host. The simulation is a pure cost model
//! (no payload execution), so traces with millions of requests replay in
//! seconds.

mod experiment;
mod report;
mod sim;

pub use experiment::{pareto, FleetGrid, FleetRecord, FleetResultSet, FleetScenario, FleetSession};
pub use report::{FleetReport, ScaleEvent};
pub(crate) use sim::{replay, Trajectory};
pub use sim::{simulate_fleet, FleetStageModel, StageCost};

use crate::config::{BatchingPolicy, RoutePolicy};
use crate::error::{Result, ServeError};
use serde::{Deserialize, Serialize};

/// How the fleet adds and removes replicas while a trace replays.
///
/// Scale decisions fire as deterministic events on the virtual clock (after
/// completions, arrivals and dispatches at the same timestamp), so the same
/// trace always produces the same scaling trajectory. A scale-up provisions
/// a replica that becomes routable after its warmup; a scale-down drains the
/// highest-index active replica (it finishes its queued work, then retires
/// and stops accruing tile-time).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AutoscalePolicy {
    /// No autoscaling: the initial replica count serves the whole trace.
    Fixed,
    /// Scale on total queue depth: at every check, scale up when more than
    /// `up_per_replica` requests wait per provisioned replica, down when
    /// fewer than `down_per_replica` do.
    QueueDepth {
        /// Virtual time between scale decisions, in nanoseconds.
        check_interval_ns: u64,
        /// Waiting requests per provisioned replica above which the fleet
        /// grows.
        up_per_replica: u64,
        /// Waiting requests per provisioned replica below which the fleet
        /// shrinks (must be below `up_per_replica` for hysteresis).
        down_per_replica: u64,
        /// Smallest number of serving replicas the fleet may drain to.
        min_replicas: usize,
        /// Largest number of provisioned replicas the fleet may grow to.
        max_replicas: usize,
        /// Delay between provisioning a replica and it accepting traffic,
        /// in nanoseconds.
        warmup_ns: u64,
    },
    /// Scale on SLO headroom: at every check, compare the worst stage-0
    /// queue wait observed since the last check (including the age of the
    /// oldest still-waiting request) against the SLO. Scale up when the wait
    /// exceeds `up_wait_permille` ‰ of the SLO, down when it stays under
    /// `down_wait_permille` ‰.
    SloHeadroom {
        /// Virtual time between scale decisions, in nanoseconds.
        check_interval_ns: u64,
        /// Worst observed wait, in thousandths of the SLO, above which the
        /// fleet grows.
        up_wait_permille: u64,
        /// Worst observed wait, in thousandths of the SLO, below which the
        /// fleet shrinks (must be below `up_wait_permille`).
        down_wait_permille: u64,
        /// Smallest number of serving replicas the fleet may drain to.
        min_replicas: usize,
        /// Largest number of provisioned replicas the fleet may grow to.
        max_replicas: usize,
        /// Delay between provisioning a replica and it accepting traffic,
        /// in nanoseconds.
        warmup_ns: u64,
    },
}

impl AutoscalePolicy {
    /// Short label used in scenario names (`fixed`, `qd64-8`, `slo500-50`).
    pub fn label(&self) -> String {
        match self {
            AutoscalePolicy::Fixed => "fixed".to_string(),
            AutoscalePolicy::QueueDepth {
                up_per_replica,
                down_per_replica,
                ..
            } => format!("qd{up_per_replica}-{down_per_replica}"),
            AutoscalePolicy::SloHeadroom {
                up_wait_permille,
                down_wait_permille,
                ..
            } => format!("slo{up_wait_permille}-{down_wait_permille}"),
        }
    }

    /// The knobs both scaling policies share; `None` for a fixed fleet.
    pub(crate) fn thresholds(&self) -> Option<Thresholds> {
        match *self {
            AutoscalePolicy::Fixed => None,
            AutoscalePolicy::QueueDepth {
                check_interval_ns,
                up_per_replica: up,
                down_per_replica: down,
                min_replicas,
                max_replicas,
                warmup_ns,
            }
            | AutoscalePolicy::SloHeadroom {
                check_interval_ns,
                up_wait_permille: up,
                down_wait_permille: down,
                min_replicas,
                max_replicas,
                warmup_ns,
            } => Some(Thresholds {
                check_interval_ns,
                up,
                down,
                min_replicas,
                max_replicas,
                warmup_ns,
            }),
        }
    }

    fn validate(&self, initial_replicas: usize) -> Result<()> {
        let Some(t) = self.thresholds() else {
            return Ok(());
        };
        let reason = if t.check_interval_ns == 0 {
            "autoscaler check interval must be at least 1 ns"
        } else if t.min_replicas == 0 {
            "min_replicas must be at least 1"
        } else if t.max_replicas < t.min_replicas {
            "max_replicas must be at least min_replicas"
        } else if initial_replicas < t.min_replicas || initial_replicas > t.max_replicas {
            "initial replicas must lie within [min_replicas, max_replicas]"
        } else if t.down >= t.up {
            "the scale-down threshold must be below the scale-up threshold"
        } else {
            return Ok(());
        };
        Err(ServeError::InvalidConfig {
            reason: reason.to_string(),
        })
    }
}

/// The knobs of a scaling [`AutoscalePolicy`]; `up` and `down` are in the
/// policy's own unit (waiting requests per replica, or permille of the SLO).
pub(crate) struct Thresholds {
    pub(crate) check_interval_ns: u64,
    pub(crate) up: u64,
    pub(crate) down: u64,
    pub(crate) min_replicas: usize,
    pub(crate) max_replicas: usize,
    pub(crate) warmup_ns: u64,
}

/// Full configuration of one fleet simulation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Pipeline stages each replica's layers are cut into.
    pub shards: usize,
    /// Initial number of replicas (the permanent count under
    /// [`AutoscalePolicy::Fixed`]).
    pub replicas: usize,
    /// The stage-0 dynamic-batching window; a closed batch traverses the
    /// whole stage pipeline as one unit (packed-batch execution is
    /// batch-invariant in latency).
    pub batching: BatchingPolicy,
    /// Admission limit: requests *waiting* before stage 0 per replica beyond
    /// which submits are rejected.
    pub queue_capacity: usize,
    /// Batches buffered between consecutive stages; a full buffer blocks the
    /// upstream stage (head-of-line blocking).
    pub stage_queue_capacity: usize,
    /// How requests are routed over the active replicas.
    pub routing: RoutePolicy,
    /// The end-to-end latency objective, in nanoseconds.
    pub slo_ns: u64,
    /// The autoscaling policy.
    pub autoscaler: AutoscalePolicy,
    /// Static power of one provisioned tile, in microwatts — integrated over
    /// every tile of every replica from creation to retirement.
    pub idle_tile_uw: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 2,
            replicas: 1,
            batching: BatchingPolicy::default(),
            queue_capacity: 256,
            stage_queue_capacity: 2,
            routing: RoutePolicy::RoundRobin,
            slo_ns: 50_000_000,
            autoscaler: AutoscalePolicy::Fixed,
            idle_tile_uw: 50.0,
        }
    }
}

impl FleetConfig {
    /// Returns a copy with `shards` pipeline stages per replica.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with `replicas` initial replicas.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Returns a copy with the given stage-0 batching window.
    #[must_use]
    pub fn with_batching(mut self, batching: BatchingPolicy) -> Self {
        self.batching = batching;
        self
    }

    /// Returns a copy with the given autoscaling policy.
    #[must_use]
    pub fn with_autoscaler(mut self, autoscaler: AutoscalePolicy) -> Self {
        self.autoscaler = autoscaler;
        self
    }

    /// Returns a copy with the SLO target set to `slo_ms` milliseconds
    /// (rounded to whole nanoseconds via [`crate::config::ms_to_ns`]).
    #[must_use]
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ns = crate::config::ms_to_ns(slo_ms);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when any knob would stall the
    /// fleet (zero shards, replicas, batch size or queue room), the static
    /// power is not a finite non-negative number, or the autoscaler's
    /// thresholds are inconsistent.
    pub fn validate(&self) -> Result<()> {
        let reason = if self.shards == 0 {
            "at least one pipeline stage is required"
        } else if self.replicas == 0 {
            "at least one replica is required"
        } else if self.batching.max_batch_size == 0 {
            "max_batch_size must be at least 1"
        } else if self.queue_capacity == 0 {
            "queue_capacity must be at least 1"
        } else if self.stage_queue_capacity == 0 {
            "stage_queue_capacity must be at least 1"
        } else if !(self.idle_tile_uw.is_finite() && self.idle_tile_uw >= 0.0) {
            "idle_tile_uw must be a finite non-negative power"
        } else {
            return self.autoscaler.validate(self.replicas);
        };
        Err(ServeError::InvalidConfig {
            reason: reason.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn autoscaler_labels_are_stable() {
        assert_eq!(AutoscalePolicy::Fixed.label(), "fixed");
        assert_eq!(
            AutoscalePolicy::QueueDepth {
                check_interval_ns: 1_000_000,
                up_per_replica: 64,
                down_per_replica: 8,
                min_replicas: 1,
                max_replicas: 8,
                warmup_ns: 0,
            }
            .label(),
            "qd64-8"
        );
        assert_eq!(
            AutoscalePolicy::SloHeadroom {
                check_interval_ns: 1_000_000,
                up_wait_permille: 500,
                down_wait_permille: 50,
                min_replicas: 1,
                max_replicas: 8,
                warmup_ns: 0,
            }
            .label(),
            "slo500-50"
        );
    }

    #[test]
    fn validation_rejects_stalling_fleets() {
        assert!(FleetConfig::default().validate().is_ok());
        for broken in [
            FleetConfig::default().with_shards(0),
            FleetConfig::default().with_replicas(0),
            FleetConfig {
                queue_capacity: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                stage_queue_capacity: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                idle_tile_uw: f64::NAN,
                ..FleetConfig::default()
            },
            FleetConfig {
                idle_tile_uw: -1.0,
                ..FleetConfig::default()
            },
        ] {
            assert!(broken.validate().is_err(), "{broken:?}");
        }
    }

    #[test]
    fn validation_rejects_inconsistent_autoscalers() {
        let policy = |up, down, min, max| AutoscalePolicy::QueueDepth {
            check_interval_ns: 1_000_000,
            up_per_replica: up,
            down_per_replica: down,
            min_replicas: min,
            max_replicas: max,
            warmup_ns: 0,
        };
        let with = |p| FleetConfig::default().with_replicas(2).with_autoscaler(p);
        assert!(with(policy(64, 8, 1, 8)).validate().is_ok());
        // down >= up: flapping.
        assert!(with(policy(8, 8, 1, 8)).validate().is_err());
        // min of zero, max < min, initial outside [min, max].
        assert!(with(policy(64, 8, 0, 8)).validate().is_err());
        assert!(with(policy(64, 8, 4, 2)).validate().is_err());
        assert!(with(policy(64, 8, 3, 8)).validate().is_err());
        // zero check interval.
        assert!(with(AutoscalePolicy::SloHeadroom {
            check_interval_ns: 0,
            up_wait_permille: 500,
            down_wait_permille: 50,
            min_replicas: 1,
            max_replicas: 8,
            warmup_ns: 0,
        })
        .validate()
        .is_err());
    }
}
