//! The serving stack's one virtual-clock event loop: pipelined replicas and
//! autoscaling.
//!
//! [`simulate_fleet`] runs [`replay`] against a [`FleetStageModel`] — a pure
//! cost model distilled from a profiled execution, so million-request traces
//! replay without touching payload data; [`crate::simulate`] runs it as a
//! one-stage fleet whose stage executes payloads. The loop is sequential
//! with a total order over `(time, kind, replica, stage)` ties; kinds rank
//! completions before arrivals before dispatches before scale decisions, so
//! the whole trajectory (batch compositions, scaling events, energy
//! integrals) is deterministic at any `RAYON_NUM_THREADS` and on any host.

use super::report::{FleetReport, ScaleEvent};
use super::{AutoscalePolicy, FleetConfig};
use crate::error::{Result, ServeError};
use crate::report::{ratio, RequestSummary};
use crate::sim::{BatchRecord, SimCompletion};
use crate::trace::{Trace, TraceSpec};
use camdnn::ModelProfile;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The modeled cost of one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Service latency of one batch on the stage, in nanoseconds. Packed
    /// batches are batch-invariant in latency (one physical sweep serves the
    /// whole batch), so this is a constant per dispatch.
    pub latency_ns: u64,
    /// Compute energy per sample crossing the stage, in microjoules.
    pub energy_uj_per_sample: f64,
    /// Tiles the stage occupies on every replica that instantiates it.
    pub tiles: usize,
}

/// A model cut into pipeline stages, each priced by the profiled per-layer
/// costs — the execution model every fleet replica instantiates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStageModel {
    /// The profiled model's name.
    pub model: String,
    /// The stage costs, in pipeline order.
    pub stages: Vec<StageCost>,
}

impl FleetStageModel {
    /// Cuts `profile` into `shards` pipeline stages with
    /// [`apc::plan_stages`], minimising the bottleneck stage latency, and
    /// prices each stage by its member layers.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Backend`] when the stage planner rejects the cut
    /// (zero shards, more shards than layers, an empty profile).
    pub fn from_profile(profile: &ModelProfile, shards: usize) -> Result<Self> {
        let layers: Vec<apc::StageLayer> = profile
            .layers
            .iter()
            .map(|l| apc::StageLayer {
                weight: crate::config::ms_to_ns(l.latency_ns / 1e6),
                tiles: l.tiles_used.max(1),
                traffic_bits: l.traffic_bits,
            })
            .collect();
        let shapes = apc::plan_stages(&layers, shards).map_err(ServeError::Backend)?;
        let stages = shapes
            .iter()
            .map(|shape| {
                let members = &profile.layers[shape.layers()];
                StageCost {
                    latency_ns: crate::config::ms_to_ns(
                        members.iter().map(|l| l.latency_ns).sum::<f64>() / 1e6,
                    ),
                    energy_uj_per_sample: members.iter().map(|l| l.energy_uj).sum(),
                    tiles: shape.tiles,
                }
            })
            .collect();
        Ok(FleetStageModel {
            model: profile.model.clone(),
            stages,
        })
    }

    /// Tiles one replica holds: the sum of its stages' footprints (stages
    /// run concurrently, so tiles are not shared between them).
    pub fn tiles_per_replica(&self) -> u64 {
        self.stages.iter().map(|s| s.tiles as u64).sum()
    }

    /// The pipeline's steady-state interval: the slowest stage's latency.
    pub fn bottleneck_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.latency_ns).max().unwrap_or(0)
    }

    /// Single-sample pipeline fill latency: the sum of the stage latencies.
    pub fn fill_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.latency_ns).sum()
    }
}

/// Everything one replay decided, for the reports to summarise.
pub(crate) struct Trajectory {
    /// Every dispatched batch, in dispatch order, completed by the last stage.
    pub(crate) batches: Vec<BatchRecord>,
    /// Per batch, when the batching policy decided it (never after dispatch).
    pub(crate) planned_close_ns: Vec<u64>,
    /// Trace indices rejected by admission control, in arrival order.
    pub(crate) rejected: Vec<usize>,
    /// Largest total number of requests waiting across the fleet.
    pub(crate) max_queue_depth: u64,
    /// The autoscaler's decisions, in virtual-time order.
    pub(crate) scale_events: Vec<ScaleEvent>,
    /// Largest provisioned replica count.
    pub(crate) peak_replicas: usize,
    /// `(provisioned, retired)` times of every replica, in creation order.
    pub(crate) lifetimes: Vec<(u64, Option<u64>)>,
}

impl Trajectory {
    /// Every served request of a trace arriving at `arrivals_ns`, in
    /// dispatch order with batch members together (no logits).
    pub(crate) fn completions<'a>(
        &'a self,
        arrivals_ns: &'a [u64],
    ) -> impl Iterator<Item = SimCompletion> + 'a {
        let batches = self.batches.iter().zip(&self.planned_close_ns);
        batches
            .enumerate()
            .flat_map(move |(index, (batch, &planned_close_ns))| {
                batch.requests.iter().map(move |&request| SimCompletion {
                    request,
                    arrival_ns: arrivals_ns[request],
                    planned_close_ns,
                    dispatch_ns: batch.dispatch_ns,
                    completion_ns: batch.completion_ns,
                    replica: batch.replica,
                    batch: index,
                    logits: None,
                })
            })
    }
}

/// One pipeline stage's runtime state on one replica. Batches are indices
/// into [`Trajectory::batches`].
#[derive(Debug, Clone, Default)]
struct StageSlot {
    /// Batches waiting to enter the stage (bounded by
    /// `stage_queue_capacity`).
    queue: VecDeque<usize>,
    /// The batch currently executing, with its completion time.
    executing: Option<(usize, u64)>,
    /// A finished batch blocked by a full downstream queue (head-of-line
    /// blocking: the stage cannot start new work until this moves on).
    done: Option<usize>,
}

impl StageSlot {
    fn is_free(&self) -> bool {
        self.executing.is_none() && self.done.is_none()
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty() && self.is_free()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaState {
    /// Provisioned, not yet routable.
    Warming { ready_ns: u64 },
    /// Serving traffic.
    Active,
    /// No longer routable; finishing queued work before retiring.
    Draining,
    /// Out of the fleet; accrues no further tile-time.
    Retired,
}

#[derive(Debug, Clone)]
struct FleetReplica {
    state: ReplicaState,
    /// Requests waiting before stage 0 (trace indices), oldest first.
    requests: VecDeque<usize>,
    stages: Vec<StageSlot>,
    /// Provisioning time (0 for the initial fleet), for the tile-time
    /// integral.
    started_ns: u64,
    retired_ns: Option<u64>,
}

impl FleetReplica {
    fn new(stages: usize, state: ReplicaState, started_ns: u64) -> Self {
        FleetReplica {
            state,
            requests: VecDeque::new(),
            stages: vec![StageSlot::default(); stages],
            started_ns,
            retired_ns: None,
        }
    }

    fn is_routable(&self) -> bool {
        self.state == ReplicaState::Active
    }

    fn in_fleet(&self) -> bool {
        self.state != ReplicaState::Retired
    }

    fn pipeline_empty(&self) -> bool {
        self.requests.is_empty() && self.stages.iter().all(StageSlot::is_empty)
    }

    /// Samples past stage-0 dispatch and not yet out of the pipeline.
    fn in_flight(&self, batches: &[BatchRecord]) -> usize {
        let size = |batch: &usize| batches[*batch].requests.len();
        self.stages
            .iter()
            .map(|s| {
                s.queue.iter().map(size).sum::<usize>()
                    + s.executing.as_ref().map_or(0, |(batch, _)| size(batch))
                    + s.done.as_ref().map_or(0, size)
            })
            .sum()
    }

    /// Starts queued work (priced by `start`, see [`replay`]) and moves
    /// blocked batches forward until nothing can move: stages are scanned
    /// last to first so a freed stage pulls from its input queue, which in
    /// turn unblocks its upstream neighbour.
    fn settle(
        &mut self,
        now: u64,
        stage_queue_capacity: usize,
        batches: &[BatchRecord],
        start: &mut impl FnMut(usize, usize, &[usize]) -> Result<u64>,
    ) -> Result<()> {
        let stages = self.stages.len();
        loop {
            let mut moved = false;
            for s in (0..stages).rev() {
                if self.stages[s].done.is_some()
                    && s + 1 < stages
                    && self.stages[s + 1].queue.len() < stage_queue_capacity
                {
                    let batch = self.stages[s].done.take().expect("checked above");
                    self.stages[s + 1].queue.push_back(batch);
                    moved = true;
                }
                if self.stages[s].is_free() {
                    if let Some(batch) = self.stages[s].queue.pop_front() {
                        let latency_ns = start(s, batch, &batches[batch].requests)?;
                        self.stages[s].executing = Some((batch, now.saturating_add(latency_ns)));
                        moved = true;
                    }
                }
            }
            if !moved {
                return Ok(());
            }
        }
    }
}

/// The four event kinds, in tie-break priority order: at equal virtual times
/// stages free first, then arrivals join queues, then batches close (so an
/// arrival at exactly the close deadline still makes the batch), then the
/// autoscaler decides (seeing the settled state of the instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Completion,
    Arrival,
    Dispatch,
    Scale,
}

/// Replays `trace` through `config.shards`-stage replicas under a valid
/// `config`. Whenever a stage begins a batch it calls `start(stage, batch,
/// requests)` (`batch` indexes [`Trajectory::batches`]), which returns the
/// stage's service latency in nanoseconds or an error that ends the replay.
pub(crate) fn replay(
    config: &FleetConfig,
    trace: &Trace,
    mut start: impl FnMut(usize, usize, &[usize]) -> Result<u64>,
) -> Result<Trajectory> {
    let stages = config.shards;
    let last_stage = stages - 1;

    let mut replicas: Vec<FleetReplica> = (0..config.replicas)
        .map(|_| FleetReplica::new(stages, ReplicaState::Active, 0))
        .collect();
    let mut rr_cursor = 0usize;
    let mut next_arrival = 0usize;
    let mut now = 0u64;
    let mut next_check_ns = config
        .autoscaler
        .thresholds()
        .map_or(u64::MAX, |t| t.check_interval_ns);
    let mut window_max_wait_ns = 0u64;
    // Requests waiting before stage 0 across the fleet (retired replicas
    // hold none).
    let mut waiting = 0u64;
    let mut out = Trajectory {
        batches: Vec::new(),
        planned_close_ns: Vec::new(),
        rejected: Vec::new(),
        max_queue_depth: 0,
        scale_events: Vec::new(),
        peak_replicas: config.replicas,
        lifetimes: Vec::new(),
    };

    loop {
        let completion = replicas
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                r.stages.iter().enumerate().filter_map(move |(s, slot)| {
                    slot.executing
                        .map(|(_, t)| (t, EventKind::Completion, i, s))
                })
            })
            .min();
        let arrival = trace
            .arrivals_ns
            .get(next_arrival)
            .map(|&t| (t.max(now), EventKind::Arrival, next_arrival, 0));
        let dispatch = replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                matches!(r.state, ReplicaState::Active | ReplicaState::Draining)
                    && r.stages[0].is_free()
                    && !r.requests.is_empty()
            })
            .map(|(i, r)| {
                let close = if config.batching.is_full(r.requests.len()) {
                    now
                } else {
                    let oldest = *r.requests.front().expect("queue checked non-empty");
                    config.batching.close_deadline_ns(trace.arrivals_ns[oldest])
                };
                (close.max(now), EventKind::Dispatch, i, 0)
            })
            .min();
        let work_pending = next_arrival < trace.len()
            || replicas.iter().any(|r| r.in_fleet() && !r.pipeline_empty());
        let scale = (next_check_ns != u64::MAX && work_pending)
            .then(|| (next_check_ns.max(now), EventKind::Scale, usize::MAX, 0));

        // The total order over (time, kind, replica, stage) makes every step
        // — and therefore the whole trajectory — deterministic.
        let Some((time, kind, index, stage)) = [completion, arrival, dispatch, scale]
            .into_iter()
            .flatten()
            .min()
        else {
            break;
        };
        now = time;
        // Replicas whose warmup elapsed become routable before the event is
        // handled; nothing can have involved them earlier (arrivals are not
        // routed to warming replicas, so their pipelines are empty).
        for replica in &mut replicas {
            if let ReplicaState::Warming { ready_ns } = replica.state {
                if ready_ns <= now {
                    replica.state = ReplicaState::Active;
                }
            }
        }

        match kind {
            EventKind::Completion => {
                let slot = &mut replicas[index].stages[stage];
                let (batch, _) = slot.executing.take().expect("completion without a batch");
                if stage == last_stage {
                    out.batches[batch].completion_ns = now;
                } else {
                    slot.done = Some(batch);
                }
                let replica = &mut replicas[index];
                replica.settle(now, config.stage_queue_capacity, &out.batches, &mut start)?;
                if replica.state == ReplicaState::Draining && replica.pipeline_empty() {
                    replica.state = ReplicaState::Retired;
                    replica.retired_ns = Some(now);
                }
            }
            EventKind::Arrival => {
                next_arrival += 1;
                let candidates = replicas
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.is_routable())
                    .map(|(i, r)| (i, r.requests.len(), r.in_flight(&out.batches)));
                let chosen = config
                    .routing
                    .pick(candidates, &mut rr_cursor)
                    .expect("at least one active replica");
                if replicas[chosen].requests.len() >= config.queue_capacity {
                    out.rejected.push(index);
                } else {
                    replicas[chosen].requests.push_back(index);
                    waiting += 1;
                    out.max_queue_depth = out.max_queue_depth.max(waiting);
                }
            }
            EventKind::Dispatch => {
                let replica = &mut replicas[index];
                let size = replica.requests.len().min(config.batching.max_batch_size);
                let members: Vec<usize> = replica.requests.drain(..size).collect();
                waiting -= size as u64;
                for &request in &members {
                    window_max_wait_ns = window_max_wait_ns.max(now - trace.arrivals_ns[request]);
                }
                // When the batching policy decided this batch: the filling
                // member's arrival when size-triggered, the oldest member's
                // deadline otherwise. Later dispatch is replica-busy delay.
                let planned_close_ns = if config.batching.is_full(members.len()) {
                    trace.arrivals_ns[*members.last().expect("batch is non-empty")]
                } else {
                    config
                        .batching
                        .close_deadline_ns(trace.arrivals_ns[members[0]])
                }
                .min(now);
                replica.stages[0].queue.push_back(out.batches.len());
                out.planned_close_ns.push(planned_close_ns);
                out.batches.push(BatchRecord {
                    replica: index,
                    dispatch_ns: now,
                    completion_ns: 0,
                    requests: members,
                });
                replica.settle(now, config.stage_queue_capacity, &out.batches, &mut start)?;
            }
            EventKind::Scale => {
                let t = config
                    .autoscaler
                    .thresholds()
                    .expect("fixed fleets schedule no checks");
                next_check_ns = now.saturating_add(t.check_interval_ns);
                let provisioned = replicas
                    .iter()
                    .filter(|r| {
                        matches!(r.state, ReplicaState::Active | ReplicaState::Warming { .. })
                    })
                    .count();
                let active = replicas.iter().filter(|r| r.is_routable()).count();
                // The policy's signal, and the unit its thresholds count in.
                let (signal, unit) = if let AutoscalePolicy::SloHeadroom { .. } = config.autoscaler
                {
                    // The worst wait since the last check: dispatched
                    // batches plus the age of the oldest request still
                    // waiting (a stuck queue must count even if nothing
                    // dispatched).
                    let oldest_waiting = replicas
                        .iter()
                        .filter(|r| r.in_fleet())
                        .filter_map(|r| r.requests.front())
                        .map(|&request| now - trace.arrivals_ns[request])
                        .max()
                        .unwrap_or(0);
                    let observed = window_max_wait_ns.max(oldest_waiting);
                    window_max_wait_ns = 0;
                    (u128::from(observed) * 1000, u128::from(config.slo_ns))
                } else {
                    (u128::from(waiting), provisioned as u128)
                };
                let grow = signal > u128::from(t.up) * unit;
                let shrink = signal < u128::from(t.down) * unit;
                if grow && provisioned < t.max_replicas {
                    replicas.push(FleetReplica::new(
                        stages,
                        ReplicaState::Warming {
                            ready_ns: now.saturating_add(t.warmup_ns),
                        },
                        now,
                    ));
                    out.peak_replicas = out.peak_replicas.max(provisioned + 1);
                    out.scale_events.push(ScaleEvent {
                        time_ns: now,
                        from_replicas: provisioned,
                        to_replicas: provisioned + 1,
                    });
                } else if shrink && !grow && active > t.min_replicas {
                    let victim = replicas
                        .iter_mut()
                        .rev()
                        .find(|r| r.is_routable())
                        .expect("active count checked above");
                    if victim.pipeline_empty() {
                        victim.state = ReplicaState::Retired;
                        victim.retired_ns = Some(now);
                    } else {
                        victim.state = ReplicaState::Draining;
                    }
                    out.scale_events.push(ScaleEvent {
                        time_ns: now,
                        from_replicas: provisioned,
                        to_replicas: provisioned - 1,
                    });
                }
            }
        }
    }
    out.lifetimes = replicas
        .iter()
        .map(|r| (r.started_ns, r.retired_ns))
        .collect();
    Ok(out)
}

/// Replays `trace` through a fleet of pipelined replicas under `config`,
/// producing the aggregate [`FleetReport`].
///
/// `spec` is echoed into the report so consumers can reproduce the run; it
/// must be the spec `trace` was generated from. An empty trace is legal and
/// yields a report of zeros (default latency summaries).
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] when the configuration fails
/// [`FleetConfig::validate`] or the stage model has a different stage count
/// than `config.shards`.
pub fn simulate_fleet(
    model: &FleetStageModel,
    config: &FleetConfig,
    spec: &TraceSpec,
    trace: &Trace,
) -> Result<FleetReport> {
    config.validate()?;
    if model.stages.len() != config.shards {
        return Err(ServeError::InvalidConfig {
            reason: format!(
                "stage model has {} stages but the fleet config asks for {} shards",
                model.stages.len(),
                config.shards
            ),
        });
    }
    let mut compute_uj = 0.0f64;
    let trajectory = replay(config, trace, |stage, _, requests| {
        let cost = &model.stages[stage];
        compute_uj += cost.energy_uj_per_sample * requests.len() as f64;
        Ok(cost.latency_ns)
    })?;
    let summary = RequestSummary::new(&trajectory, &trace.arrivals_ns, config.slo_ns);

    let makespan_ns = summary.makespan_ns;
    let tiles_per_replica = model.tiles_per_replica();
    let lifetime_ns = |&(started_ns, retired_ns): &(u64, Option<u64>)| {
        retired_ns.unwrap_or(makespan_ns).saturating_sub(started_ns)
    };
    let tile_ns: u128 = trajectory
        .lifetimes
        .iter()
        .map(|life| u128::from(lifetime_ns(life)) * u128::from(tiles_per_replica))
        .sum();
    let tile_ns = u64::try_from(tile_ns).unwrap_or(u64::MAX);
    // µW · ns = 1e-15 J = 1e-9 µJ.
    let idle_uj = tile_ns as f64 * config.idle_tile_uw * 1e-9;
    let total_uj = compute_uj + idle_uj;
    let final_replicas = trajectory
        .lifetimes
        .iter()
        .filter(|(_, retired_ns)| retired_ns.is_none())
        .count();
    let mean_replicas = if makespan_ns == 0 {
        final_replicas as f64
    } else {
        trajectory
            .lifetimes
            .iter()
            .map(|life| lifetime_ns(life) as f64)
            .sum::<f64>()
            / makespan_ns as f64
    };

    Ok(FleetReport {
        model: model.model.clone(),
        config: *config,
        trace: *spec,
        stage_latency_ns: model.stages.iter().map(|s| s.latency_ns).collect(),
        stage_tiles: model.stages.iter().map(|s| s.tiles as u64).collect(),
        tiles_per_replica,
        offered: summary.offered,
        admitted: summary.admitted,
        rejected: summary.rejected,
        completed: summary.completed,
        batches: summary.batches,
        mean_batch_size: summary.mean_batch_size,
        latency: summary.latency,
        queue_wait: summary.queue_wait,
        phases: summary.phases,
        max_queue_depth: summary.max_queue_depth,
        makespan_ns,
        samples_per_s: summary.samples_per_s,
        slo_attained: summary.slo_attained,
        slo_attainment: summary.slo_attainment,
        scale_events: trajectory.scale_events,
        peak_replicas: trajectory.peak_replicas,
        final_replicas,
        mean_replicas,
        peak_tiles: trajectory.peak_replicas as u64 * tiles_per_replica,
        tile_ns,
        compute_uj,
        idle_uj,
        total_uj,
        joules_per_sample: ratio(total_uj * 1e-6, summary.completed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchingPolicy;
    use crate::report::LatencySummary;

    /// A hand-built two-stage model: stage 0 takes 1000 ns, stage 1 takes
    /// 500 ns; 1 µJ + 2 tiles vs 0.5 µJ + 1 tile.
    fn two_stage_model() -> FleetStageModel {
        FleetStageModel {
            model: "toy".to_string(),
            stages: vec![
                StageCost {
                    latency_ns: 1_000,
                    energy_uj_per_sample: 1.0,
                    tiles: 2,
                },
                StageCost {
                    latency_ns: 500,
                    energy_uj_per_sample: 0.5,
                    tiles: 1,
                },
            ],
        }
    }

    fn hand_trace(arrivals_ns: &[u64]) -> (TraceSpec, Trace) {
        (
            TraceSpec::poisson(1.0, arrivals_ns.len().max(1), 0),
            Trace {
                arrivals_ns: arrivals_ns.to_vec(),
            },
        )
    }

    fn single_batching() -> BatchingPolicy {
        BatchingPolicy {
            max_batch_size: 1,
            max_queue_delay_ns: 0,
        }
    }

    #[test]
    fn pipeline_overlaps_stages() {
        // Two requests, single-request batches: r0 dispatches at 0, finishes
        // stage 0 at 1000 and stage 1 at 1500. r1 arrives at 10, starts
        // stage 0 when it frees at 1000, finishes at 2500 — the pipeline
        // overlaps r1/stage0 with r0/stage1.
        let model = two_stage_model();
        let config = FleetConfig::default().with_batching(single_batching());
        let (spec, trace) = hand_trace(&[0, 10]);
        let report = simulate_fleet(&model, &config, &spec, &trace).expect("simulate");
        assert_eq!(report.completed, 2);
        assert_eq!(report.makespan_ns, 2_500);
        assert_eq!(report.latency.max_ns, 2_490); // r1: 2500 - 10
        assert_eq!(report.stage_latency_ns, vec![1_000, 500]);
        assert_eq!(report.tiles_per_replica, 3);
        // Energy: 2 samples × 1.5 µJ compute + 3 tiles × 2500 ns × 50 µW.
        assert!((report.compute_uj - 3.0).abs() < 1e-12);
        assert!((report.idle_uj - 3.0 * 2_500.0 * 50.0 * 1e-9).abs() < 1e-12);
        assert_eq!(report.joules_per_sample, report.total_uj * 1e-6 / 2.0);
    }

    #[test]
    fn bounded_stage_queues_backpressure() {
        // Make stage 1 the bottleneck (10× slower) with a stage buffer of
        // one: stage 0 must hold finished batches, so its own queue backs
        // up and throughput is paced by stage 1 alone.
        let model = FleetStageModel {
            model: "toy".to_string(),
            stages: vec![
                StageCost {
                    latency_ns: 100,
                    energy_uj_per_sample: 0.0,
                    tiles: 1,
                },
                StageCost {
                    latency_ns: 1_000,
                    energy_uj_per_sample: 0.0,
                    tiles: 1,
                },
            ],
        };
        let config = FleetConfig {
            stage_queue_capacity: 1,
            ..FleetConfig::default().with_batching(single_batching())
        };
        let arrivals: Vec<u64> = (0..8).map(|i| i * 10).collect();
        let (spec, trace) = hand_trace(&arrivals);
        let report = simulate_fleet(&model, &config, &spec, &trace).expect("simulate");
        assert_eq!(report.completed, 8);
        // Steady state is one completion per bottleneck interval: the last
        // completion is pipeline fill (1100) plus 7 more intervals.
        assert_eq!(report.makespan_ns, 1_100 + 7 * 1_000);
    }

    #[test]
    fn empty_traces_yield_default_summaries() {
        let model = two_stage_model();
        let (spec, trace) = hand_trace(&[]);
        let report =
            simulate_fleet(&model, &FleetConfig::default(), &spec, &trace).expect("simulate");
        assert_eq!(report.completed, 0);
        assert_eq!(report.latency, LatencySummary::default());
        assert_eq!(report.queue_wait, LatencySummary::default());
        assert_eq!(report.makespan_ns, 0);
        assert_eq!(report.samples_per_s, 0.0);
        assert_eq!(report.joules_per_sample, 0.0);
        assert!(report.scale_events.is_empty());
    }

    #[test]
    fn queue_depth_autoscaler_grows_and_shrinks_the_fleet() {
        let model = two_stage_model();
        let config = FleetConfig {
            autoscaler: AutoscalePolicy::QueueDepth {
                check_interval_ns: 2_000,
                up_per_replica: 4,
                down_per_replica: 1,
                min_replicas: 1,
                max_replicas: 4,
                warmup_ns: 1_000,
            },
            ..FleetConfig::default().with_batching(single_batching())
        };
        // A dense burst then silence: the fleet must grow under the burst
        // and drain back to the minimum while the backlog clears.
        let arrivals: Vec<u64> = (0..64).map(|i| i * 20).collect();
        let (spec, trace) = hand_trace(&arrivals);
        let report = simulate_fleet(&model, &config, &spec, &trace).expect("simulate");
        assert_eq!(report.completed, 64);
        assert!(report.peak_replicas > 1, "fleet never grew: {report:?}");
        assert!(!report.scale_events.is_empty());
        assert!(report
            .scale_events
            .windows(2)
            .all(|w| w[0].time_ns <= w[1].time_ns));
        // Growth is visible in the events and capped by max_replicas.
        assert!(report.peak_replicas <= 4);
        assert!(report
            .scale_events
            .iter()
            .any(|e| e.to_replicas > e.from_replicas));
        // The fleet drains once the backlog clears.
        assert!(report.final_replicas < report.peak_replicas);
        // Replaying is byte-identical.
        let replay = simulate_fleet(&model, &config, &spec, &trace).expect("replay");
        assert_eq!(report.to_json(), replay.to_json());
    }

    #[test]
    fn slo_headroom_autoscaler_reacts_to_waits() {
        let model = two_stage_model();
        let config = FleetConfig {
            slo_ns: 4_000,
            autoscaler: AutoscalePolicy::SloHeadroom {
                check_interval_ns: 2_000,
                up_wait_permille: 250,
                down_wait_permille: 100,
                min_replicas: 1,
                max_replicas: 4,
                warmup_ns: 500,
            },
            ..FleetConfig::default().with_batching(single_batching())
        };
        let arrivals: Vec<u64> = (0..64).map(|i| i * 20).collect();
        let (spec, trace) = hand_trace(&arrivals);
        let report = simulate_fleet(&model, &config, &spec, &trace).expect("simulate");
        assert_eq!(report.completed, 64);
        assert!(report.peak_replicas > 1, "fleet never grew: {report:?}");
    }

    #[test]
    fn draining_replicas_finish_their_work() {
        // One replica is enough after the burst; whatever the autoscaler
        // drains must still complete every admitted request.
        let model = two_stage_model();
        let config = FleetConfig {
            replicas: 3,
            autoscaler: AutoscalePolicy::QueueDepth {
                check_interval_ns: 1_000,
                up_per_replica: 1_000,
                down_per_replica: 2,
                min_replicas: 1,
                max_replicas: 3,
                warmup_ns: 0,
            },
            ..FleetConfig::default().with_batching(single_batching())
        };
        let arrivals: Vec<u64> = (0..12).map(|i| i * 50).collect();
        let (spec, trace) = hand_trace(&arrivals);
        let report = simulate_fleet(&model, &config, &spec, &trace).expect("simulate");
        assert_eq!(report.completed + report.rejected, 12);
        assert_eq!(report.rejected, 0);
        assert!(report.final_replicas < 3, "{report:?}");
    }

    #[test]
    fn mismatched_stage_counts_are_rejected() {
        let model = two_stage_model();
        let config = FleetConfig::default().with_shards(3);
        let (spec, trace) = hand_trace(&[0]);
        assert!(simulate_fleet(&model, &config, &spec, &trace).is_err());
    }

    #[test]
    fn stage_models_come_from_profiles() {
        use camdnn::{LayerCost, ModelProfile};
        let profile = ModelProfile {
            model: "profiled".to_string(),
            layers: vec![
                LayerCost {
                    name: "conv1".to_string(),
                    node_id: 0,
                    latency_ns: 3_000.0,
                    energy_uj: 1.0,
                    tiles_used: 2,
                    units: 4,
                    traffic_bits: 100,
                },
                LayerCost {
                    name: "conv2".to_string(),
                    node_id: 2,
                    latency_ns: 5_000.0,
                    energy_uj: 2.0,
                    tiles_used: 3,
                    units: 6,
                    traffic_bits: 200,
                },
                LayerCost {
                    name: "fc".to_string(),
                    node_id: 4,
                    latency_ns: 2_000.0,
                    energy_uj: 0.5,
                    tiles_used: 1,
                    units: 1,
                    traffic_bits: 50,
                },
            ],
        };
        let model = FleetStageModel::from_profile(&profile, 2).expect("stage model");
        assert_eq!(model.model, "profiled");
        assert_eq!(model.stages.len(), 2);
        // Optimal 2-cut of [3000, 5000, 2000] is [3000 | 5000+2000]? No:
        // bottleneck of [3000 | 7000] is 7000, of [8000 | 2000] is 8000 —
        // the first cut wins.
        assert_eq!(model.stages[0].latency_ns, 3_000);
        assert_eq!(model.stages[1].latency_ns, 7_000);
        assert_eq!(model.stages[0].tiles, 2);
        assert_eq!(model.stages[1].tiles, 3);
        assert!((model.stages[1].energy_uj_per_sample - 2.5).abs() < 1e-12);
        assert_eq!(model.tiles_per_replica(), 5);
        assert_eq!(model.bottleneck_ns(), 7_000);
        assert_eq!(model.fill_ns(), 10_000);
        // More shards than layers is a planner error, surfaced as Backend.
        assert!(FleetStageModel::from_profile(&profile, 9).is_err());
    }
}
