//! Declarative fleet sweeps: shards × replicas × autoscaler policy, executed
//! as deterministic simulations over shared per-model cost profiles.
//!
//! [`FleetGrid`] declares the cartesian product once, [`FleetSession`]
//! expands it and runs every simulation as one flat rayon job pool (each
//! simulation is internally sequential on the virtual clock, so the fan-out
//! cannot perturb results), and [`FleetResultSet`] — the shared
//! `camdnn::experiment::ResultSet` over [`FleetRecord`]s — collects one
//! record per scenario in expansion order with JSON-lines serialization.
//! [`pareto`] picks the frontier over SLO attainment vs joules/sample — the
//! capacity-planning deliverable.
//!
//! A session profiles each distinct (model, compiler options, architecture,
//! tile grid) point exactly once: the per-layer cost profile a
//! [`FunctionalBackend`] measures is memoized and re-cut into stages for
//! every shard count that asks for it.

use super::report::FleetReport;
use super::sim::{simulate_fleet, FleetStageModel};
use super::{AutoscalePolicy, FleetConfig};
use crate::config::{BatchingPolicy, RoutePolicy};
use crate::error::{Result, ServeError};
use crate::trace::TraceSpec;
use accel::ArchConfig;
use apc::{CompileCache, CompilerOptions, TileGrid};
use camdnn::experiment::{run_ordered, ResultSet, SweepRecord, Workload};
use camdnn::{FunctionalBackend, ModelProfile};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use tnn::model::ModelGraph;

/// One fleet evaluation point: a workload served by a pipelined fleet under
/// one configuration against one trace.
#[derive(Clone)]
pub struct FleetScenario {
    /// Display label (unique within one grid; the lookup key of the result
    /// set).
    pub label: String,
    /// The served model.
    pub workload: Workload,
    /// The fleet configuration (shards, replicas, autoscaler, power).
    pub config: FleetConfig,
    /// The load trace to replay.
    pub trace: TraceSpec,
    /// The tile grid each replica's layers are partitioned over.
    pub tile_grid: TileGrid,
    /// Activation precision of the served model.
    pub act_bits: u8,
    /// Accelerator configuration the cost profile is measured on.
    pub arch: ArchConfig,
    /// Template for the remaining compiler knobs.
    pub compiler_template: CompilerOptions,
}

impl std::fmt::Debug for FleetScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetScenario")
            .field("label", &self.label)
            .field("config", &self.config)
            .field("trace", &self.trace)
            .finish()
    }
}

impl FleetScenario {
    /// The effective compiler options: the template at the scenario's
    /// activation precision and the architecture's geometry.
    pub fn compiler_options(&self) -> CompilerOptions {
        CompilerOptions {
            act_bits: self.act_bits,
            geometry: self.arch.geometry,
            ..self.compiler_template
        }
    }
}

/// A memoized cost profile and everything it depends on: the model, the
/// effective compiler options, the architecture and the tile grid — nothing
/// the fleet knobs change. The entry holds the model's [`Arc`], so no other
/// model can reuse the address [`ProfileEntry::matches`] compares.
#[derive(Debug)]
struct ProfileEntry {
    model: Arc<ModelGraph>,
    options: CompilerOptions,
    arch: ArchConfig,
    tile_grid: TileGrid,
    profile: Arc<ModelProfile>,
}

impl ProfileEntry {
    fn matches(&self, scenario: &FleetScenario) -> bool {
        Arc::ptr_eq(&self.model, &scenario.workload.model)
            && self.options == scenario.compiler_options()
            && self.arch == scenario.arch
            && self.tile_grid == scenario.tile_grid
    }
}

/// Cartesian sweep over fleet axes: workloads × traffic (traces) × shard
/// counts × replica counts × autoscaler policies.
///
/// Unset axes default to a single point: one Poisson trace of 256 requests
/// at 2000 req/s, two shards, one replica, no autoscaling, the default
/// batching window and architecture, 4-bit activations on a 1×1 tile grid.
#[derive(Debug, Clone)]
pub struct FleetGrid {
    workloads: Vec<Workload>,
    traffic: Vec<TraceSpec>,
    shards: Vec<usize>,
    replicas: Vec<usize>,
    autoscalers: Vec<AutoscalePolicy>,
    batching: BatchingPolicy,
    routing: RoutePolicy,
    queue_capacity: usize,
    stage_queue_capacity: usize,
    slo_ns: u64,
    idle_tile_uw: f64,
    tile_grid: TileGrid,
    act_bits: u8,
    arch: ArchConfig,
    compiler_template: CompilerOptions,
}

impl Default for FleetGrid {
    fn default() -> Self {
        let template = CompilerOptions::default();
        let config = FleetConfig::default();
        FleetGrid {
            workloads: Vec::new(),
            traffic: vec![TraceSpec::poisson(2_000.0, 256, 0)],
            shards: vec![config.shards],
            replicas: vec![config.replicas],
            autoscalers: vec![AutoscalePolicy::Fixed],
            batching: config.batching,
            routing: config.routing,
            queue_capacity: config.queue_capacity,
            stage_queue_capacity: config.stage_queue_capacity,
            slo_ns: config.slo_ns,
            idle_tile_uw: config.idle_tile_uw,
            tile_grid: TileGrid::new(1, 1),
            act_bits: template.act_bits,
            arch: ArchConfig::default(),
            compiler_template: template,
        }
    }
}

impl FleetGrid {
    /// Creates an empty grid (no workloads yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the workload axis.
    #[must_use]
    pub fn workloads<W: Into<Workload>>(mut self, workloads: impl IntoIterator<Item = W>) -> Self {
        self.workloads = workloads.into_iter().map(Into::into).collect();
        self
    }

    /// Appends one workload.
    #[must_use]
    pub fn workload(mut self, workload: impl Into<Workload>) -> Self {
        self.workloads.push(workload.into());
        self
    }

    /// Replaces the traffic axis (each point is one trace spec: process,
    /// request count, seed).
    #[must_use]
    pub fn traffic(mut self, traffic: impl IntoIterator<Item = TraceSpec>) -> Self {
        self.traffic = traffic.into_iter().collect();
        self
    }

    /// Replaces the shard-count axis (pipeline stages per replica).
    #[must_use]
    pub fn shards(mut self, shards: impl IntoIterator<Item = usize>) -> Self {
        self.shards = shards.into_iter().collect();
        self
    }

    /// Replaces the initial-replica-count axis.
    #[must_use]
    pub fn replicas(mut self, replicas: impl IntoIterator<Item = usize>) -> Self {
        self.replicas = replicas.into_iter().collect();
        self
    }

    /// Replaces the autoscaler-policy axis.
    #[must_use]
    pub fn autoscalers(mut self, autoscalers: impl IntoIterator<Item = AutoscalePolicy>) -> Self {
        self.autoscalers = autoscalers.into_iter().collect();
        self
    }

    /// Sets the stage-0 batching window applied to every scenario.
    #[must_use]
    pub fn batching(mut self, batching: BatchingPolicy) -> Self {
        self.batching = batching;
        self
    }

    /// Sets the routing policy applied to every scenario.
    #[must_use]
    pub fn routing(mut self, routing: RoutePolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the per-replica admission queue capacity.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the inter-stage buffer depth (batches) applied to every scenario.
    #[must_use]
    pub fn stage_queue_capacity(mut self, capacity: usize) -> Self {
        self.stage_queue_capacity = capacity;
        self
    }

    /// Sets the latency SLO applied to every scenario, in milliseconds
    /// (rounded to whole nanoseconds via [`crate::config::ms_to_ns`]).
    #[must_use]
    pub fn slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ns = crate::config::ms_to_ns(slo_ms);
        self
    }

    /// Sets the static per-tile power, in microwatts.
    #[must_use]
    pub fn idle_tile_uw(mut self, idle_tile_uw: f64) -> Self {
        self.idle_tile_uw = idle_tile_uw;
        self
    }

    /// Sets the tile grid each replica's layers are partitioned over.
    #[must_use]
    pub fn tile_grid(mut self, grid: TileGrid) -> Self {
        self.tile_grid = grid;
        self
    }

    /// Sets the activation precision of the served models.
    #[must_use]
    pub fn act_bits(mut self, act_bits: u8) -> Self {
        self.act_bits = act_bits;
        self
    }

    /// Sets the accelerator configuration the cost profiles are measured on.
    #[must_use]
    pub fn arch(mut self, arch: ArchConfig) -> Self {
        self.arch = arch;
        self
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.traffic.len()
            * self.shards.len()
            * self.replicas.len()
            * self.autoscalers.len()
    }

    /// Whether the grid expands to no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product, workloads outermost, then traffic,
    /// shards, replicas and autoscalers. Labels are
    /// `"<workload> <process>x<requests> s<shards> r<replicas> <policy>"`.
    pub fn scenarios(&self) -> Vec<FleetScenario> {
        let mut scenarios = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for &trace in &self.traffic {
                for &shards in &self.shards {
                    for &replicas in &self.replicas {
                        for &autoscaler in &self.autoscalers {
                            let label = format!(
                                "{} {}x{} s{} r{} {}",
                                workload.label,
                                trace.process.label(),
                                trace.requests,
                                shards,
                                replicas,
                                autoscaler.label()
                            );
                            scenarios.push(FleetScenario {
                                label,
                                workload: workload.clone(),
                                config: FleetConfig {
                                    shards,
                                    replicas,
                                    batching: self.batching,
                                    queue_capacity: self.queue_capacity,
                                    stage_queue_capacity: self.stage_queue_capacity,
                                    routing: self.routing,
                                    slo_ns: self.slo_ns,
                                    autoscaler,
                                    idle_tile_uw: self.idle_tile_uw,
                                },
                                trace,
                                tile_grid: self.tile_grid,
                                act_bits: self.act_bits,
                                arch: self.arch,
                                compiler_template: self.compiler_template,
                            });
                        }
                    }
                }
            }
        }
        scenarios
    }
}

/// One row of a [`FleetResultSet`]: the outcome of one fleet scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRecord {
    /// Scenario label (see [`FleetGrid::scenarios`]).
    pub scenario: String,
    /// Workload label.
    pub workload: String,
    /// Model name.
    pub network: String,
    /// The fleet report (config echo, latency, scaling trajectory, energy).
    pub report: FleetReport,
}

/// Deterministic, expansion-ordered fleet results with JSON-lines
/// serialization (schema: `BENCH_schema.md`).
pub type FleetResultSet = ResultSet<FleetRecord>;

/// The pareto-efficient records over (SLO attainment ↑, joules/sample ↓): a
/// record survives unless another record attains at least as much SLO for at
/// most as many joules with at least one strict improvement. Survivors keep
/// their order in `records`, so the frontier is deterministic.
pub fn pareto(records: &[FleetRecord]) -> Vec<&FleetRecord> {
    records
        .iter()
        .filter(|candidate| {
            !records.iter().any(|other| {
                let a = &other.report;
                let b = &candidate.report;
                a.slo_attainment >= b.slo_attainment
                    && a.joules_per_sample <= b.joules_per_sample
                    && (a.slo_attainment > b.slo_attainment
                        || a.joules_per_sample < b.joules_per_sample)
            })
        })
        .collect()
}

impl SweepRecord for FleetRecord {
    fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The headline fleet metrics as a fixed-width table; [`pareto`]
    /// frontier rows are marked with `*`.
    fn to_table(records: &[Self]) -> String {
        let pareto: HashSet<&str> = pareto(records)
            .iter()
            .map(|r| r.scenario.as_str())
            .collect();
        let mut out = format!(
            "{:<52} {:>9} {:>10} {:>10} {:>7} {:>9} {:>5} {:>12}\n",
            "scenario", "served", "smp/s", "p99[ms]", "slo[%]", "peak rep", "tiles", "uJ/sample"
        );
        for record in records {
            let report = &record.report;
            out.push_str(&format!(
                "{:<50} {} {:>4}/{:<4} {:>10.1} {:>10.3} {:>7.1} {:>9} {:>5} {:>12.4}\n",
                record.scenario,
                if pareto.contains(record.scenario.as_str()) {
                    '*'
                } else {
                    ' '
                },
                report.completed,
                report.offered,
                report.samples_per_s,
                report.latency.p99_ms(),
                report.slo_attainment * 100.0,
                report.peak_replicas,
                report.peak_tiles,
                report.joules_per_sample * 1e6,
            ));
        }
        out
    }
}

/// Executes fleet sweeps with a shared compile cache and memoized per-model
/// cost profiles.
#[derive(Debug, Default)]
pub struct FleetSession {
    cache: Arc<CompileCache>,
    profiles: Mutex<Vec<ProfileEntry>>,
}

impl FleetSession {
    /// Creates a session with an empty compile cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The session's shared compile cache.
    pub fn cache(&self) -> &Arc<CompileCache> {
        &self.cache
    }

    /// The scenario's per-layer cost profile, measured once per distinct
    /// [`ProfileEntry`] point and memoized across the session.
    fn profile(&self, scenario: &FleetScenario) -> Result<Arc<ModelProfile>> {
        if let Some(entry) = self
            .profiles
            .lock()
            .expect("profile cache poisoned")
            .iter()
            .find(|entry| entry.matches(scenario))
        {
            return Ok(Arc::clone(&entry.profile));
        }
        let backend = FunctionalBackend::new(scenario.arch, scenario.compiler_options())
            .with_tile_grid(scenario.tile_grid);
        let profile = Arc::new(
            backend
                .profile(&scenario.workload.model, &self.cache)
                .map_err(ServeError::Backend)?,
        );
        // Two threads may race to profile the same point; both produce the
        // same deterministic profile, so either entry is fine.
        self.profiles
            .lock()
            .expect("profile cache poisoned")
            .push(ProfileEntry {
                model: Arc::clone(&scenario.workload.model),
                options: scenario.compiler_options(),
                arch: scenario.arch,
                tile_grid: scenario.tile_grid,
                profile: Arc::clone(&profile),
            });
        Ok(profile)
    }

    /// Runs one scenario: profiles the model, cuts the profile into the
    /// scenario's shard count, generates the trace, and simulates the fleet
    /// on the virtual clock.
    ///
    /// # Errors
    ///
    /// Propagates profile, stage-planning, trace-generation and
    /// configuration errors.
    pub fn run_scenario(&self, scenario: &FleetScenario) -> Result<FleetReport> {
        let profile = self.profile(scenario)?;
        let model = FleetStageModel::from_profile(&profile, scenario.config.shards)?;
        let trace = scenario.trace.generate()?;
        simulate_fleet(&model, &scenario.config, &scenario.trace, &trace)
    }

    /// Expands `grid` and runs every scenario as one flat parallel job pool,
    /// collecting records in expansion order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when two scenarios share a
    /// label; otherwise all simulations run to completion and the error of
    /// the lowest-index failing scenario is reported.
    pub fn run(&self, grid: &FleetGrid) -> Result<FleetResultSet> {
        let scenarios = grid.scenarios();
        let records = run_ordered(
            scenarios.iter().map(|scenario| scenario.label.as_str()),
            |label| ServeError::InvalidConfig {
                reason: format!(
                    "duplicate fleet scenario label `{label}` — \
                     give colliding workloads distinct labels"
                ),
            },
            &scenarios,
            |scenario| {
                Ok(FleetRecord {
                    scenario: scenario.label.clone(),
                    workload: scenario.workload.label.clone(),
                    network: scenario.workload.model.name().to_string(),
                    report: self.run_scenario(scenario)?,
                })
            },
        )?;
        Ok(ResultSet { records })
    }
}
