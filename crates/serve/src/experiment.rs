//! Declarative serving sweeps: traffic intensity × batching policy × replica
//! count, executed as deterministic simulations with a shared compile cache.
//!
//! This mirrors the `camdnn::experiment` API one layer up the stack: a
//! [`ServeGrid`] declares the cartesian product once, a [`ServeSession`]
//! expands it into [`ServeScenario`]s and runs every simulation as one flat
//! rayon job pool (each simulation is internally sequential on the virtual
//! clock, so the fan-out cannot perturb results), and a [`ServeResultSet`]
//! — the shared `camdnn::experiment::ResultSet` over [`ServeRecord`]s —
//! collects one record per scenario in expansion order with JSON-lines
//! serialization.
//!
//! Every scenario is served by the bit-level [`FunctionalBackend`] through
//! a [`BackendExecutor`]. All scenarios share one [`apc::CompileCache`]
//! through the session, so a sweep compiles each distinct layer exactly once
//! no matter how many traffic points replay the same model.

use crate::config::{BatchingPolicy, RoutePolicy, ServeConfig};
use crate::error::{Result, ServeError};
use crate::executor::BackendExecutor;
use crate::report::ServeReport;
use crate::sim::{simulate, SimOutcome};
use crate::trace::{PayloadSpec, TraceSpec};
use accel::ArchConfig;
use apc::{CompileCache, CompilerOptions};
use camdnn::experiment::{run_ordered, ResultSet, SweepRecord, Workload};
use camdnn::FunctionalBackend;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One serving evaluation point: a workload served under one configuration
/// against one trace.
#[derive(Clone)]
pub struct ServeScenario {
    /// Display label (unique within one grid; the lookup key of the result
    /// set).
    pub label: String,
    /// The served model.
    pub workload: Workload,
    /// The serving configuration (replicas, batching, routing, SLO).
    pub config: ServeConfig,
    /// The load trace to replay.
    pub trace: TraceSpec,
    /// Where request payloads come from.
    pub payloads: PayloadSpec,
    /// Activation precision of the served model.
    pub act_bits: u8,
    /// Accelerator configuration of the backend.
    pub arch: ArchConfig,
    /// Template for the remaining compiler knobs.
    pub compiler_template: CompilerOptions,
}

impl std::fmt::Debug for ServeScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeScenario")
            .field("label", &self.label)
            .field("config", &self.config)
            .field("trace", &self.trace)
            .finish()
    }
}

impl ServeScenario {
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

/// Cartesian sweep over serving axes: workloads × traffic (traces) ×
/// batching policies × replica counts.
///
/// Unset axes default to a single point: one Poisson trace of 64 requests at
/// 2000 req/s, the default batching window, one replica, round-robin
/// routing, seeded payloads, the default architecture and 4-bit activations.
/// Every scenario is served by the bit-level [`FunctionalBackend`], the one
/// bundled backend with per-request outputs; other executors run through
/// [`simulate`] with a custom [`RequestExecutor`](crate::RequestExecutor).
#[derive(Clone)]
pub struct ServeGrid {
    workloads: Vec<Workload>,
    traffic: Vec<TraceSpec>,
    batching: Vec<BatchingPolicy>,
    replicas: Vec<usize>,
    routing: RoutePolicy,
    queue_capacity: usize,
    slo_ns: u64,
    payloads: PayloadSpec,
    act_bits: u8,
    arch: ArchConfig,
    compiler_template: CompilerOptions,
}

impl std::fmt::Debug for ServeGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeGrid")
            .field("workloads", &self.workloads.len())
            .field("traffic", &self.traffic)
            .field("batching", &self.batching)
            .field("replicas", &self.replicas)
            .field("routing", &self.routing)
            .finish()
    }
}

impl Default for ServeGrid {
    fn default() -> Self {
        let template = CompilerOptions::default();
        ServeGrid {
            workloads: Vec::new(),
            traffic: vec![TraceSpec::poisson(2_000.0, 64, 0)],
            batching: vec![BatchingPolicy::default()],
            replicas: vec![1],
            routing: RoutePolicy::RoundRobin,
            queue_capacity: ServeConfig::default().queue_capacity,
            slo_ns: ServeConfig::default().slo_ns,
            payloads: PayloadSpec::Seeded { base_seed: 0 },
            act_bits: template.act_bits,
            arch: ArchConfig::default(),
            compiler_template: template,
        }
    }
}

impl ServeGrid {
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

    /// Replaces the batching-policy axis.
    #[must_use]
    pub fn batching(mut self, batching: impl IntoIterator<Item = BatchingPolicy>) -> Self {
        self.batching = batching.into_iter().collect();
        self
    }

    /// Replaces the replica-count axis.
    #[must_use]
    pub fn replicas(mut self, replicas: impl IntoIterator<Item = usize>) -> Self {
        self.replicas = replicas.into_iter().collect();
        self
    }

    /// Sets the routing policy applied to every scenario.
    #[must_use]
    pub fn routing(mut self, routing: RoutePolicy) -> Self {
        self.routing = routing;
        self
    }

    /// Sets the per-replica queue capacity applied to every scenario.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the latency SLO applied to every scenario, in milliseconds
    /// (rounded to whole nanoseconds via [`crate::config::ms_to_ns`]).
    #[must_use]
    pub fn slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ns = crate::config::ms_to_ns(slo_ms);
        self
    }

    /// Sets the payload source applied to every scenario.
    #[must_use]
    pub fn payloads(mut self, payloads: PayloadSpec) -> Self {
        self.payloads = payloads;
        self
    }

    /// Sets the activation precision of the served models.
    #[must_use]
    pub fn act_bits(mut self, act_bits: u8) -> Self {
        self.act_bits = act_bits;
        self
    }

    /// Sets the accelerator configuration of the backend.
    #[must_use]
    pub fn arch(mut self, arch: ArchConfig) -> Self {
        self.arch = arch;
        self
    }

    /// Number of scenarios the grid expands to.
    pub fn len(&self) -> usize {
        self.workloads.len() * self.traffic.len() * self.batching.len() * self.replicas.len()
    }

    /// Whether the grid expands to no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product, workloads outermost, then traffic,
    /// batching and replicas. Labels are
    /// `"<workload> <process>x<requests> <batching> r<replicas>"`.
    pub fn scenarios(&self) -> Vec<ServeScenario> {
        let mut scenarios = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for &trace in &self.traffic {
                for &batching in &self.batching {
                    for &replicas in &self.replicas {
                        let label = format!(
                            "{} {}x{} {} r{}",
                            workload.label,
                            trace.process.label(),
                            trace.requests,
                            batching.label(),
                            replicas
                        );
                        scenarios.push(ServeScenario {
                            label,
                            workload: workload.clone(),
                            config: ServeConfig {
                                replicas,
                                batching,
                                queue_capacity: self.queue_capacity,
                                routing: self.routing,
                                slo_ns: self.slo_ns,
                            },
                            trace,
                            payloads: self.payloads,
                            act_bits: self.act_bits,
                            arch: self.arch,
                            compiler_template: self.compiler_template,
                        });
                    }
                }
            }
        }
        scenarios
    }
}

/// One row of a [`ServeResultSet`]: the outcome of one serving scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRecord {
    /// Scenario label (see [`ServeGrid::scenarios`]).
    pub scenario: String,
    /// Workload label.
    pub workload: String,
    /// Model name.
    pub network: String,
    /// Configured backend instance name.
    pub backend_name: String,
    /// The payload source of the requests.
    pub payloads: PayloadSpec,
    /// The serving report (config echo, latency distribution, SLO).
    pub report: ServeReport,
}

impl SweepRecord for ServeRecord {
    fn scenario(&self) -> &str {
        &self.scenario
    }

    /// The headline serving metrics as a fixed-width table.
    fn to_table(records: &[Self]) -> String {
        let mut out = format!(
            "{:<44} {:>4} {:>9} {:>10} {:>10} {:>10} {:>7} {:>6}\n",
            "scenario", "rep", "served", "smp/s", "p50[ms]", "p99[ms]", "slo[%]", "batch"
        );
        for record in records {
            let report = &record.report;
            out.push_str(&format!(
                "{:<44} {:>4} {:>4}/{:<4} {:>10.1} {:>10.3} {:>10.3} {:>7.1} {:>6.2}\n",
                record.scenario,
                report.config.replicas,
                report.completed,
                report.offered,
                report.samples_per_s,
                report.latency.p50_ms(),
                report.latency.p99_ms(),
                report.slo_attainment * 100.0,
                report.mean_batch_size,
            ));
        }
        out
    }
}

/// Deterministic, expansion-ordered serving results with JSON-lines
/// serialization (schema: `BENCH_schema.md`).
pub type ServeResultSet = ResultSet<ServeRecord>;

/// Executes serving sweeps with a shared compile cache.
#[derive(Debug, Default)]
pub struct ServeSession {
    cache: Arc<CompileCache>,
}

impl ServeSession {
    /// Creates a session with an empty compile cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The session's shared compile cache.
    pub fn cache(&self) -> &Arc<CompileCache> {
        &self.cache
    }

    /// Runs one scenario on the bit-level functional backend: generates its
    /// trace and payloads, then simulates on the virtual clock. The full
    /// [`SimOutcome`] (batch boundaries, per-request logits) is returned —
    /// [`run`](Self::run) keeps only the reports.
    ///
    /// # Errors
    ///
    /// Propagates trace/payload generation and backend errors.
    pub fn run_scenario(&self, scenario: &ServeScenario) -> Result<SimOutcome> {
        let trace = scenario.trace.generate()?;
        let payloads = scenario.payloads.materialize(
            &scenario.workload.model,
            scenario.act_bits,
            trace.len(),
        )?;
        let executor = BackendExecutor::new(
            Arc::new(FunctionalBackend::new(
                scenario.arch,
                scenario.compiler_options(),
            )),
            Arc::clone(&scenario.workload.model),
            Arc::clone(&self.cache),
        );
        simulate(
            &executor,
            &scenario.config,
            &scenario.trace,
            &trace,
            &payloads,
            scenario.workload.model.name(),
        )
    }

    /// Expands `grid` and runs every scenario as one flat parallel job pool,
    /// collecting records in expansion order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when two scenarios share a
    /// label; otherwise all simulations run to completion and the error of
    /// the lowest-index failing scenario is reported.
    pub fn run(&self, grid: &ServeGrid) -> Result<ServeResultSet> {
        let scenarios = grid.scenarios();
        let records = run_ordered(
            scenarios.iter().map(|scenario| scenario.label.as_str()),
            |label| ServeError::InvalidConfig {
                reason: format!(
                    "duplicate serve scenario label `{label}` — \
                     give colliding workloads distinct labels"
                ),
            },
            &scenarios,
            |scenario| {
                let outcome = self.run_scenario(scenario)?;
                Ok(ServeRecord {
                    scenario: scenario.label.clone(),
                    workload: scenario.workload.label.clone(),
                    network: scenario.workload.model.name().to_string(),
                    backend_name: outcome.report.backend.clone(),
                    payloads: scenario.payloads,
                    report: outcome.report,
                })
            },
        )?;
        Ok(ResultSet { records })
    }
}
