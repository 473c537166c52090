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

use crate::config::{BatchingPolicy, ServeConfig};
use crate::error::{Result, ServeError};
use crate::executor::BackendExecutor;
use crate::report::ServeReport;
use crate::sim::{simulate, SimOutcome};
use crate::trace::{PayloadSpec, TraceSpec};
use apc::{CompileCache, CompilerOptions};
use camdnn::experiment::{run_ordered, ResultSet, SweepRecord, Workload};
use camdnn::FunctionalBackend;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One serving evaluation point: a workload served under one configuration
/// against one trace.
#[derive(Debug, Clone)]
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
}

/// Cartesian sweep over serving axes: workloads × traffic (traces) ×
/// batching policies × replica counts, over one base [`ServeConfig`].
///
/// Unset axes default to a single point: one Poisson trace of 64 requests at
/// 2000 req/s, the default batching window and one replica; the base
/// configuration defaults to [`ServeConfig::default`] and payloads are
/// seeded. Every scenario is served by the bit-level [`FunctionalBackend`]
/// at its default architecture and compiler options, the one bundled backend
/// with per-request outputs; other executors run through [`simulate`] with a
/// custom [`RequestExecutor`](crate::RequestExecutor).
///
/// # Example
///
/// ```
/// use serve::{BatchingPolicy, RoutePolicy, ServeConfig, ServeGrid, TraceSpec};
/// use tnn::model::micro_cnn;
///
/// let grid = ServeGrid::new()
///     .workload(micro_cnn("micro", 4, 0.8, 7))
///     .traffic([TraceSpec::poisson(20_000.0, 16, 3)])
///     .batching([BatchingPolicy::new(1, 0), BatchingPolicy::new(8, 500)])
///     .config(ServeConfig::default().with_routing(RoutePolicy::LeastLoaded).with_slo_ms(2.0));
/// let scenarios = grid.scenarios();
/// assert_eq!(scenarios.len(), 2);
/// assert_eq!(scenarios[1].label, "micro poisson@20000x16 b8/500us r1");
/// // The batching axis overrides the base configuration's window.
/// assert_eq!(scenarios[1].config.batching, BatchingPolicy::new(8, 500));
/// assert_eq!(scenarios[1].config.routing, RoutePolicy::LeastLoaded);
/// ```
#[derive(Debug, Clone)]
pub struct ServeGrid {
    workloads: Vec<Workload>,
    traffic: Vec<TraceSpec>,
    batching: Vec<BatchingPolicy>,
    replicas: Vec<usize>,
    config: ServeConfig,
    payloads: PayloadSpec,
}

impl Default for ServeGrid {
    fn default() -> Self {
        let config = ServeConfig::default();
        ServeGrid {
            workloads: Vec::new(),
            traffic: vec![TraceSpec::poisson(2_000.0, 64, 0)],
            batching: vec![config.batching],
            replicas: vec![config.replicas],
            config,
            payloads: PayloadSpec::Seeded { base_seed: 0 },
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

    /// Sets the base configuration of every scenario (routing, queue
    /// capacity, SLO). The batching and replica axes override its
    /// `batching` and `replicas` fields.
    #[must_use]
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the payload source applied to every scenario.
    #[must_use]
    pub fn payloads(mut self, payloads: PayloadSpec) -> Self {
        self.payloads = payloads;
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
                                ..self.config
                            },
                            trace,
                            payloads: self.payloads,
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

    /// Runs one scenario on the default bit-level functional backend:
    /// generates its trace and payloads, then simulates on the virtual
    /// clock. The full [`SimOutcome`] (batch boundaries, per-request logits)
    /// is returned — [`run`](Self::run) keeps only the reports.
    ///
    /// # Errors
    ///
    /// Propagates trace/payload generation and backend errors.
    pub fn run_scenario(&self, scenario: &ServeScenario) -> Result<SimOutcome> {
        let trace = scenario.trace.generate()?;
        let payloads = scenario.payloads.materialize(
            &scenario.workload.model,
            CompilerOptions::default().act_bits,
            trace.len(),
        )?;
        let executor = BackendExecutor::new(
            Arc::new(FunctionalBackend::default()),
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
