//! Declarative experiment API: scenario sweeps over open backend plans with
//! shared compilation and structured results.
//!
//! The paper's evaluation is a *grid* — networks × sparsities × activation
//! bits × CAM geometries × backends (Table II, Fig. 4, the ablations). This
//! module lets callers declare that grid once and execute it as one flat
//! parallel job pool:
//!
//! * [`ScenarioSpec`] — one evaluation point: a workload, an activation
//!   precision, a CAM geometry, an accelerator configuration and the backends
//!   to run ([`BackendPlan`]s, keyed by open [`BackendId`]s).
//! * [`SweepGrid`] — a builder that does the cartesian expansion
//!   (`.workloads(…).act_bits([4, 8]).geometries(…).batch_sizes([1, 64])`).
//! * [`Session`] — executes a grid by flattening *scenario × backend* into a
//!   single rayon job pool (no nested per-scenario fan-outs) and memoising
//!   layer compilation in a shared [`CompileCache`], so scenarios that share
//!   `(layer, compiler options)` pairs compile each layer exactly once.
//! * [`ResultSet`] — deterministic, registration-ordered records
//!   ([`ScenarioRecord`]) with JSON-lines serialization
//!   ([`ResultSet::to_json`]), table rendering, and a
//!   [`PipelineReport`] compatibility view.
//!
//! The result set and the runner are shared one layer up the stack: the
//! serving and fleet sweeps of `camdnn-serve` collect their own
//! [`SweepRecord`] types into the same [`ResultSet`] (so all three sweep
//! kinds share one JSON-lines format and round-trip proof) and run through
//! the same [`run_ordered`] pool.
//!
//! # Example: a three-axis sweep
//!
//! ```
//! use apc::layout::CamGeometry;
//! use camdnn::experiment::{Session, SweepGrid};
//! use tnn::model::micro_cnn;
//!
//! let grid = SweepGrid::new()
//!     .workloads([micro_cnn("micro-a", 8, 0.8, 1), micro_cnn("micro-b", 4, 0.9, 2)])
//!     .act_bits([4, 8])
//!     .geometries([
//!         CamGeometry { rows: 128, cols: 256, domains: 64 },
//!         CamGeometry::default(),
//!     ]);
//! assert_eq!(grid.len(), 2 * 2 * 2);
//!
//! let session = Session::new();
//! let results = session.run(&grid).expect("sweep");
//! assert_eq!(results.records.len(), grid.len() * 4); // scenarios × standard backends
//! assert!(results.to_json().lines().count() == results.records.len());
//! println!("{}", results.to_table());
//! ```
//!
//! A single configuration is a one-point grid: run it through a [`Session`]
//! and read the Table II view of a scenario out of [`ResultSet::pipeline`].

use crate::backend::{BackendId, BackendKind, BackendReport, InferenceBackend};
use crate::functional::PartitionQuality;
use crate::pipeline::PipelineReport;
use accel::{ArchConfig, NetworkSimulator};
use apc::layout::CamGeometry;
use apc::{CacheStats, CompileCache, CompilerOptions, TileGrid};
use baseline::{CrossbarModel, DeepCamModel};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;
use tnn::model::ModelGraph;

/// A labelled model: one point of the workload axis.
///
/// The label distinguishes grid rows that evaluate the same architecture at
/// different sparsities (for example `"vgg9 .85"` and `"vgg9 .90"`); plain
/// [`ModelGraph`]s convert with the model name as the label. The model is
/// held behind an [`Arc`] so grid expansion shares one copy of the weights
/// across every scenario of the bits/geometry/arch axes.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display label of this workload (unique within one grid).
    pub label: String,
    /// The model to evaluate (shared across the scenarios of a grid).
    pub model: Arc<ModelGraph>,
}

impl From<ModelGraph> for Workload {
    fn from(model: ModelGraph) -> Self {
        Workload {
            label: model.name().to_string(),
            model: Arc::new(model),
        }
    }
}

impl From<(&str, ModelGraph)> for Workload {
    fn from((label, model): (&str, ModelGraph)) -> Self {
        Workload {
            label: label.to_string(),
            model: Arc::new(model),
        }
    }
}

impl From<(String, ModelGraph)> for Workload {
    fn from((label, model): (String, ModelGraph)) -> Self {
        Workload {
            label,
            model: Arc::new(model),
        }
    }
}

type BackendBuilder = dyn Fn(&ScenarioSpec) -> Box<dyn InferenceBackend> + Send + Sync;

/// A backend slot of a scenario: an open [`BackendId`] plus a factory that
/// materialises the backend for a concrete scenario (so one plan adapts to
/// every activation precision / geometry / architecture of the grid).
///
/// The four well-known plans of the bundled pipeline are provided as
/// constructors; arbitrary backends plug in through [`BackendPlan::custom`]
/// without touching this crate.
#[derive(Clone)]
pub struct BackendPlan {
    id: BackendId,
    build: Arc<BackendBuilder>,
}

impl std::fmt::Debug for BackendPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("BackendPlan").field(&self.id).finish()
    }
}

impl BackendPlan {
    /// A plan with an arbitrary id and factory.
    pub fn custom(
        id: impl Into<BackendId>,
        build: impl Fn(&ScenarioSpec) -> Box<dyn InferenceBackend> + Send + Sync + 'static,
    ) -> Self {
        BackendPlan {
            id: id.into(),
            build: Arc::new(build),
        }
    }

    /// The RTM-AP full stack with all compiler optimisations (`unroll+CSE`).
    pub fn rtm_ap() -> Self {
        BackendPlan::custom(BackendKind::RtmAp, |spec| {
            let options = CompilerOptions {
                enable_cse: true,
                ..spec.compiler_options()
            };
            Box::new(NetworkSimulator::new(spec.arch, options))
        })
    }

    /// The RTM-AP full stack without CSE (the paper's `unroll` configuration).
    pub fn rtm_ap_unroll() -> Self {
        BackendPlan::custom(BackendKind::RtmApUnroll, |spec| {
            let options = CompilerOptions {
                enable_cse: false,
                ..spec.compiler_options()
            };
            Box::new(NetworkSimulator::new(spec.arch, options))
        })
    }

    /// The DNN+NeuroSim-style RRAM crossbar baseline.
    pub fn crossbar() -> Self {
        BackendPlan::custom(BackendKind::Crossbar, |spec| {
            Box::new(CrossbarModel::default().with_act_bits(spec.act_bits))
        })
    }

    /// The DeepCAM-style fully CAM-based baseline.
    pub fn deepcam() -> Self {
        BackendPlan::custom(BackendKind::DeepCam, |_| Box::new(DeepCamModel::default()))
    }

    /// Bit-level execution of the compiled programs on the word-parallel AP
    /// engine (see [`FunctionalBackend`](crate::functional::FunctionalBackend)).
    /// Prefer it over the cost-model simulator when measured-by-construction
    /// counters or end-to-end bit-exactness evidence are needed; it executes
    /// every output position, so keep the workloads small.
    pub fn functional() -> Self {
        BackendPlan::custom(BackendKind::Functional, |spec| {
            Box::new(
                crate::functional::FunctionalBackend::new(spec.arch, spec.compiler_options())
                    .with_tile_grid(spec.tile_grid),
            )
        })
    }

    /// The four comparison points of Table II, in the order
    /// [`ResultSet::pipeline`] reads them.
    pub fn standard() -> Vec<BackendPlan> {
        vec![
            BackendPlan::rtm_ap(),
            BackendPlan::rtm_ap_unroll(),
            BackendPlan::crossbar(),
            BackendPlan::deepcam(),
        ]
    }

    /// The id this plan registers under.
    pub fn id(&self) -> BackendId {
        self.id
    }

    /// Materialises the backend for `spec`.
    pub fn build(&self, spec: &ScenarioSpec) -> Box<dyn InferenceBackend> {
        (self.build)(spec)
    }
}

/// One evaluation point of a sweep: workload × activation precision × CAM
/// geometry × accelerator configuration, plus the backends to run on it.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Display label (unique within one grid; used as the `scenario` key of
    /// the result records).
    pub label: String,
    /// The model under evaluation.
    pub workload: Workload,
    /// Activation precision in bits.
    pub act_bits: u8,
    /// Accelerator configuration; `arch.geometry` is the scenario's target
    /// CAM geometry.
    pub arch: ArchConfig,
    /// Number of samples evaluated together (1 = classic single-sample
    /// evaluation; larger batches go through
    /// [`InferenceBackend::evaluate_batch_cached`]).
    pub batch_size: usize,
    /// Tile grid the functional backend partitions weighted layers across
    /// (1×1 = unpartitioned; analytic backends ignore it).
    pub tile_grid: TileGrid,
    /// The backends evaluated on this scenario, in registration order.
    pub backends: Vec<BackendPlan>,
    /// Template for the remaining compiler knobs (CSE temp budget, retained
    /// programs, …); `act_bits` and `arch.geometry` above override its
    /// corresponding fields, and the CSE flag is set per backend plan.
    pub compiler_template: CompilerOptions,
}

impl ScenarioSpec {
    /// A one-workload scenario with the default precision, geometry,
    /// architecture and the four standard backends.
    pub fn new(workload: impl Into<Workload>) -> Self {
        let workload = workload.into();
        let template = CompilerOptions::default();
        ScenarioSpec {
            label: workload.label.clone(),
            workload,
            act_bits: template.act_bits,
            arch: ArchConfig::default(),
            batch_size: 1,
            tile_grid: TileGrid::default(),
            backends: BackendPlan::standard(),
            compiler_template: template,
        }
    }

    /// The effective compiler options of this scenario: the template with the
    /// scenario's activation precision and geometry applied.
    pub fn compiler_options(&self) -> CompilerOptions {
        CompilerOptions {
            act_bits: self.act_bits,
            geometry: self.arch.geometry,
            ..self.compiler_template
        }
    }
}

/// Declarative cartesian sweep: axes of workloads, activation precisions, CAM
/// geometries and accelerator configurations, expanded into
/// [`ScenarioSpec`]s in a fixed order (workloads outermost, then activation
/// bits, then geometries, then architectures).
///
/// Unset axes default to a single point: 4-bit activations, the default
/// geometry, the default architecture and the four standard backends. The
/// architecture axis combines with the geometry axis via
/// [`ArchConfig::with_geometry`], so the two stay consistent.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    workloads: Vec<Workload>,
    act_bits: Vec<u8>,
    geometries: Vec<CamGeometry>,
    archs: Vec<ArchConfig>,
    batch_sizes: Vec<usize>,
    tile_grids: Vec<TileGrid>,
    backends: Vec<BackendPlan>,
    compiler_template: CompilerOptions,
}

impl Default for SweepGrid {
    fn default() -> Self {
        let template = CompilerOptions::default();
        SweepGrid {
            workloads: Vec::new(),
            act_bits: vec![template.act_bits],
            geometries: vec![template.geometry],
            archs: vec![ArchConfig::default()],
            batch_sizes: vec![1],
            tile_grids: vec![TileGrid::default()],
            backends: BackendPlan::standard(),
            compiler_template: template,
        }
    }
}

impl SweepGrid {
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

    /// Replaces the activation-precision axis.
    #[must_use]
    pub fn act_bits(mut self, bits: impl IntoIterator<Item = u8>) -> Self {
        self.act_bits = bits.into_iter().collect();
        self
    }

    /// Replaces the CAM-geometry axis.
    #[must_use]
    pub fn geometries(mut self, geometries: impl IntoIterator<Item = CamGeometry>) -> Self {
        self.geometries = geometries.into_iter().collect();
        self
    }

    /// Replaces the accelerator-configuration axis. Each configuration is
    /// re-targeted to every geometry of the geometry axis.
    #[must_use]
    pub fn archs(mut self, archs: impl IntoIterator<Item = ArchConfig>) -> Self {
        self.archs = archs.into_iter().collect();
        self
    }

    /// Replaces the batch-size axis. Scenarios with `batch_size > 1` evaluate
    /// their backends through
    /// [`InferenceBackend::evaluate_batch_cached`], so grids expand over
    /// B ∈ {1, 8, 64, …} to trace a throughput curve; analytic backends are
    /// batch-size-independent and repeat their per-sample record.
    #[must_use]
    pub fn batch_sizes(mut self, batch_sizes: impl IntoIterator<Item = usize>) -> Self {
        self.batch_sizes = batch_sizes.into_iter().collect();
        self
    }

    /// Replaces the tile-grid axis. Scenarios with a grid larger than 1×1
    /// partition every weighted layer across the grid on the functional
    /// backend (see [`apc::partition`]), tracing throughput scaling with
    /// tile count; analytic backends ignore the axis.
    #[must_use]
    pub fn tile_grids(mut self, grids: impl IntoIterator<Item = TileGrid>) -> Self {
        self.tile_grids = grids.into_iter().collect();
        self
    }

    /// Replaces the backends evaluated on every scenario.
    #[must_use]
    pub fn backends(mut self, backends: impl IntoIterator<Item = BackendPlan>) -> Self {
        self.backends = backends.into_iter().collect();
        self
    }

    /// Replaces the compiler-option template (CSE temp budget, retained
    /// programs, …) applied to every scenario.
    #[must_use]
    pub fn compiler_template(mut self, template: CompilerOptions) -> Self {
        self.compiler_template = template;
        self
    }

    /// Number of scenarios the grid expands to (the product of the axis
    /// lengths).
    pub fn len(&self) -> usize {
        self.workloads.len()
            * self.act_bits.len()
            * self.geometries.len()
            * self.archs.len()
            * self.batch_sizes.len()
            * self.tile_grids.len()
    }

    /// Whether the grid expands to no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the cartesian product into concrete scenarios.
    ///
    /// Labels are `"<workload> <bits>b <rows>x<cols>"`, extended with a
    /// ` dN` domain suffix when the geometry axis varies in its domain count,
    /// an ` archN` suffix when the architecture axis has more than one point,
    /// a ` bN` batch suffix when the batch-size axis does and a ` gRxC` tile
    /// grid suffix when the tile-grid axis does — unique as long as the
    /// workload labels and axis points are.
    pub fn scenarios(&self) -> Vec<ScenarioSpec> {
        let label_domains = self
            .geometries
            .iter()
            .any(|g| g.domains != self.geometries[0].domains);
        let mut scenarios = Vec::with_capacity(self.len());
        for workload in &self.workloads {
            for &act_bits in &self.act_bits {
                for &geometry in &self.geometries {
                    for (arch_index, arch) in self.archs.iter().enumerate() {
                        for &batch_size in &self.batch_sizes {
                            for &tile_grid in &self.tile_grids {
                                let mut label = format!(
                                    "{} {}b {}x{}",
                                    workload.label, act_bits, geometry.rows, geometry.cols
                                );
                                if label_domains {
                                    label.push_str(&format!(" d{}", geometry.domains));
                                }
                                if self.archs.len() > 1 {
                                    label.push_str(&format!(" arch{arch_index}"));
                                }
                                if self.batch_sizes.len() > 1 {
                                    label.push_str(&format!(" b{batch_size}"));
                                }
                                if self.tile_grids.len() > 1 {
                                    label.push_str(&format!(" g{}", tile_grid.label()));
                                }
                                scenarios.push(ScenarioSpec {
                                    label,
                                    workload: workload.clone(),
                                    act_bits,
                                    arch: arch.with_geometry(geometry),
                                    batch_size,
                                    tile_grid,
                                    backends: self.backends.clone(),
                                    compiler_template: self.compiler_template,
                                });
                            }
                        }
                    }
                }
            }
        }
        scenarios
    }
}

/// A row of a [`ResultSet`]: one serializable sweep outcome, keyed by the
/// label of the scenario it belongs to. Model sweeps ([`ScenarioRecord`]),
/// serving sweeps and fleet sweeps (`camdnn-serve`) each supply one.
pub trait SweepRecord: Serialize + Deserialize + PartialEq + Sized {
    /// The label of the scenario this record belongs to.
    fn scenario(&self) -> &str;

    /// Renders `records` as a fixed-width table, header line first.
    fn to_table(records: &[Self]) -> String;
}

/// One row of a [`ResultSet`]: the outcome of one backend on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRecord {
    /// Scenario label (see [`SweepGrid::scenarios`]).
    pub scenario: String,
    /// Workload label.
    pub workload: String,
    /// Model name (`ModelGraph::name`).
    pub network: String,
    /// Overall weight sparsity of the model.
    pub sparsity: f64,
    /// Activation precision of the scenario, in bits.
    pub act_bits: u8,
    /// CAM geometry of the scenario.
    pub geometry: CamGeometry,
    /// Registry id of the backend.
    pub backend: BackendId,
    /// Configured backend instance name (`InferenceBackend::name`).
    pub backend_name: String,
    /// Total energy of one inference (or one batch, for batched reports), in
    /// microjoules.
    pub energy_uj: f64,
    /// Total latency of one inference (or one batch), in milliseconds.
    pub latency_ms: f64,
    /// Number of memory arrays occupied.
    pub arrays: usize,
    /// Number of samples evaluated together in this scenario.
    pub batch_size: usize,
    /// Tile grid of the scenario (1×1 unless the grid swept tile grids).
    pub tile_grid: TileGrid,
    /// Modeled throughput in samples per second (for analytic backends this
    /// is the single-sample rate `1000 / latency_ms`, independent of the
    /// batch axis).
    pub samples_per_s: f64,
    /// Amortized energy per sample, in joules.
    pub joules_per_sample: f64,
    /// Partition-quality report of functional executions: tiles used,
    /// per-tile utilisation and inter-tile traffic (`None` for analytic
    /// backends, which do not partition).
    pub partition: Option<PartitionQuality>,
    /// The backend's full native report.
    pub report: BackendReport,
}

impl SweepRecord for ScenarioRecord {
    fn scenario(&self) -> &str {
        &self.scenario
    }

    fn to_table(records: &[Self]) -> String {
        let mut out = format!(
            "{:<32} {:<22} {:>5} {:>6} {:>12} {:>10} {:>7} {:>12}\n",
            "scenario", "backend", "act", "batch", "energy[uJ]", "lat[ms]", "arrays", "smp/s"
        );
        for r in records {
            out.push_str(&format!(
                "{:<32} {:<22} {:>4}b {:>6} {:>12.2} {:>10.3} {:>7} {:>12.1}\n",
                r.scenario,
                r.backend_name,
                r.act_bits,
                r.batch_size,
                r.energy_uj,
                r.latency_ms,
                r.arrays,
                r.samples_per_s
            ));
        }
        out
    }
}

/// The deterministic outcome of a sweep: records in scenario-expansion order
/// (and, for model sweeps, backend-registration order within a scenario),
/// with the JSON-lines format documented in `BENCH_schema.md`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet<R = ScenarioRecord> {
    /// The result records, in deterministic order.
    pub records: Vec<R>,
}

impl<R: SweepRecord> ResultSet<R> {
    /// Serializes the records as JSON lines (one record object per line).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        for record in &self.records {
            out.push_str(&serde_json::to_string(record).expect("record serialization cannot fail"));
            out.push('\n');
        }
        out
    }

    /// Writes the records as JSON lines to `path`, first proving the document
    /// parses back into an identical set (so a file that exists is always
    /// consumable).
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] when the round-trip check fails
    /// ([`ErrorKind::InvalidData`](std::io::ErrorKind::InvalidData)) or the
    /// file cannot be written.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let text = self.to_json();
        let lossless = Self::from_json(&text)
            .map(|parsed| &parsed == self)
            .unwrap_or(false);
        if !lossless {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "result set did not survive a JSON round-trip",
            ));
        }
        std::fs::write(path, text)
    }

    /// Parses a JSON-lines document produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Returns a serde error when a line is not a valid record.
    pub fn from_json(text: &str) -> Result<Self, serde::Error> {
        let records = text
            .lines()
            .filter(|line| !line.trim().is_empty())
            .map(serde_json::from_str)
            .collect::<Result<Vec<R>, serde::Error>>()?;
        Ok(ResultSet { records })
    }

    /// Renders the records as a fixed-width table (see
    /// [`SweepRecord::to_table`]).
    pub fn to_table(&self) -> String {
        R::to_table(&self.records)
    }

    /// The distinct scenario labels, in first-appearance order (robust to
    /// interleaved or concatenated record sets).
    pub fn scenarios(&self) -> Vec<&str> {
        let mut seen = HashSet::new();
        self.records
            .iter()
            .map(SweepRecord::scenario)
            .filter(|label| seen.insert(*label))
            .collect()
    }
}

impl ResultSet {
    /// The record of `backend` on the scenario labelled `scenario`, if any.
    pub fn get(&self, scenario: &str, backend: impl Into<BackendId>) -> Option<&ScenarioRecord> {
        let backend = backend.into();
        self.records
            .iter()
            .find(|r| r.scenario == scenario && r.backend == backend)
    }

    /// All records of one backend, in result order.
    pub fn for_backend(&self, backend: impl Into<BackendId>) -> Vec<&ScenarioRecord> {
        let backend = backend.into();
        self.records
            .iter()
            .filter(|r| r.backend == backend)
            .collect()
    }

    /// Assembles the legacy [`PipelineReport`] compatibility view of one
    /// scenario. Returns `None` unless all four standard backends
    /// ([`BackendKind`]) have a record for the scenario.
    pub fn pipeline(&self, scenario: &str) -> Option<PipelineReport> {
        let report = |kind: BackendKind| Some(self.get(scenario, kind)?.report.clone());
        Some(PipelineReport {
            rtm_ap: report(BackendKind::RtmAp)?.into_rtm_ap()?,
            rtm_ap_unroll: report(BackendKind::RtmApUnroll)?.into_rtm_ap()?,
            crossbar: report(BackendKind::Crossbar)?.into_crossbar()?,
            deepcam: report(BackendKind::DeepCam)?.into_deepcam()?,
            sparsity: self.get(scenario, BackendKind::RtmAp)?.sparsity,
        })
    }
}

/// Executes sweeps with a shared compilation memo.
///
/// A session owns one [`CompileCache`]; every grid (or scenario list) run
/// through it flattens *scenario × backend* into a single parallel job pool,
/// and all RTM-AP jobs memoise per-layer compilation in the shared cache, so
/// each distinct `(layer signature, compiler options)` pair is compiled
/// exactly once per session — across scenarios and across successive `run`
/// calls.
#[derive(Debug, Default)]
pub struct Session {
    cache: CompileCache,
}

impl Session {
    /// Creates a session with an empty compile cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The session's shared compile cache.
    pub fn cache(&self) -> &CompileCache {
        &self.cache
    }

    /// The cache's hit/miss counters (misses = distinct pairs compiled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Expands `grid` and runs it; see
    /// [`run_scenarios`](Self::run_scenarios).
    ///
    /// # Errors
    ///
    /// Returns the first error in scenario × backend order.
    pub fn run(&self, grid: &SweepGrid) -> apc::Result<ResultSet> {
        self.run_scenarios(&grid.scenarios())
    }

    /// Runs every backend of every scenario as one flat parallel job pool and
    /// collects the records in scenario × backend-registration order.
    ///
    /// # Errors
    ///
    /// Returns [`apc::ApcError::InvalidArgument`] when two scenarios share a
    /// label (the label is the lookup key of the result set, so collisions
    /// would silently shadow records). Otherwise all jobs run to completion
    /// and the error of the lowest-index failing job (in scenario × backend
    /// order) is returned, independent of wall-clock completion order.
    pub fn run_scenarios(&self, scenarios: &[ScenarioSpec]) -> apc::Result<ResultSet> {
        // Sparsity scans every weight value — compute it once per scenario,
        // not once per record.
        let sparsities: Vec<f64> = scenarios
            .iter()
            .map(|spec| spec.workload.model.overall_sparsity())
            .collect();
        let jobs: Vec<(usize, &BackendPlan)> = scenarios
            .iter()
            .enumerate()
            .flat_map(|(index, spec)| spec.backends.iter().map(move |plan| (index, plan)))
            .collect();
        let records = run_ordered(
            scenarios.iter().map(|spec| spec.label.as_str()),
            |label| apc::ApcError::InvalidArgument {
                reason: format!(
                    "duplicate scenario label `{label}` — give colliding workloads distinct labels"
                ),
            },
            &jobs,
            |&(index, plan)| {
                let spec = &scenarios[index];
                let backend = plan.build(spec);
                let model = &spec.workload.model;
                // Batch size 1 keeps the classic single-sample evaluation
                // (and its report shape) byte-identical; larger batches go
                // through the batch-aware hook.
                let report = if spec.batch_size == 1 {
                    backend.evaluate_cached(model, &self.cache)
                } else {
                    backend.evaluate_batch_cached(model, spec.batch_size, &self.cache)
                }?;
                let (samples_per_s, joules_per_sample) = match report.as_functional_batch() {
                    Some(batch) => (batch.samples_per_s, batch.joules_per_sample),
                    // Analytic reports price one inference: the sample rate
                    // is the reciprocal latency and nothing amortizes.
                    None => (1e3 / report.latency_ms(), report.energy_uj() * 1e-6),
                };
                Ok(ScenarioRecord {
                    scenario: spec.label.clone(),
                    workload: spec.workload.label.clone(),
                    network: model.name().to_string(),
                    sparsity: sparsities[index],
                    act_bits: spec.act_bits,
                    geometry: spec.arch.geometry,
                    backend: plan.id(),
                    backend_name: backend.name(),
                    energy_uj: report.energy_uj(),
                    latency_ms: report.latency_ms(),
                    arrays: report.arrays(),
                    batch_size: spec.batch_size,
                    tile_grid: spec.tile_grid,
                    samples_per_s,
                    joules_per_sample,
                    partition: report.partition_quality().cloned(),
                    report,
                })
            },
        )?;
        Ok(ResultSet { records })
    }
}

/// The one sweep runner behind [`Session`] and the serving and fleet
/// sessions of `camdnn-serve`: rejects duplicate scenario `labels` (the
/// label is the lookup key of a [`ResultSet`], so a collision would silently
/// shadow records), then runs every job as one flat parallel pool and
/// returns the outputs in job order.
///
/// # Errors
///
/// Returns `duplicate(label)` for the first repeated label, before any job
/// runs. Otherwise all jobs run to completion and the error of the
/// lowest-index failing job is returned, independent of wall-clock
/// completion order.
pub fn run_ordered<'a, J: Sync, T: Send, E: Send>(
    labels: impl IntoIterator<Item = &'a str>,
    duplicate: impl FnOnce(&str) -> E,
    jobs: &[J],
    run: impl Fn(&J) -> Result<T, E> + Sync + Send,
) -> Result<Vec<T>, E> {
    let mut seen = HashSet::new();
    for label in labels {
        if !seen.insert(label) {
            return Err(duplicate(label));
        }
    }
    let outcomes: Vec<Result<T, E>> = jobs.par_iter().map(run).collect();
    outcomes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn::model::micro_cnn;

    fn micro_grid() -> SweepGrid {
        SweepGrid::new()
            .workloads([
                micro_cnn("micro-a", 8, 0.8, 1),
                micro_cnn("micro-b", 4, 0.9, 2),
            ])
            .act_bits([4, 8])
    }

    #[test]
    fn grid_expansion_is_the_cartesian_product() {
        let grid = micro_grid().geometries([
            CamGeometry::default(),
            CamGeometry {
                rows: 128,
                cols: 256,
                domains: 64,
            },
        ]);
        assert_eq!(grid.len(), 2 * 2 * 2);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), grid.len());
        let labels: std::collections::HashSet<&str> =
            scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels.len(), scenarios.len(), "labels must be unique");
        // Workloads are the outermost axis.
        assert!(scenarios[0].label.starts_with("micro-a"));
        assert!(scenarios[4].label.starts_with("micro-b"));
    }

    #[test]
    fn session_records_are_registration_ordered() {
        let grid = micro_grid();
        let session = Session::new();
        let results = session.run(&grid).expect("sweep");
        assert_eq!(results.records.len(), 4 * 4);
        let expected = [
            BackendKind::RtmAp.id(),
            BackendKind::RtmApUnroll.id(),
            BackendKind::Crossbar.id(),
            BackendKind::DeepCam.id(),
        ];
        for (i, record) in results.records.iter().enumerate() {
            assert_eq!(record.backend, expected[i % 4]);
        }
        // Every scenario yields a complete pipeline view.
        for scenario in results.scenarios() {
            let view = results.pipeline(scenario).expect("pipeline view");
            assert!(view.rtm_ap.energy_uj() > 0.0);
        }
    }

    #[test]
    fn batch_axis_expands_labels_and_dispatches_batched_evaluation() {
        let grid = SweepGrid::new()
            .workload(micro_cnn("micro-a", 4, 0.8, 1))
            .batch_sizes([1, 3])
            .backends([BackendPlan::deepcam(), BackendPlan::functional()]);
        assert_eq!(grid.len(), 2);
        let scenarios = grid.scenarios();
        assert!(scenarios[0].label.ends_with(" b1"));
        assert!(scenarios[1].label.ends_with(" b3"));
        let session = Session::new();
        let results = session.run(&grid).expect("sweep");
        assert_eq!(results.records.len(), 4);
        // B=1 keeps the classic single-sample report; B=3 goes through the
        // batch-aware hook (batched for functional, per-sample repeat for the
        // analytic baseline).
        let b1 = results
            .get(&scenarios[0].label, BackendKind::Functional)
            .expect("b1 record");
        assert!(b1.report.as_functional().is_some());
        assert_eq!((b1.batch_size, b1.samples_per_s), (1, 1e3 / b1.latency_ms));
        let b3 = results
            .get(&scenarios[1].label, BackendKind::Functional)
            .expect("b3 record");
        let batch = b3.report.as_functional_batch().expect("batched report");
        assert_eq!((b3.batch_size, batch.batch_size), (3, 3));
        assert_eq!(b3.samples_per_s, batch.samples_per_s);
        assert_eq!(b3.joules_per_sample, batch.joules_per_sample);
        // Batching amortizes the cycle-driven latency: the batch of three is
        // far cheaper than three solo inferences.
        assert!(b3.latency_ms < 3.0 * b1.latency_ms);
        assert!(b3.samples_per_s > b1.samples_per_s);
        let deepcam = results
            .get(&scenarios[1].label, BackendKind::DeepCam)
            .expect("deepcam record");
        assert!(deepcam.report.as_deepcam().is_some());
        assert_eq!(deepcam.batch_size, 3);
        // The new record shape still round-trips as JSON lines.
        let parsed = ResultSet::from_json(&results.to_json()).expect("parse");
        assert_eq!(parsed, results);
    }

    #[test]
    fn tile_grid_axis_expands_labels_and_surfaces_partition_quality() {
        let grid = SweepGrid::new()
            .workload(micro_cnn("micro-a", 16, 0.8, 1))
            .tile_grids([TileGrid::new(1, 1), TileGrid::new(2, 2)])
            .backends([BackendPlan::deepcam(), BackendPlan::functional()]);
        assert_eq!(grid.len(), 2);
        let scenarios = grid.scenarios();
        assert!(scenarios[0].label.ends_with(" g1x1"));
        assert!(scenarios[1].label.ends_with(" g2x2"));
        let session = Session::new();
        let results = session.run(&grid).expect("sweep");
        let solo = results
            .get(&scenarios[0].label, BackendKind::Functional)
            .expect("1x1 record");
        let split = results
            .get(&scenarios[1].label, BackendKind::Functional)
            .expect("2x2 record");
        // The functional records carry the partition-quality report; only
        // the multi-tile grid moves data between tiles.
        assert_eq!(solo.tile_grid, TileGrid::new(1, 1));
        assert_eq!(split.tile_grid, TileGrid::new(2, 2));
        let solo_quality = solo.partition.as_ref().expect("quality");
        let split_quality = split.partition.as_ref().expect("quality");
        assert_eq!(solo_quality.tiles_used, 1);
        assert_eq!(solo_quality.traffic_bits, 0);
        assert!(split_quality.tiles_used > 1);
        assert!(split_quality.traffic_bits > 0);
        // Splitting the same work over more tiles shortens the critical path.
        assert!(split.latency_ms < solo.latency_ms);
        assert!(split.samples_per_s > solo.samples_per_s);
        // Analytic backends do not partition.
        let deepcam = results
            .get(&scenarios[1].label, BackendKind::DeepCam)
            .expect("deepcam record");
        assert!(deepcam.partition.is_none());
        // The extended record shape still round-trips as JSON lines.
        let parsed = ResultSet::from_json(&results.to_json()).expect("parse");
        assert_eq!(parsed, results);
    }

    #[test]
    fn run_ordered_rejects_duplicate_labels_before_any_job_runs() {
        let jobs = [0usize, 1, 2];
        let result: Result<Vec<()>, String> = run_ordered(
            ["a", "b", "a"],
            |label| format!("duplicate `{label}`"),
            &jobs,
            |_| panic!("no job may run when a label repeats"),
        );
        assert_eq!(result, Err("duplicate `a`".to_string()));
    }

    #[test]
    fn json_lines_round_trip() {
        let session = Session::new();
        let results = session
            .run(&SweepGrid::new().workload(micro_cnn("micro-a", 8, 0.8, 1)))
            .expect("run");
        let text = results.to_json();
        assert_eq!(text.lines().count(), results.records.len());
        let back = ResultSet::from_json(&text).expect("parse");
        assert_eq!(back, results);
        assert_eq!(back.to_json(), text);
        // The file writer proves the same round trip before writing.
        let path = std::env::temp_dir().join("camdnn_experiment_results_test.json");
        results.write_json(&path).expect("write");
        let written = std::fs::read_to_string(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert_eq!(written, text);
    }

    #[test]
    fn shared_cache_compiles_each_distinct_pair_once() {
        // Two architecture points at the same geometry: every RTM-AP job of
        // the second architecture reuses the layers compiled for the first.
        let arch_a = ArchConfig::default();
        let arch_b = ArchConfig {
            max_channel_groups: 4,
            ..ArchConfig::default()
        };
        let grid = SweepGrid::new()
            .workload(micro_cnn("micro-a", 8, 0.8, 1))
            .archs([arch_a, arch_b]);
        let session = Session::new();
        let results = session.run(&grid).expect("sweep");
        assert_eq!(results.records.len(), 2 * 4);
        let stats = session.cache_stats();
        let layers = 3u64; // micro_cnn weighted layers
                           // 2 scenarios × 2 RTM-AP configurations × 3 layers requested…
        assert_eq!(stats.requests(), 2 * 2 * layers);
        // …but only the first scenario's pairs are compiled.
        assert_eq!(stats.misses, 2 * layers);
        assert_eq!(stats.hits, 2 * layers);
        // The architecture difference still shows up in the results.
        let a = &results.records[0];
        let b = &results.records[4];
        assert_eq!(a.backend, b.backend);
        assert_ne!(a.scenario, b.scenario);
    }
}
