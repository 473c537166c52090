//! The unified inference-backend abstraction.
//!
//! Every way of executing a model — the RTM-AP full stack in its `unroll` and
//! `unroll+CSE` configurations, the DNN+NeuroSim-style crossbar and the
//! DeepCAM-style baseline — implements [`InferenceBackend`]: *given a model
//! graph, produce a [`BackendReport`]*. Backends are keyed by [`BackendId`],
//! an interned string newtype, so downstream code can register arbitrary
//! comparison points (different geometries, sparsity settings, future
//! accelerator models) without touching this crate; [`BackendKind`] survives
//! only as the set of well-known identifiers the bundled pipeline registers.
//!
//! Sweeps evaluate backends through the [`experiment`](crate::experiment)
//! module: a [`BackendPlan`](crate::experiment::BackendPlan) builds a backend
//! per scenario, and [`InferenceBackend::evaluate_cached`] lets backends that
//! compile the model share an [`apc::CompileCache`] across scenarios.
//!
//! # Example
//!
//! ```
//! use camdnn::{BackendKind, BackendReport, InferenceBackend};
//! use accel::{ArchConfig, NetworkSimulator};
//! use apc::CompilerOptions;
//! use tnn::model::vgg9;
//!
//! let backend: Box<dyn InferenceBackend> =
//!     Box::new(NetworkSimulator::new(ArchConfig::default(), CompilerOptions::default()));
//! let report = backend.evaluate(&vgg9(0.9, 1)).expect("evaluate");
//! assert_eq!(backend.name(), "rtm-ap[4b,unroll+cse]");
//! assert_eq!(BackendKind::RtmAp.id().as_str(), "rtm-ap");
//! assert!(matches!(report, BackendReport::RtmAp(_)));
//! assert!(report.energy_uj() > 0.0);
//! ```

use crate::functional::{BatchReport, FunctionalReport};
use accel::{NetworkReport, NetworkSimulator};
use apc::{CompileCache, LayerCompiler};
use baseline::{CrossbarModel, CrossbarReport, DeepCamModel, DeepCamReport};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;
use tnn::model::ModelGraph;

/// The global [`BackendId`] intern table: every distinct identifier string is
/// leaked exactly once, so ids are `Copy` and comparisons touch a `&'static
/// str`.
static INTERNED_IDS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// An interned backend identifier — the key of a backend plan and of a result
/// row in a sweep.
///
/// `BackendId` is an *open* key space: any crate can mint new identifiers with
/// [`BackendId::new`] (or `From<&str>`), so registering a custom backend does
/// not require extending an enum in this crate. The well-known backends of the
/// bundled pipeline keep their [`BackendKind`] names and convert via
/// `From<BackendKind>`.
///
/// ```
/// use camdnn::{BackendId, BackendKind};
///
/// let custom = BackendId::new("my-accelerator[v2]");
/// assert_eq!(custom.as_str(), "my-accelerator[v2]");
/// assert_eq!(custom, BackendId::new("my-accelerator[v2]"));
/// assert_ne!(custom, BackendId::from(BackendKind::RtmAp));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(&'static str);

impl BackendId {
    /// Returns the id for `name`, interning the string on first use.
    pub fn new(name: &str) -> Self {
        let mut table = INTERNED_IDS.lock().expect("backend id table poisoned");
        if let Some(existing) = table.iter().find(|s| **s == name) {
            return BackendId(existing);
        }
        let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
        table.push(leaked);
        BackendId(leaked)
    }

    /// The identifier string.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&str> for BackendId {
    fn from(name: &str) -> Self {
        BackendId::new(name)
    }
}

impl From<BackendKind> for BackendId {
    fn from(kind: BackendKind) -> Self {
        kind.id()
    }
}

impl Serialize for BackendId {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.0.to_string())
    }
}

impl Deserialize for BackendId {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => Ok(BackendId::new(s)),
            _ => Err(serde::Error::msg("expected a backend id string")),
        }
    }
}

/// The well-known backends of the bundled evaluation pipeline.
///
/// Since sweeps are keyed by [`BackendId`], this enum is no longer the
/// extension point — it survives as the canonical set of identifiers of the
/// standard [`BackendPlan`](crate::experiment::BackendPlan)s, converting via
/// `From<BackendKind> for BackendId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BackendKind {
    /// The RTM-AP full stack with all compiler optimisations (`unroll+CSE`).
    RtmAp,
    /// The RTM-AP full stack without CSE (the paper's `unroll` configuration).
    RtmApUnroll,
    /// The DNN+NeuroSim-style RRAM crossbar baseline.
    Crossbar,
    /// The DeepCAM-style fully CAM-based baseline.
    DeepCam,
    /// Bit-level execution of the compiled programs on the word-parallel
    /// [`ap::ApEngine`] (see [`FunctionalBackend`](crate::functional::FunctionalBackend)).
    Functional,
}

impl BackendKind {
    /// The canonical interned identifier of this well-known backend.
    pub fn id(self) -> BackendId {
        BackendId::new(match self {
            BackendKind::RtmAp => "rtm-ap",
            BackendKind::RtmApUnroll => "rtm-ap-unroll",
            BackendKind::Crossbar => "crossbar",
            BackendKind::DeepCam => "deepcam",
            BackendKind::Functional => "functional",
        })
    }
}

/// The normalized result of evaluating one backend on one model.
///
/// Each variant keeps the backend's full native report; the accessor methods
/// expose the metrics every backend shares (energy, latency, array count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum BackendReport {
    /// Result of an RTM-AP simulation (either compiler configuration).
    RtmAp(NetworkReport),
    /// Result of the crossbar baseline.
    Crossbar(CrossbarReport),
    /// Result of the DeepCAM baseline.
    DeepCam(DeepCamReport),
    /// Result of a bit-level functional execution on the AP engine.
    Functional(FunctionalReport),
    /// Result of a batched bit-level execution: B samples packed into shared
    /// bit-plane arrays, with per-sample attribution and aggregate
    /// throughput (see [`BatchReport`]).
    FunctionalBatch(BatchReport),
}

impl BackendReport {
    /// Total energy of one inference, in microjoules.
    pub fn energy_uj(&self) -> f64 {
        match self {
            BackendReport::RtmAp(r) => r.energy_uj(),
            BackendReport::Crossbar(r) => r.energy_uj(),
            BackendReport::DeepCam(r) => r.energy_uj,
            BackendReport::Functional(r) => r.energy_uj,
            BackendReport::FunctionalBatch(r) => r.energy_uj,
        }
    }

    /// Total latency of one inference, in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        match self {
            BackendReport::RtmAp(r) => r.latency_ms(),
            BackendReport::Crossbar(r) => r.latency_ms(),
            BackendReport::DeepCam(r) => r.latency_ms,
            BackendReport::Functional(r) => r.latency_ms,
            BackendReport::FunctionalBatch(r) => r.latency_ms,
        }
    }

    /// Number of memory arrays the backend occupies.
    pub fn arrays(&self) -> usize {
        match self {
            BackendReport::RtmAp(r) => r.arrays(),
            BackendReport::Crossbar(r) => r.arrays,
            BackendReport::DeepCam(r) => r.arrays,
            BackendReport::Functional(r) => r.arrays,
            BackendReport::FunctionalBatch(r) => r.arrays,
        }
    }

    /// The evaluated network's name.
    pub fn network(&self) -> &str {
        match self {
            BackendReport::RtmAp(r) => &r.name,
            BackendReport::Crossbar(r) => &r.name,
            BackendReport::DeepCam(r) => &r.name,
            BackendReport::Functional(r) => &r.name,
            BackendReport::FunctionalBatch(r) => &r.name,
        }
    }

    /// Borrows the RTM-AP report, if this is one.
    pub fn as_rtm_ap(&self) -> Option<&NetworkReport> {
        match self {
            BackendReport::RtmAp(r) => Some(r),
            _ => None,
        }
    }

    /// Borrows the crossbar report, if this is one.
    pub fn as_crossbar(&self) -> Option<&CrossbarReport> {
        match self {
            BackendReport::Crossbar(r) => Some(r),
            _ => None,
        }
    }

    /// Borrows the DeepCAM report, if this is one.
    pub fn as_deepcam(&self) -> Option<&DeepCamReport> {
        match self {
            BackendReport::DeepCam(r) => Some(r),
            _ => None,
        }
    }

    /// Borrows the functional-execution report, if this is one.
    pub fn as_functional(&self) -> Option<&FunctionalReport> {
        match self {
            BackendReport::Functional(r) => Some(r),
            _ => None,
        }
    }

    /// Borrows the batched functional-execution report, if this is one.
    pub fn as_functional_batch(&self) -> Option<&BatchReport> {
        match self {
            BackendReport::FunctionalBatch(r) => Some(r),
            _ => None,
        }
    }

    /// Borrows the partition-quality report of a functional execution
    /// (single-sample or batched), if this report carries one — how the
    /// weighted layers spread over the tile grid and what the inter-tile
    /// movement cost (see [`crate::functional::PartitionQuality`]).
    pub fn partition_quality(&self) -> Option<&crate::functional::PartitionQuality> {
        match self {
            BackendReport::Functional(r) => r.partition.as_ref(),
            BackendReport::FunctionalBatch(r) => r.partition.as_ref(),
            _ => None,
        }
    }

    /// Extracts the RTM-AP report, if this is one.
    pub fn into_rtm_ap(self) -> Option<NetworkReport> {
        match self {
            BackendReport::RtmAp(r) => Some(r),
            _ => None,
        }
    }

    /// Extracts the crossbar report, if this is one.
    pub fn into_crossbar(self) -> Option<CrossbarReport> {
        match self {
            BackendReport::Crossbar(r) => Some(r),
            _ => None,
        }
    }

    /// Extracts the DeepCAM report, if this is one.
    pub fn into_deepcam(self) -> Option<DeepCamReport> {
        match self {
            BackendReport::DeepCam(r) => Some(r),
            _ => None,
        }
    }

    /// Extracts the functional-execution report, if this is one.
    pub fn into_functional(self) -> Option<FunctionalReport> {
        match self {
            BackendReport::Functional(r) => Some(r),
            _ => None,
        }
    }

    /// Extracts the batched functional-execution report, if this is one.
    pub fn into_functional_batch(self) -> Option<BatchReport> {
        match self {
            BackendReport::FunctionalBatch(r) => Some(r),
            _ => None,
        }
    }
}

/// The modeled cost of one weighted layer, as profiled by
/// [`FunctionalBackend::profile`](crate::functional::FunctionalBackend::profile).
///
/// This is the raw material of pipeline-stage planning
/// ([`apc::plan_stages`]): a fleet simulator cuts the layer sequence into
/// shards by these latencies and prices each shard by these energies and
/// footprints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// The layer's name in the model graph.
    pub name: String,
    /// The layer's node index in the model graph.
    pub node_id: usize,
    /// Modeled single-sample latency of the layer, in nanoseconds (busiest
    /// tile's serial share plus inter-tile transfer time).
    pub latency_ns: f64,
    /// Modeled single-sample energy of the layer, in microjoules (CAM
    /// operations plus routing).
    pub energy_uj: f64,
    /// Tiles the layer's partition plan occupies.
    pub tiles_used: usize,
    /// Partition units (mapped sub-arrays) of the layer.
    pub units: usize,
    /// Activation traffic the layer moves between tiles, in bits.
    pub traffic_bits: u64,
}

/// Per-layer cost profile of one model on one backend configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// The profiled model's name.
    pub model: String,
    /// One entry per weighted layer, in execution order.
    pub layers: Vec<LayerCost>,
}

impl ModelProfile {
    /// Total modeled single-sample latency: the sum of the layer latencies,
    /// in nanoseconds.
    pub fn total_latency_ns(&self) -> f64 {
        self.layers.iter().map(|l| l.latency_ns).sum()
    }

    /// Total modeled single-sample energy, in microjoules.
    pub fn total_energy_uj(&self) -> f64 {
        self.layers.iter().map(|l| l.energy_uj).sum()
    }
}

/// A way of executing (or analytically modelling) DNN inference.
///
/// Implementations must be thread-safe: a sweep evaluates backends as
/// parallel jobs.
pub trait InferenceBackend: Send + Sync {
    /// A short human-readable identifier (configuration included).
    fn name(&self) -> String;

    /// Evaluates `model` and produces the backend's report.
    ///
    /// # Errors
    ///
    /// Backends that compile the model propagate compilation errors (for
    /// example a layer that does not fit the configured CAM geometry);
    /// closed-form baselines never fail.
    fn evaluate(&self, model: &ModelGraph) -> apc::Result<BackendReport>;

    /// Evaluates `model`, reusing previously compiled layers from `cache`
    /// where possible.
    ///
    /// The default forwards to [`evaluate`](Self::evaluate) — correct for
    /// backends that do not compile anything. Backends with a compilation
    /// step (the RTM-AP simulator) override this to memoise per-layer
    /// compilation across the scenarios of a sweep; the result must be
    /// byte-identical to `evaluate`.
    ///
    /// # Errors
    ///
    /// Same as [`evaluate`](Self::evaluate).
    fn evaluate_cached(
        &self,
        model: &ModelGraph,
        cache: &CompileCache,
    ) -> apc::Result<BackendReport> {
        let _ = cache;
        self.evaluate(model)
    }

    /// Evaluates a batch of `batch_size` independent samples.
    ///
    /// The default forwards to [`evaluate_cached`](Self::evaluate_cached):
    /// the closed-form baselines and the analytic RTM-AP simulator price one
    /// inference independently of the batch dimension, so their reports are
    /// the per-sample cost at every batch size. Backends that really execute
    /// a batch (the [`FunctionalBackend`](crate::functional::FunctionalBackend))
    /// override this to pack the samples and report amortized throughput;
    /// their per-sample outputs must be value-identical to `batch_size`
    /// single-sample evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`apc::ApcError::InvalidArgument`] for an empty batch, and
    /// otherwise the same errors as [`evaluate_cached`](Self::evaluate_cached).
    fn evaluate_batch_cached(
        &self,
        model: &ModelGraph,
        batch_size: usize,
        cache: &CompileCache,
    ) -> apc::Result<BackendReport> {
        if batch_size == 0 {
            return Err(apc::ApcError::InvalidArgument {
                reason: "batched evaluation needs at least one sample".to_string(),
            });
        }
        self.evaluate_cached(model, cache)
    }
}

impl InferenceBackend for NetworkSimulator {
    fn name(&self) -> String {
        let options = self.compiler_options();
        format!(
            "rtm-ap[{}b,{}]",
            options.act_bits,
            if options.enable_cse {
                "unroll+cse"
            } else {
                "unroll"
            }
        )
    }

    fn evaluate(&self, model: &ModelGraph) -> apc::Result<BackendReport> {
        Ok(BackendReport::RtmAp(self.simulate(model)?))
    }

    fn evaluate_cached(
        &self,
        model: &ModelGraph,
        cache: &CompileCache,
    ) -> apc::Result<BackendReport> {
        let compiler = LayerCompiler::new(*self.compiler_options());
        let compiled = cache.compile_model(&compiler, model)?;
        Ok(BackendReport::RtmAp(
            self.simulate_precompiled(model, &compiled),
        ))
    }
}

impl InferenceBackend for CrossbarModel {
    fn name(&self) -> String {
        format!("crossbar[{}b]", self.act_bits())
    }

    fn evaluate(&self, model: &ModelGraph) -> apc::Result<BackendReport> {
        Ok(BackendReport::Crossbar(CrossbarModel::evaluate(
            self,
            model,
            self.act_bits(),
        )))
    }
}

impl InferenceBackend for DeepCamModel {
    fn name(&self) -> String {
        format!("deepcam[h{}]", self.hash_length)
    }

    fn evaluate(&self, model: &ModelGraph) -> apc::Result<BackendReport> {
        Ok(BackendReport::DeepCam(DeepCamModel::evaluate(self, model)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::ArchConfig;
    use apc::CompilerOptions;
    use tnn::model::{micro_cnn, vgg9};

    #[test]
    fn trait_dispatch_matches_direct_calls() {
        let model = vgg9(0.9, 3);
        let simulator = NetworkSimulator::new(ArchConfig::default(), CompilerOptions::default());
        let direct = simulator.simulate(&model).expect("simulate");
        let via_trait = InferenceBackend::evaluate(&simulator, &model)
            .expect("evaluate")
            .into_rtm_ap()
            .expect("rtm-ap report");
        assert_eq!(direct, via_trait);
    }

    #[test]
    fn cached_dispatch_matches_uncached_bit_for_bit() {
        let model = vgg9(0.9, 3);
        let simulator = NetworkSimulator::new(ArchConfig::default(), CompilerOptions::default());
        let cache = CompileCache::new();
        let cached = simulator
            .evaluate_cached(&model, &cache)
            .expect("evaluate cached");
        let direct = simulator.evaluate(&model).expect("evaluate");
        assert_eq!(cached, direct);
        assert!(cache.stats().misses > 0);
    }

    #[test]
    fn default_batch_evaluation_rejects_an_empty_batch() {
        let model = micro_cnn("micro-empty", 4, 0.8, 1);
        let error = DeepCamModel::default()
            .evaluate_batch_cached(&model, 0, &CompileCache::new())
            .expect_err("empty batch");
        assert!(
            matches!(error, apc::ApcError::InvalidArgument { .. }),
            "{error:?}"
        );
        assert!(error.to_string().contains("at least one sample"), "{error}");
    }

    #[test]
    fn analytic_batches_report_the_single_sample_cost() {
        let model = micro_cnn("micro-batch", 8, 0.8, 2);
        let backends: [Box<dyn InferenceBackend>; 3] = [
            Box::new(NetworkSimulator::new(
                ArchConfig::default(),
                CompilerOptions::default(),
            )),
            Box::new(CrossbarModel::default().with_act_bits(4)),
            Box::new(DeepCamModel::default()),
        ];
        let cache = CompileCache::new();
        for backend in &backends {
            let single = backend.evaluate_cached(&model, &cache).expect("single");
            let batch = backend
                .evaluate_batch_cached(&model, 3, &cache)
                .expect("batch");
            assert_eq!(batch, single, "{}", backend.name());
        }
    }

    #[test]
    fn backend_names_describe_the_configuration() {
        let backends: [Box<dyn InferenceBackend>; 3] = [
            Box::new(NetworkSimulator::new(
                ArchConfig::default(),
                CompilerOptions::default(),
            )),
            Box::new(CrossbarModel::default().with_act_bits(4)),
            Box::new(DeepCamModel::default()),
        ];
        let names: Vec<String> = backends.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec!["rtm-ap[4b,unroll+cse]", "crossbar[4b]", "deepcam[h16]"]
        );
    }

    #[test]
    fn interned_ids_are_stable_and_open() {
        let a = BackendId::new("sweep-point[a]");
        let b = BackendId::new("sweep-point[a]");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "sweep-point[a]");
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "ids are interned");
        assert_eq!(format!("{a}"), "sweep-point[a]");
        assert_ne!(a, BackendId::new("sweep-point[b]"));
        // Well-known kinds map onto canonical ids.
        assert_eq!(
            BackendId::from(BackendKind::RtmApUnroll).as_str(),
            "rtm-ap-unroll"
        );
    }
}
