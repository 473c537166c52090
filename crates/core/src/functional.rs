//! The `functional` inference backend: bit-level execution of compiled layer
//! programs on the word-parallel [`ap::ApEngine`].
//!
//! Where [`accel::NetworkSimulator`] prices a compiled network with the
//! closed-form [`ap::CostModel`], [`FunctionalBackend`] *runs* it: every
//! weighted layer's slice programs execute on a [`cam::BitPlaneArray`]-backed
//! engine (64 rows per word operation), the non-weighted operators (ReLU,
//! pooling, requantisation, residual adds) run on the reference integer
//! engine, and the final logits are compared value-for-value against
//! [`tnn::infer::run`] — the mechanism behind the paper's "retains software
//! accuracy" claim, now end-to-end instead of per-layer.
//!
//! The backend registers under the open [`BackendId`](crate::BackendId) space
//! as [`BackendKind::Functional`](crate::BackendKind::Functional) (`"functional"`), so sweeps put its records
//! next to `rtm-ap`/`crossbar`/`deepcam` columns. Its energy/latency figures
//! come from the [`cam::CamStats`] the execution actually accumulated, not
//! from an analytic model — use it when you need measured-by-construction
//! numbers or end-to-end bit-exactness evidence; prefer the cost-model
//! simulator for ImageNet-scale networks where bit-level execution of every
//! position is unnecessary.
//!
//! Execution is batched end to end: [`FunctionalBackend::run_batch`] packs B
//! samples' (tile × row group) units into shared [`cam::BitPlaneArray`]
//! allocations (sample s occupies row segment s), so one program pass —
//! one physical search/write sweep per LUT pass — serves the whole batch.
//! Per-sample costs are attributed through the array's segment tracking and
//! are *exactly* the counters a solo run would record (pinned by
//! `tests/batch_equivalence.rs` and `tests/batch_golden.rs`), while the
//! aggregate [`BatchReport`] counters show the amortization as
//! `samples_per_s` / `joules_per_sample` throughput. A single-sample
//! evaluation is simply a batch of one.

use crate::backend::{BackendReport, InferenceBackend, LayerCost, ModelProfile};
use crate::trace::{self, ExecutionTrace, TraceHeader, TraceRecorder, UnitFrame};
use accel::ArchConfig;
use ap::{ApEngine, Operand, PlanGeometry};
use apc::{
    ApcError, CompileCache, CompiledLayer, CompilerOptions, LayerCompiler, PartitionPlan,
    PartitionUnit, TileGrid,
};
use cam::{BitPlaneArray, CamStats};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tnn::im2col::{GatherMap, Im2colSpec};
use tnn::layer::LayerOp;
use tnn::model::{ConvLayerInfo, ModelGraph, Source};
use tnn::{Tensor, TnnError};

/// One batched unit's outcome: the sensed accumulator columns in one flat
/// `[output][sample][row]` buffer, the per-sample (as-if-solo) counter
/// attributions, and the unit's physical counters.
type UnitOutcome = (Vec<i64>, Vec<CamStats>, CamStats);

/// What every unit job of one batched weighted layer shares.
struct LayerJob<'a> {
    compiled: &'a Arc<CompiledLayer>,
    slices: &'a [apc::CompiledSlice],
    /// Where each im2col element of a channel plane comes from.
    gather: GatherMap,
    /// Each sample's activations, flattened `[cin][h][w]`.
    inputs: Vec<&'a [i64]>,
}

/// Identity of the unit being traced, threaded into the per-unit jobs when an
/// execution-trace recorder is attached to the batch run.
#[derive(Debug, Clone, Copy)]
struct UnitTraceCtx {
    node_id: usize,
    ordinal: usize,
}

/// One executed layer's batched results plus its partition accounting: the
/// per-sample output tensors, the per-sample (solo-equivalent) attributions,
/// the physical aggregate counters, the partition plan that drove the
/// execution, the physical counters grouped by grid tile (ascending tile
/// id, used tiles only), and the layer's trace fragment (empty untraced).
type LayerOutcome = (
    Vec<Tensor<i64>>,
    Vec<CamStats>,
    CamStats,
    Arc<PartitionPlan>,
    Vec<(usize, CamStats)>,
    Vec<u8>,
);

/// One grid tile's share of a partitioned functional inference, summed over
/// every weighted layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileUsage {
    /// Grid tile id.
    pub tile: usize,
    /// Sub-layer units executed on the tile (over all layers).
    pub units: usize,
    /// Unit-weighted mean fraction of the tile's CAM rows occupied.
    pub row_utilization: f64,
    /// Unit-weighted mean fraction of the tile's CAM columns occupied.
    pub col_utilization: f64,
    /// Physical CAM counters the tile's units accumulated.
    pub stats: CamStats,
    /// Time the tile spends computing (Σ over layers of its serial share),
    /// in milliseconds — the tile-parallel critical path is the per-layer max.
    pub busy_ms: f64,
}

/// The partition-quality report of one functional inference: how the
/// weighted layers spread over the [`TileGrid`], how well the tiles' arrays
/// are filled, and what the inter-tile movement schedule costs.
///
/// On a 1×1 grid (the default) every layer runs unpartitioned: one tile,
/// zero traffic, zero routing cost — and the report degenerates to the
/// pre-partitioning accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionQuality {
    /// The tile grid the inference ran on.
    pub grid: TileGrid,
    /// Weighted layers executed through partition plans.
    pub layers: usize,
    /// Total sub-layer units over all layers.
    pub units: usize,
    /// Most grid tiles any single layer spread over.
    pub tiles_used: usize,
    /// Unit-weighted mean CAM-row utilisation over all units of all layers.
    pub row_utilization: f64,
    /// Unit-weighted mean CAM-column utilisation over all units of all layers.
    pub col_utilization: f64,
    /// Bits crossing tile boundaries over the whole inference.
    pub traffic_bits: u64,
    /// Total inter-tile hop count over all scheduled transfers.
    pub traffic_hops: u64,
    /// Σ bits × hops over all transfers — what link energy scales with.
    pub traffic_bit_hops: u64,
    /// Energy of the inter-tile transfers, in microjoules
    /// ([`ArchConfig::interconnect_pj_per_bit`] per bit-hop).
    pub route_energy_uj: f64,
    /// Serial latency of the inter-tile transfers, in milliseconds
    /// ([`ArchConfig::interconnect_bits_per_ns`] per hop).
    pub route_latency_ms: f64,
    /// Per-tile breakdown, ascending tile id, used tiles only.
    pub per_tile: Vec<TileUsage>,
}

impl PartitionQuality {
    /// Sum of the per-tile physical counters — equals the inference's
    /// aggregate [`CamStats`], since every unit runs on exactly one tile.
    pub fn tile_stats_total(&self) -> CamStats {
        self.per_tile
            .iter()
            .fold(CamStats::new(), |acc, tile| acc + tile.stats)
    }
}

/// Running accumulator behind [`PartitionQuality`] (weighted means need the
/// unit counts kept separate until the end).
#[derive(Debug, Default)]
struct QualityAccum {
    layers: usize,
    units: usize,
    tiles_used: usize,
    row_utilization_units: f64,
    col_utilization_units: f64,
    traffic_bits: u64,
    traffic_hops: u64,
    traffic_bit_hops: u64,
    route_energy_uj: f64,
    route_latency_ns: f64,
    per_tile: Vec<TileUsage>,
}

impl QualityAccum {
    /// Folds one executed layer's plan, per-tile counters and routing cost
    /// into the running totals. Returns the layer's modeled tile-parallel
    /// latency contribution in nanoseconds: the busiest tile's serial share
    /// plus the layer's transfer time.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::Internal`] when an executed tile is missing from
    /// the plan's report.
    fn absorb_layer(
        &mut self,
        plan: &PartitionPlan,
        tile_stats: &[(usize, CamStats)],
        arch: &ArchConfig,
    ) -> apc::Result<f64> {
        let report = &plan.report;
        self.layers += 1;
        self.units += report.units;
        self.tiles_used = self.tiles_used.max(report.tiles_used);
        self.row_utilization_units += report.row_utilization * report.units as f64;
        self.col_utilization_units += report.col_utilization * report.units as f64;
        self.traffic_bits += report.traffic_bits;
        self.traffic_hops += report.traffic_hops;
        self.traffic_bit_hops += report.traffic_bit_hops;
        let route_ns = plan
            .legs
            .iter()
            .map(|leg| leg.bit_hops() as f64 / arch.interconnect_bits_per_ns)
            .sum::<f64>();
        self.route_latency_ns += route_ns;
        self.route_energy_uj += plan
            .legs
            .iter()
            .map(|leg| leg.bit_hops() as f64 * arch.interconnect_pj_per_bit)
            .sum::<f64>()
            * 1e-6;
        let tech = &arch.cam_tech;
        let mut busiest_ns = 0.0f64;
        for &(tile, stats) in tile_stats {
            let busy_ns = stats.latency_ns(tech);
            busiest_ns = busiest_ns.max(busy_ns);
            let load = report
                .per_tile
                .iter()
                .find(|t| t.tile == tile)
                .ok_or_else(|| ApcError::Internal {
                    reason: format!("executed tile {tile} is missing from the plan report"),
                })?;
            match self.per_tile.iter_mut().find(|t| t.tile == tile) {
                Some(usage) => {
                    usage.units += load.units;
                    usage.row_utilization += load.row_utilization * load.units as f64;
                    usage.col_utilization += load.col_utilization * load.units as f64;
                    usage.stats += stats;
                    usage.busy_ms += busy_ns / 1e6;
                }
                None => self.per_tile.push(TileUsage {
                    tile,
                    units: load.units,
                    row_utilization: load.row_utilization * load.units as f64,
                    col_utilization: load.col_utilization * load.units as f64,
                    stats,
                    busy_ms: busy_ns / 1e6,
                }),
            }
        }
        Ok(busiest_ns + route_ns)
    }

    fn finish(mut self, grid: TileGrid) -> PartitionQuality {
        self.per_tile.sort_by_key(|t| t.tile);
        for usage in &mut self.per_tile {
            usage.row_utilization /= usage.units.max(1) as f64;
            usage.col_utilization /= usage.units.max(1) as f64;
        }
        let units = self.units.max(1) as f64;
        PartitionQuality {
            grid,
            layers: self.layers,
            units: self.units,
            tiles_used: self.tiles_used,
            row_utilization: self.row_utilization_units / units,
            col_utilization: self.col_utilization_units / units,
            traffic_bits: self.traffic_bits,
            traffic_hops: self.traffic_hops,
            traffic_bit_hops: self.traffic_bit_hops,
            route_energy_uj: self.route_energy_uj,
            route_latency_ms: self.route_latency_ns / 1e6,
            per_tile: self.per_tile,
        }
    }
}

/// The result of one functional (bit-level) inference.
///
/// `checked_values`/`mismatched_values` compare every weighted-layer output
/// element produced by the associative processor against the reference integer
/// inference; a correct stack reports zero mismatches. Energy and latency are
/// derived from the [`CamStats`] counters of the actual execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionalReport {
    /// The evaluated network's name.
    pub name: String,
    /// Activation precision used, in bits.
    pub act_bits: u8,
    /// Whether the executed programs were compiled with CSE.
    pub cse: bool,
    /// Seed of the deterministic synthetic input.
    pub input_seed: u64,
    /// The final node's output values (the logits).
    pub logits: Vec<i64>,
    /// Index of the largest logit (the predicted class), if any.
    pub predicted_class: Option<usize>,
    /// Weighted-layer output elements compared against the reference.
    pub checked_values: u64,
    /// Elements that differed from the reference (0 for a bit-exact stack).
    pub mismatched_values: u64,
    /// CAM event counters accumulated over the whole inference.
    pub stats: CamStats,
    /// Energy of the executed searches/writes/reads, in microjoules.
    pub energy_uj: f64,
    /// Serial latency of the executed cycles, in milliseconds.
    pub latency_ms: f64,
    /// Memory arrays occupied (maximum row groups over the layers).
    pub arrays: usize,
    /// How the weighted layers spread over the tile grid (always present on
    /// functional runs; degenerate single-tile accounting on a 1×1 grid).
    pub partition: Option<PartitionQuality>,
}

impl FunctionalReport {
    /// Returns `true` when every compared value matched the reference exactly.
    pub fn is_bit_exact(&self) -> bool {
        self.mismatched_values == 0 && self.checked_values > 0
    }
}

/// One sample's share of a batched functional inference.
///
/// The [`CamStats`] here are the *as-if-solo attribution*: exactly the
/// counters (and therefore energy/latency) a single-sample
/// [`FunctionalBackend`] run of this input would produce, even though the
/// physical execution packed the whole batch into shared arrays — pinned by
/// `tests/batch_equivalence.rs`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleReport {
    /// Index of the sample within the batch.
    pub sample: usize,
    /// Seed of this slot's staged input
    /// ([`FunctionalBackend::sample_input_seed`] of the base seed) when the
    /// backend generated the batch itself; `None` for caller-provided inputs,
    /// whose provenance the backend cannot know.
    pub input_seed: Option<u64>,
    /// The final node's output values (the logits) for this sample.
    pub logits: Vec<i64>,
    /// Index of the largest logit (the predicted class), if any.
    pub predicted_class: Option<usize>,
    /// Weighted-layer output elements compared against the reference.
    pub checked_values: u64,
    /// Elements that differed from the reference (0 for a bit-exact stack).
    pub mismatched_values: u64,
    /// Per-sample CAM event attribution (solo-run equivalent).
    pub stats: CamStats,
    /// Solo-run-equivalent energy of this sample, in microjoules.
    pub energy_uj: f64,
    /// Solo-run-equivalent serial latency of this sample, in milliseconds.
    pub latency_ms: f64,
}

impl SampleReport {
    /// Returns `true` when every compared value matched the reference exactly.
    pub fn is_bit_exact(&self) -> bool {
        self.mismatched_values == 0 && self.checked_values > 0
    }
}

/// The result of one batched functional inference.
///
/// `stats`/`energy_uj`/`latency_ms` are the *physical aggregate* of the
/// packed execution: B samples' (tile × row group) units share one
/// [`BitPlaneArray`] allocation, so one search/write sweep serves the whole
/// batch and the aggregate cycle counters grow sublinearly in the batch size
/// — the amortization behind `samples_per_s` and `joules_per_sample`. The
/// per-sample [`SampleReport`]s carry the solo-equivalent attribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// The evaluated network's name.
    pub name: String,
    /// Activation precision used, in bits.
    pub act_bits: u8,
    /// Whether the executed programs were compiled with CSE.
    pub cse: bool,
    /// Base seed of the per-sample deterministic synthetic inputs, when the
    /// backend staged them itself; `None` for caller-provided inputs.
    pub input_seed: Option<u64>,
    /// Number of samples executed together.
    pub batch_size: usize,
    /// Per-sample outcomes, in batch order.
    pub samples: Vec<SampleReport>,
    /// Physical CAM event counters of the packed batch execution.
    pub stats: CamStats,
    /// Energy of the whole batch, in microjoules.
    pub energy_uj: f64,
    /// Serial latency of the whole batch, in milliseconds.
    pub latency_ms: f64,
    /// Modeled throughput of the packed execution, in samples per second.
    pub samples_per_s: f64,
    /// Amortized energy per sample, in joules.
    pub joules_per_sample: f64,
    /// Memory arrays occupied (maximum row groups over the layers).
    pub arrays: usize,
    /// How the weighted layers spread over the tile grid (always present on
    /// functional runs; degenerate single-tile accounting on a 1×1 grid).
    pub partition: Option<PartitionQuality>,
}

impl BatchReport {
    /// Returns `true` when every sample matched the reference exactly.
    pub fn is_bit_exact(&self) -> bool {
        !self.samples.is_empty() && self.samples.iter().all(SampleReport::is_bit_exact)
    }

    /// Sum of the per-sample (solo-equivalent) attributions — compare with
    /// [`stats`](Self::stats) to read off what the batch amortized.
    pub fn attributed_stats(&self) -> CamStats {
        self.samples
            .iter()
            .fold(CamStats::new(), |acc, sample| acc + sample.stats)
    }
}

/// An [`InferenceBackend`] that executes the compiled layer programs at bit
/// level on the word-parallel [`ApEngine`].
///
/// The backend compiles each weighted layer with retained instruction streams
/// (through the shared [`CompileCache`] in sweeps), stages a deterministic
/// synthetic input, and runs every (output tile × row group) unit of every
/// layer on its own [`BitPlaneArray`]. Units are independent, so they fan out
/// over rayon; results and counters are merged in unit order, making the
/// outcome identical at any `RAYON_NUM_THREADS`.
///
/// # Example
///
/// ```
/// use camdnn::functional::FunctionalBackend;
/// use camdnn::InferenceBackend;
/// use tnn::model::micro_cnn;
///
/// let backend = FunctionalBackend::default();
/// let report = backend
///     .evaluate(&micro_cnn("micro", 4, 0.8, 1))
///     .expect("functional inference");
/// let functional = report.as_functional().expect("functional report");
/// assert!(functional.is_bit_exact());
/// assert_eq!(functional.logits.len(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalBackend {
    arch: ArchConfig,
    options: CompilerOptions,
    input_seed: u64,
    engine_mode: EngineMode,
    tile_grid: TileGrid,
}

/// Which executor runs AP programs: the functional backend's unit programs
/// and [`trace::trace_program`]'s instructions.
///
/// Both paths are pinned bit-identical (data, [`cam::CamStats`], errors) by
/// the engine differential suites; the interpreter is retained as the
/// differential reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Compiled pass plans (the default): each distinct program is lowered
    /// once into instruction-specialized fused kernels via the shared
    /// [`CompileCache`], then re-executed from the cache.
    Plan,
    /// The reference per-pass interpreter ([`ApEngine::run`]).
    Interpreter,
}

impl Default for FunctionalBackend {
    fn default() -> Self {
        FunctionalBackend::new(ArchConfig::default(), CompilerOptions::default())
    }
}

impl FunctionalBackend {
    /// Creates a backend executing on `arch.geometry`-sized arrays with the
    /// compiler configuration `options` (retained programs are forced on).
    pub fn new(arch: ArchConfig, options: CompilerOptions) -> Self {
        FunctionalBackend {
            arch,
            options: options.with_programs(),
            input_seed: 0,
            engine_mode: EngineMode::Plan,
            tile_grid: TileGrid::default(),
        }
    }

    /// Returns a copy executing every weighted layer across `grid`: layers
    /// too large for one tile split over the grid (see [`apc::partition`]),
    /// with partial results merged deterministically and inter-tile routing
    /// cost folded into the energy/latency accounting. The default 1×1 grid
    /// reproduces the unpartitioned execution exactly.
    #[must_use]
    pub fn with_tile_grid(mut self, grid: TileGrid) -> Self {
        self.tile_grid = grid;
        self
    }

    /// The tile grid weighted layers are partitioned across.
    pub fn tile_grid(&self) -> TileGrid {
        self.tile_grid
    }

    /// Returns a copy executing unit programs with `mode` (compiled plans by
    /// default).
    #[must_use]
    pub fn with_engine_mode(mut self, mode: EngineMode) -> Self {
        self.engine_mode = mode;
        self
    }

    /// Returns a copy using a different base seed for the synthetic inputs.
    /// In a batched evaluation every sample derives its own seed from this
    /// one (see [`sample_input_seed`](Self::sample_input_seed)); a
    /// single-sample evaluation stages the input of sample 0.
    #[must_use]
    pub fn with_input_seed(mut self, seed: u64) -> Self {
        self.input_seed = seed;
        self
    }

    /// Derives the input seed of sample `sample` from the backend's base
    /// `seed`: sample 0 uses the base seed itself (so a batch of one stages
    /// exactly the input the single-sample path always staged), and every
    /// later sample draws a fresh seed from a `rand_chacha` stream keyed by
    /// (base seed, sample index) — distinct inputs per batch slot instead of
    /// one input repeated, pinned by the batch test suites.
    pub fn sample_input_seed(seed: u64, sample: usize) -> u64 {
        if sample == 0 {
            return seed;
        }
        // Weyl-spread the index so nearby samples key well-separated streams.
        let key = seed ^ (sample as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ChaCha8Rng::seed_from_u64(key).next_u64()
    }

    /// The deterministic synthetic input staged for batch slot `sample`:
    /// [`input_for`](Self::input_for) evaluated at
    /// [`sample_input_seed`](Self::sample_input_seed)`(seed, sample)`.
    pub fn input_for_sample(
        model: &ModelGraph,
        act_bits: u8,
        seed: u64,
        sample: usize,
    ) -> Tensor<i64> {
        Self::input_for(model, act_bits, Self::sample_input_seed(seed, sample))
    }

    /// The compiler options in use (with retained programs).
    pub fn compiler_options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The deterministic synthetic input this backend stages for `model`:
    /// element `i` is `(7·i + seed) mod 2^act_bits`, matching the operand
    /// range of the compiled programs. Exposed so tests can reproduce the
    /// reference inference ([`tnn::infer::run`]) on the identical input.
    pub fn input_for(model: &ModelGraph, act_bits: u8, seed: u64) -> Tensor<i64> {
        let (c, h, w) = model.input_shape();
        // Computed in u64 so any seed (including >= 2^63) yields in-range,
        // non-negative activations. Widths above 63 are clamped here so layer
        // compilation gets to report its own validation error instead of the
        // shift overflowing.
        let limit = 1u64 << act_bits.min(63);
        let data: Vec<i64> = (0..c * h * w)
            .map(|i| ((i as u64).wrapping_mul(7).wrapping_add(seed) % limit) as i64)
            .collect();
        Tensor::from_vec(vec![c, h, w], data).expect("input shape is consistent by construction")
    }

    /// Executes one compiled weighted layer for the whole batch, through the
    /// layer's partition plan: every sub-layer unit packs the B samples' rows
    /// into one shared array and runs as an independent job on its assigned
    /// grid tile; per-unit outputs and counters are merged in unit order
    /// (channel-split partial sums by plain integer addition), so the result
    /// is identical at any `RAYON_NUM_THREADS`.
    ///
    /// Returns one output tensor per sample, the per-sample (solo-equivalent)
    /// counter attributions, the physical aggregate counters of the packed
    /// execution, the partition plan, and the physical counters per grid
    /// tile.
    fn execute_layer_batch(
        &self,
        info: &ConvLayerInfo,
        compiled: &Arc<CompiledLayer>,
        inputs: &[&Tensor<i64>],
        cache: &CompileCache,
        trace_node: Option<usize>,
    ) -> apc::Result<LayerOutcome> {
        let _layer_span = telemetry::span("functional.layer");
        let slices = compiled.slices.as_ref().ok_or_else(|| ApcError::Internal {
            reason: "functional backend requires retained programs".to_string(),
        })?;
        let plan = cache.partition(info, &self.options, self.tile_grid)?;
        if telemetry::enabled() {
            telemetry::count("functional.layers", 1);
            telemetry::count("functional.units", plan.units.len() as u64);
        }
        // Units stage their packed columns straight from the samples'
        // activations through one gather map. Fully connected layers arrive
        // as (1, 1)-kernel convolutions over the flattened input, so an input
        // only has to hold `cin·h·w` values, whatever its shape.
        let pack_span = telemetry::span("functional.pack");
        let spec = Im2colSpec {
            fh: info.kernel.0,
            fw: info.kernel.1,
            stride: info.stride,
            padding: info.padding,
        };
        let shape = vec![info.cin, info.input_hw.0, info.input_hw.1];
        let values = shape.iter().product::<usize>();
        let job = LayerJob {
            compiled,
            slices,
            gather: spec.gather(info.input_hw),
            inputs: inputs
                .iter()
                .map(|input| match input.as_slice() {
                    data if data.len() == values => Ok(data),
                    data => Err(TnnError::ShapeMismatch {
                        shape: shape.clone(),
                        data_len: data.len(),
                    }),
                })
                .collect::<tnn::Result<_>>()?,
        };
        drop(pack_span);

        // Spans opened on rayon workers adopt this layer's span path so the
        // per-unit timings nest under `functional.layer` in the flamegraph.
        let span_context = telemetry::SpanContext::capture();
        let indexed: Vec<(usize, &PartitionUnit)> = plan.units.iter().enumerate().collect();
        let outcomes: Vec<apc::Result<(UnitOutcome, Vec<u8>)>> = indexed
            .into_par_iter()
            .map(|(ordinal, unit)| {
                let _parent = span_context.adopt();
                let _unit_span = telemetry::span("functional.unit");
                let ctx = trace_node.map(|node_id| UnitTraceCtx { node_id, ordinal });
                self.execute_unit_batch(&job, unit, cache, ctx)
            })
            .collect();
        let outcomes: Vec<(UnitOutcome, Vec<u8>)> =
            outcomes.into_iter().collect::<apc::Result<_>>()?;

        let _merge_span = telemetry::span("functional.merge");
        let batch = inputs.len();
        let mut outputs: Vec<Tensor<i64>> = (0..batch)
            .map(|_| Tensor::zeros(vec![info.cout, info.output_hw.0, info.output_hw.1]))
            .collect();
        let mut attributed = vec![CamStats::new(); batch];
        let mut physical = CamStats::new();
        let mut tile_stats: Vec<(usize, CamStats)> = Vec::new();
        // Trace fragments concatenate in unit order — the same deterministic
        // order the outputs merge in — so the recorded stream is identical at
        // any `RAYON_NUM_THREADS`.
        let mut trace_bytes = Vec::new();
        let positions = info.output_hw.0 * info.output_hw.1;
        for (unit, ((sensed, unit_attributed, unit_physical), fragment)) in
            plan.units.iter().zip(outcomes)
        {
            trace_bytes.extend_from_slice(&fragment);
            physical += unit_physical;
            match tile_stats.iter_mut().find(|(tile, _)| *tile == unit.tile) {
                Some((_, stats)) => *stats += unit_physical,
                None => tile_stats.push((unit.tile, unit_physical)),
            }
            for (total, unit_share) in attributed.iter_mut().zip(unit_attributed) {
                *total += unit_share;
            }
            // The sensed buffer is `[output][sample][row]`, and rows of one
            // group are consecutive output positions of each output
            // channel's plane, so every column lands as one contiguous run.
            // Channel-split units carry partial sums over disjoint
            // input-channel ranges; integer addition into the zeroed output
            // merges them in any order.
            let rows = unit.rows.len();
            for (index, column) in sensed.chunks_exact(rows).enumerate() {
                let (output, sample) = (index / batch, index % batch);
                let target = &mut outputs[sample].as_mut_slice()
                    [(unit.outputs.start + output) * positions + unit.rows.start..][..rows];
                if plan.channel_splits == 1 {
                    target.copy_from_slice(column);
                } else {
                    for (out, partial) in target.iter_mut().zip(column) {
                        *out += partial;
                    }
                }
            }
        }
        tile_stats.sort_by_key(|&(tile, _)| tile);
        Ok((outputs, attributed, physical, plan, tile_stats, trace_bytes))
    }

    /// Runs one partition unit — an (output-channel × output-position ×
    /// input-channel) block of the layer — for all B samples on a single
    /// engine whose array stacks the samples as B row segments of
    /// `unit.rows.len()` rows each. Row results never cross rows and the
    /// align/search/write sequence of a program is data-independent, so each
    /// segment computes — and is attributed, via the array's segment tracking
    /// — exactly what a solo run of its sample would; the physical pass over
    /// all `B × rows` packed rows is what amortizes the per-cycle costs.
    /// Channel-split units run only their input-channel range's slices (each
    /// slice program touches only its own channel's domains), producing
    /// partial sums the caller merges.
    ///
    /// Returns the accumulator columns (`[output][sample][row]`), the
    /// per-sample counter attributions, and the unit's physical counters.
    fn execute_unit_batch(
        &self,
        job: &LayerJob<'_>,
        unit: &PartitionUnit,
        cache: &CompileCache,
        trace_ctx: Option<UnitTraceCtx>,
    ) -> apc::Result<(UnitOutcome, Vec<u8>)> {
        let layout = &job.compiled.layout;
        let gather = &job.gather;
        let batch = job.inputs.len();
        let rows = unit.rows.len();
        if unit.rows.end > gather.positions() {
            return Err(ApcError::Internal {
                reason: format!(
                    "row range {:?} exceeds the {} output positions",
                    unit.rows,
                    gather.positions()
                ),
            });
        }
        // The array holds only the columns the layer's programs address
        // (51 of 256 for micro_cnn): no counter depends on the column count,
        // and plans are keyed on the array's own geometry.
        let mut array = BitPlaneArray::new(
            rows * batch,
            layout.columns_used().min(layout.geometry.cols),
            layout.geometry.domains,
            self.arch.cam_tech,
        )
        .map_err(ap::ApError::from)?;
        array.track_segments(rows).map_err(ap::ApError::from)?;
        let mut engine = ApEngine::new(array);
        let geometry = PlanGeometry::of(engine.array());
        // With a trace context attached, every program executes one
        // instruction at a time through `trace::trace_program` (per-pass
        // counter deltas are additive, so the unit's totals are unchanged)
        // and the staged/sensed columns are digested into I/O records.
        let mut recorder = trace_ctx.map(|ctx| {
            let mut recorder = TraceRecorder::detached();
            recorder.begin_unit(&UnitFrame {
                node_id: ctx.node_id,
                ordinal: ctx.ordinal,
                tile: unit.tile,
                rows_start: unit.rows.start,
                rows_len: rows,
                outputs_start: unit.outputs.start,
                outputs_len: unit.outputs.len(),
                channels_start: unit.channels.start,
                channels_len: unit.channels.len(),
                col_split: unit.col_split,
                geom_rows: rows * batch,
                geom_cols: layout.geometry.cols,
                geom_domains: layout.geometry.domains,
            });
            recorder
        });
        // Unit programs repeat across units, row groups, batches and served
        // requests; the plan path lowers each distinct program once into the
        // shared cache and runs the untraced slices from the layer's
        // slice-plan table, while the interpreter path re-derives every pass
        // list per run (retained as the differential reference).
        let use_plans = self.engine_mode == EngineMode::Plan;
        let slice_plans = match (&recorder, use_plans) {
            (None, true) => Some(cache.slice_plans(job.compiled, geometry)?),
            _ => None,
        };
        let prologue = apc::codegen::tile_prologue(layout, unit.outputs.len());
        match recorder.as_mut() {
            Some(recorder) => trace::trace_program(
                &mut engine,
                &prologue,
                self.engine_mode,
                cache,
                recorder,
                None,
            )?,
            None if use_plans => engine.run_plan(&cache.plan(&prologue, geometry))?,
            None => engine.run(&prologue)?,
        }
        let plane_len = gather.plane_len();
        let mut column = Vec::with_capacity(rows * batch);
        for (index, slice) in job
            .slices
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tile == unit.col_split && unit.channels.contains(&s.channel))
        {
            for k in 0..layout.patch_size {
                // Segment s holds sample s's rows, in row order, so the
                // packed column is the sample-major concatenation of each
                // sample's im2col row `k` over the unit's positions.
                column.clear();
                for input in &job.inputs {
                    let plane = &input[slice.channel * plane_len..][..plane_len];
                    gather.stage(k, unit.rows.clone(), plane, &mut column);
                }
                let operand = Operand::new(
                    k,
                    layout.channel_domain_base(slice.channel_in_group),
                    layout.act_bits,
                    false,
                );
                match recorder.as_mut() {
                    Some(recorder) => trace::traced_load(&mut engine, &operand, &column, recorder)?,
                    None => engine.load_column(&operand, &column)?,
                }
            }
            match (recorder.as_mut(), &slice_plans) {
                (Some(recorder), _) => trace::trace_program(
                    &mut engine,
                    &slice.program,
                    self.engine_mode,
                    cache,
                    recorder,
                    None,
                )?,
                (None, Some(plans)) => engine.run_plan(plans.get(index))?,
                (None, None) => engine.run(&slice.program)?,
            }
        }
        let mut sensed = Vec::with_capacity(unit.outputs.len() * rows * batch);
        for output in 0..unit.outputs.len() {
            let acc = Operand::new(layout.acc_col_start + output, 0, layout.acc_bits, true);
            match recorder.as_mut() {
                Some(recorder) => trace::traced_read(&mut engine, &acc, recorder, &mut sensed)?,
                None => engine.read_column_into(&acc, &mut sensed)?,
            }
        }
        let attributed = engine.array().segment_stats();
        let fragment = recorder.map(TraceRecorder::into_bytes).unwrap_or_default();
        Ok(((sensed, attributed, engine.stats()), fragment))
    }

    /// Executes `model` end to end for a batch of explicit inputs, reusing
    /// previously compiled layers from `cache`.
    ///
    /// Every weighted layer packs the batch into shared per-unit arrays (see
    /// `execute_unit_batch`); non-weighted
    /// operators run per sample on the reference integer engine. The logits
    /// of every sample are value-identical to a single-sample run of the same
    /// input at any batch size and thread count, and each sample's
    /// [`SampleReport::stats`] equal that solo run's counters exactly.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] for an empty batch; otherwise
    /// the same errors as the single-sample path (compilation failures, shape
    /// violations), with identical messages.
    pub fn run_batch(
        &self,
        model: &ModelGraph,
        inputs: &[Tensor<i64>],
        cache: &CompileCache,
    ) -> apc::Result<BatchReport> {
        // The caller staged these inputs, so the report claims no seed
        // provenance for them.
        self.run_batch_collected(model, inputs, None, cache, None, None)
    }

    /// [`run_batch`](Self::run_batch) plus an execution trace: every weighted
    /// layer's unit executions are recorded (unit frames, instruction
    /// records, I/O records) in deterministic unit order, and the stream is
    /// closed with one logits digest per sample. The recorded bytes are
    /// identical across [`EngineMode`]s and `RAYON_NUM_THREADS` settings —
    /// the invariant the corpus goldens and the trace-divergence suite pin.
    ///
    /// # Errors
    ///
    /// Same as [`run_batch`](Self::run_batch).
    pub fn run_batch_traced(
        &self,
        model: &ModelGraph,
        inputs: &[Tensor<i64>],
        cache: &CompileCache,
    ) -> apc::Result<(BatchReport, ExecutionTrace)> {
        let mut recorder = TraceRecorder::new(&TraceHeader {
            label: model.name().to_string(),
            act_bits: self.options.act_bits,
            batch: inputs.len(),
            grid: (self.tile_grid.rows, self.tile_grid.cols),
        });
        let report =
            self.run_batch_collected(model, inputs, None, cache, None, Some(&mut recorder))?;
        let digests: Vec<u64> = report
            .samples
            .iter()
            .map(|sample| trace::fnv1a_i64s(&sample.logits))
            .collect();
        Ok((report, recorder.finish(&digests)))
    }

    /// Profiles `model` per weighted layer by executing a single seeded
    /// sample (the backend's [`input_seed`](Self::with_input_seed) input).
    ///
    /// The profiled latencies are the per-layer terms of the tile-parallel
    /// latency model — on a 1×1 grid their sum equals the whole-model
    /// physical latency exactly — and the energies cover each layer's CAM
    /// operations plus routing. This is the cost profile pipeline-stage
    /// planning ([`apc::plan_stages`]) and the fleet simulator consume.
    ///
    /// # Errors
    ///
    /// Same as [`run_batch`](Self::run_batch) for a batch of one.
    pub fn profile(&self, model: &ModelGraph, cache: &CompileCache) -> apc::Result<ModelProfile> {
        let input = Self::input_for(model, self.options.act_bits, self.input_seed);
        let mut layers = Vec::new();
        self.run_batch_collected(
            model,
            std::slice::from_ref(&input),
            Some(self.input_seed),
            cache,
            Some(&mut layers),
            None,
        )?;
        Ok(ModelProfile {
            model: model.name().to_string(),
            layers,
        })
    }

    /// [`run_batch`](Self::run_batch) with the seed provenance of
    /// backend-staged inputs (`base_seed` is recorded in the report and slot
    /// `i` is attributed `sample_input_seed(base_seed, i)`), optionally
    /// pushing one [`LayerCost`] per weighted layer into `collector` (the
    /// whole-batch physical cost — profile with a batch of one for
    /// per-sample numbers) and recording the execution into `trace_sink`.
    fn run_batch_collected(
        &self,
        model: &ModelGraph,
        inputs: &[Tensor<i64>],
        base_seed: Option<u64>,
        cache: &CompileCache,
        mut collector: Option<&mut Vec<LayerCost>>,
        mut trace_sink: Option<&mut TraceRecorder>,
    ) -> apc::Result<BatchReport> {
        if inputs.is_empty() {
            return Err(ApcError::InvalidArgument {
                reason: "batched evaluation needs at least one sample".to_string(),
            });
        }
        let _batch_span = telemetry::span("functional.run_batch");
        let batch = inputs.len();
        if telemetry::enabled() {
            telemetry::count("functional.batches", 1);
            telemetry::count("functional.samples", batch as u64);
        }
        let compiler = LayerCompiler::new(self.options);
        let act_bits = self.options.act_bits;
        let references = tnn::infer::run_batch(model, inputs, Some(act_bits))?;
        // The weighted layers, in node order: each weighted node takes the
        // next one.
        let mut weighted = model.conv_like_layers().into_iter();

        let mut physical = CamStats::new();
        let mut attributed = vec![CamStats::new(); batch];
        let mut checked = vec![0u64; batch];
        let mut mismatched = vec![0u64; batch];
        let mut arrays = 0usize;
        let mut quality = QualityAccum::default();
        // Tile-parallel latency model: layers are sequential, but within one
        // layer the grid's tiles work concurrently, so a layer costs its
        // busiest tile's serial share plus its inter-tile transfer time.
        let mut modeled_ns = 0.0f64;
        // Node outputs, indexed [node][sample].
        let mut outputs: Vec<Vec<Tensor<i64>>> = Vec::with_capacity(model.nodes().len());
        for (id, node) in model.nodes().iter().enumerate() {
            let fetch = |source: &Source, sample: usize| -> &Tensor<i64> {
                match source {
                    Source::Input => &inputs[sample],
                    Source::Node(i) => &outputs[*i][sample],
                }
            };
            let first_source = node.inputs.first().ok_or_else(|| ApcError::Internal {
                reason: format!("node {id} has no inputs"),
            })?;
            let firsts: Vec<&Tensor<i64>> = (0..batch)
                .map(|sample| fetch(first_source, sample))
                .collect();
            let results: Vec<Tensor<i64>> = match &node.op {
                LayerOp::Conv2d(_) | LayerOp::Linear(_) => {
                    let info = weighted
                        .next()
                        .filter(|layer| layer.node_id == id)
                        .ok_or_else(|| ApcError::Internal {
                            reason: format!("weighted node {id} has no layer description"),
                        })?;
                    let compiled = cache.compile(&compiler, &info)?;
                    arrays = arrays.max(compiled.layout.row_groups);
                    let trace_node = trace_sink.as_ref().map(|_| id);
                    let (layer_outputs, layer_attributed, layer_physical, plan, tile_stats, frag) =
                        self.execute_layer_batch(&info, &compiled, &firsts, cache, trace_node)?;
                    if let Some(sink) = trace_sink.as_deref_mut() {
                        sink.append_fragment(&frag);
                    }
                    physical += layer_physical;
                    let layer_ns = quality.absorb_layer(&plan, &tile_stats, &self.arch)?;
                    modeled_ns += layer_ns;
                    if let Some(costs) = collector.as_deref_mut() {
                        let route_uj = plan
                            .legs
                            .iter()
                            .map(|leg| leg.bit_hops() as f64 * self.arch.interconnect_pj_per_bit)
                            .sum::<f64>()
                            * 1e-6;
                        costs.push(LayerCost {
                            name: info.name.clone(),
                            node_id: info.node_id,
                            latency_ns: layer_ns,
                            energy_uj: layer_physical.energy_fj(&self.arch.cam_tech) / 1e9
                                + route_uj,
                            tiles_used: plan.report.tiles_used,
                            units: plan.report.units,
                            traffic_bits: plan.report.traffic_bits,
                        });
                    }
                    for (sample, output) in layer_outputs.iter().enumerate() {
                        attributed[sample] += layer_attributed[sample];
                        let expected = &references[sample].node_outputs[id];
                        checked[sample] += output.as_slice().len() as u64;
                        mismatched[sample] += output
                            .as_slice()
                            .iter()
                            .zip(expected.as_slice())
                            .filter(|(got, want)| got != want)
                            .count() as u64;
                    }
                    layer_outputs
                }
                LayerOp::MaxPool2d { kernel, stride } => firsts
                    .iter()
                    .map(|first| tnn::infer::max_pool2d(first, *kernel, *stride))
                    .collect::<tnn::Result<_>>()?,
                LayerOp::GlobalAvgPool => firsts
                    .iter()
                    .map(|first| tnn::infer::global_avg_pool(first))
                    .collect::<tnn::Result<_>>()?,
                LayerOp::Relu => firsts.iter().map(|first| tnn::infer::relu(first)).collect(),
                LayerOp::Requantize { .. } => firsts
                    .iter()
                    .map(|first| tnn::infer::requantize(first, act_bits).0)
                    .collect(),
                LayerOp::Add => {
                    let second_source = node.inputs.get(1).ok_or_else(|| ApcError::Internal {
                        reason: format!("add node {id} needs two inputs"),
                    })?;
                    firsts
                        .iter()
                        .enumerate()
                        .map(|(sample, first)| tnn::infer::add(first, fetch(second_source, sample)))
                        .collect::<tnn::Result<_>>()?
                }
                op => {
                    return Err(ApcError::Internal {
                        reason: format!("functional backend cannot execute node {id}: {op:?}"),
                    })
                }
            };
            outputs.push(results);
        }

        let tech = &self.arch.cam_tech;
        let samples: Vec<SampleReport> = (0..batch)
            .map(|sample| {
                let logits: Vec<i64> = outputs
                    .last()
                    .map(|per_sample| per_sample[sample].as_slice().to_vec())
                    .unwrap_or_default();
                let predicted_class = logits
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, &v)| v)
                    .map(|(i, _)| i);
                let stats = attributed[sample];
                SampleReport {
                    sample,
                    input_seed: base_seed.map(|seed| Self::sample_input_seed(seed, sample)),
                    logits,
                    predicted_class,
                    checked_values: checked[sample],
                    mismatched_values: mismatched[sample],
                    stats,
                    energy_uj: stats.energy_fj(tech) / 1e9,
                    latency_ms: stats.latency_ns(tech) / 1e6,
                }
            })
            .collect();
        let partition = quality.finish(self.tile_grid);
        let energy_uj = physical.energy_fj(tech) / 1e9 + partition.route_energy_uj;
        // A 1×1 grid has a single tile whose busy time is the whole serial
        // execution and no transfers, so the physical counters are converted
        // in one step — bit-identical to the pre-partitioning accounting.
        let latency_ms = if self.tile_grid.tiles() == 1 {
            physical.latency_ns(tech) / 1e6
        } else {
            modeled_ns / 1e6
        };
        Ok(BatchReport {
            name: model.name().to_string(),
            act_bits,
            cse: self.options.enable_cse,
            input_seed: base_seed,
            batch_size: batch,
            samples,
            stats: physical,
            energy_uj,
            latency_ms,
            samples_per_s: if latency_ms > 0.0 {
                batch as f64 * 1e3 / latency_ms
            } else {
                f64::INFINITY
            },
            joules_per_sample: energy_uj * 1e-6 / batch as f64,
            arrays,
            partition: Some(partition),
        })
    }
}

impl InferenceBackend for FunctionalBackend {
    fn name(&self) -> String {
        format!(
            "functional[{}b,{}]",
            self.options.act_bits,
            if self.options.enable_cse {
                "unroll+cse"
            } else {
                "unroll"
            }
        )
    }

    fn evaluate(&self, model: &ModelGraph) -> apc::Result<BackendReport> {
        self.evaluate_cached(model, &CompileCache::new())
    }

    fn evaluate_cached(
        &self,
        model: &ModelGraph,
        cache: &CompileCache,
    ) -> apc::Result<BackendReport> {
        // A single-sample evaluation is a batch of one: the per-sample
        // attribution of a one-segment pack is exactly the solo execution
        // (same rows, same operation stream), so this stays bit-identical to
        // the dedicated single-sample path it replaces.
        let input = Self::input_for(model, self.options.act_bits, self.input_seed);
        let batch = self.run_batch_collected(
            model,
            std::slice::from_ref(&input),
            Some(self.input_seed),
            cache,
            None,
            None,
        )?;
        let sample = batch
            .samples
            .into_iter()
            .next()
            .ok_or_else(|| ApcError::Internal {
                reason: "batch of one produced no sample report".to_string(),
            })?;
        Ok(BackendReport::Functional(FunctionalReport {
            name: batch.name,
            act_bits: batch.act_bits,
            cse: batch.cse,
            input_seed: self.input_seed,
            logits: sample.logits,
            predicted_class: sample.predicted_class,
            checked_values: sample.checked_values,
            mismatched_values: sample.mismatched_values,
            // Batch-level accounting: for a batch of one on a 1×1 grid the
            // physical counters equal the sample attribution bit-for-bit,
            // and on larger grids this surfaces the tile-parallel latency
            // and routing energy the partition model adds.
            stats: batch.stats,
            energy_uj: batch.energy_uj,
            latency_ms: batch.latency_ms,
            arrays: batch.arrays,
            partition: batch.partition,
        }))
    }

    fn evaluate_batch_cached(
        &self,
        model: &ModelGraph,
        batch_size: usize,
        cache: &CompileCache,
    ) -> apc::Result<BackendReport> {
        let inputs: Vec<Tensor<i64>> = (0..batch_size)
            .map(|sample| {
                Self::input_for_sample(model, self.options.act_bits, self.input_seed, sample)
            })
            .collect();
        Ok(BackendReport::FunctionalBatch(self.run_batch_collected(
            model,
            &inputs,
            Some(self.input_seed),
            cache,
            None,
            None,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn::model::micro_cnn;

    #[test]
    fn functional_inference_matches_the_reference_end_to_end() {
        let model = micro_cnn("micro-f", 8, 0.8, 5);
        let backend = FunctionalBackend::default().with_input_seed(3);
        let report = backend.evaluate(&model).expect("functional inference");
        let functional = report.as_functional().expect("functional variant");
        assert!(functional.is_bit_exact(), "{functional:?}");
        assert_eq!(functional.logits.len(), 10);
        // The logits are the reference logits on the same input.
        let input = FunctionalBackend::input_for(&model, 4, 3);
        let reference = tnn::infer::run(&model, &input, Some(4)).expect("reference");
        assert_eq!(
            functional.logits,
            reference.output().expect("logits").as_slice()
        );
        assert_eq!(functional.predicted_class, reference.predicted_class());
        // The executed searches/writes back real energy/latency figures.
        assert!(functional.stats.compute_cycles() > 0);
        assert!(report.energy_uj() > 0.0);
        assert!(report.latency_ms() > 0.0);
        assert!(report.arrays() >= 1);
        assert_eq!(report.network(), "micro-f");
    }

    #[test]
    fn layer_profiles_sum_to_the_whole_model_report() {
        let model = micro_cnn("micro-profile", 4, 0.8, 3);
        let backend = FunctionalBackend::default();
        let cache = CompileCache::new();
        let profile = backend.profile(&model, &cache).expect("profile");
        assert_eq!(profile.model, "micro-profile");
        assert_eq!(profile.layers.len(), model.conv_like_layers().len());
        assert!(profile.layers.iter().all(|l| l.latency_ns > 0.0));
        assert!(profile.layers.iter().all(|l| l.energy_uj > 0.0));
        // On the default 1×1 grid the per-layer latency terms are the whole
        // serial execution, so their sum is the report's latency exactly.
        let report = backend.evaluate_cached(&model, &cache).expect("evaluate");
        let total_ms = profile.total_latency_ns() / 1e6;
        assert!(
            (total_ms - report.latency_ms()).abs() < 1e-9,
            "profiled {total_ms} ms vs reported {} ms",
            report.latency_ms()
        );
        assert!(
            (profile.total_energy_uj() - report.energy_uj()).abs() < 1e-9,
            "profiled {} uJ vs reported {} uJ",
            profile.total_energy_uj(),
            report.energy_uj()
        );
        // Replays are identical.
        assert_eq!(backend.profile(&model, &cache).expect("replay"), profile);
    }

    #[test]
    fn multi_tile_profiles_carry_partition_footprints() {
        let model = micro_cnn("micro-profile-grid", 4, 0.8, 3);
        let backend = FunctionalBackend::default().with_tile_grid(TileGrid::new(2, 2));
        let cache = CompileCache::new();
        let profile = backend.profile(&model, &cache).expect("profile");
        assert!(profile.layers.iter().all(|l| l.tiles_used >= 1));
        assert!(profile.layers.iter().all(|l| l.units >= 1));
        // Something must cross tiles on a 2×2 grid for this model.
        assert!(profile.layers.iter().any(|l| l.traffic_bits > 0));
    }

    #[test]
    fn cached_and_uncached_evaluation_are_identical() {
        let model = micro_cnn("micro-g", 4, 0.85, 7);
        let backend = FunctionalBackend::default();
        let cache = CompileCache::new();
        let cached = backend.evaluate_cached(&model, &cache).expect("cached");
        let direct = backend.evaluate(&model).expect("direct");
        assert_eq!(cached, direct);
        assert!(cache.stats().misses > 0);
        // A second cached run recompiles nothing.
        let again = backend.evaluate_cached(&model, &cache).expect("again");
        assert_eq!(again, cached);
        assert_eq!(cache.stats().misses, model.conv_like_layers().len() as u64);
    }

    #[test]
    fn batched_execution_matches_batches_of_one() {
        let model = micro_cnn("micro-b", 4, 0.8, 11);
        let backend = FunctionalBackend::default().with_input_seed(5);
        let cache = CompileCache::new();
        let inputs: Vec<_> = (0..3)
            .map(|sample| FunctionalBackend::input_for_sample(&model, 4, 5, sample))
            .collect();
        let batch = backend.run_batch(&model, &inputs, &cache).expect("batch");
        assert_eq!(batch.batch_size, 3);
        assert!(batch.is_bit_exact());
        for (sample, input) in inputs.iter().enumerate() {
            let solo = backend
                .run_batch(&model, std::slice::from_ref(input), &cache)
                .expect("solo");
            let (got, want) = (&batch.samples[sample], &solo.samples[0]);
            assert_eq!(got.logits, want.logits, "sample {sample}");
            assert_eq!(got.stats, want.stats, "sample {sample}");
            assert_eq!(got.energy_uj, want.energy_uj);
            assert_eq!(got.latency_ms, want.latency_ms);
        }
        // The aggregate cycle counters amortize across the batch while the
        // searched bits stay the sum of the attributions.
        let attributed = batch.attributed_stats();
        assert_eq!(batch.stats.searched_bits, attributed.searched_bits);
        assert!(batch.stats.search_cycles < attributed.search_cycles);
        assert!(batch.samples_per_s > 0.0 && batch.joules_per_sample > 0.0);
        // An empty batch is rejected up front.
        let error = backend.run_batch(&model, &[], &cache).expect_err("empty");
        assert!(error.to_string().contains("at least one sample"));
    }

    #[test]
    fn per_sample_seeds_are_derived_and_distinct() {
        assert_eq!(FunctionalBackend::sample_input_seed(9, 0), 9);
        let seeds: std::collections::HashSet<u64> = (0..100)
            .map(|sample| FunctionalBackend::sample_input_seed(9, sample))
            .collect();
        assert_eq!(seeds.len(), 100, "per-sample seeds must not collide");
        // Derivation is deterministic and keyed by the base seed.
        assert_eq!(
            FunctionalBackend::sample_input_seed(9, 7),
            FunctionalBackend::sample_input_seed(9, 7)
        );
        assert_ne!(
            FunctionalBackend::sample_input_seed(9, 7),
            FunctionalBackend::sample_input_seed(10, 7)
        );
        // Batch slot 0 stages exactly the single-sample input.
        let model = micro_cnn("micro-s", 4, 0.8, 2);
        assert_eq!(
            FunctionalBackend::input_for_sample(&model, 4, 9, 0).as_slice(),
            FunctionalBackend::input_for(&model, 4, 9).as_slice()
        );
        assert_ne!(
            FunctionalBackend::input_for_sample(&model, 4, 9, 1).as_slice(),
            FunctionalBackend::input_for(&model, 4, 9).as_slice()
        );
    }

    #[test]
    fn evaluate_batch_cached_wraps_the_derived_input_batch() {
        let model = micro_cnn("micro-e", 4, 0.85, 3);
        let backend = FunctionalBackend::default().with_input_seed(21);
        let cache = CompileCache::new();
        let report = backend
            .evaluate_batch_cached(&model, 4, &cache)
            .expect("batch evaluate");
        let batch = report.as_functional_batch().expect("batch report");
        assert_eq!(batch.batch_size, 4);
        assert_eq!(batch.input_seed, Some(21));
        assert!(batch.is_bit_exact());
        for (sample, outcome) in batch.samples.iter().enumerate() {
            assert_eq!(outcome.sample, sample);
            assert_eq!(
                outcome.input_seed,
                Some(FunctionalBackend::sample_input_seed(21, sample))
            );
            // Every slot executes its own derived input, pinned against the
            // reference engine.
            let input = FunctionalBackend::input_for_sample(&model, 4, 21, sample);
            let reference = tnn::infer::run(&model, &input, Some(4)).expect("reference");
            assert_eq!(
                outcome.logits,
                reference.output().expect("logits").as_slice()
            );
        }
        // Sample 0 of the batch is the single-sample evaluation.
        let single = backend
            .evaluate_cached(&model, &cache)
            .expect("single")
            .into_functional()
            .expect("functional report");
        assert_eq!(batch.samples[0].logits, single.logits);
        assert_eq!(batch.samples[0].stats, single.stats);
    }

    #[test]
    fn partitioned_grids_stay_bit_exact_and_shorten_the_critical_path() {
        let model = micro_cnn("micro-p", 16, 0.8, 13);
        let solo = FunctionalBackend::default()
            .evaluate(&model)
            .expect("1x1")
            .into_functional()
            .expect("functional report");
        let split = FunctionalBackend::default()
            .with_tile_grid(TileGrid::new(2, 2))
            .evaluate(&model)
            .expect("2x2")
            .into_functional()
            .expect("functional report");
        // Partitioning changes where the work runs, not what it computes.
        assert!(split.is_bit_exact(), "{split:?}");
        assert_eq!(split.logits, solo.logits);
        // Channel-split units repeat the accumulator prologue and column
        // reads per split, so the physical counters grow slightly — but the
        // search work (the slice programs) is the same, just re-placed.
        assert_eq!(split.stats.searched_bits, solo.stats.searched_bits);
        // The 16-group fc layer spreads over the grid, partial sums travel,
        // and the busiest-tile critical path beats the serial one.
        let quality = split.partition.as_ref().expect("quality report");
        assert_eq!(quality.grid, TileGrid::new(2, 2));
        assert!(quality.tiles_used > 1);
        assert!(quality.traffic_bits > 0 && quality.traffic_bit_hops > 0);
        assert!(quality.route_energy_uj > 0.0 && quality.route_latency_ms > 0.0);
        assert_eq!(quality.tile_stats_total(), split.stats);
        assert!(split.latency_ms < solo.latency_ms);
        assert!(split.energy_uj > solo.energy_uj, "routing energy is extra");
        // The default grid reports the degenerate single-tile accounting.
        let degenerate = solo.partition.as_ref().expect("quality report");
        assert_eq!(degenerate.tiles_used, 1);
        assert_eq!(degenerate.traffic_bits, 0);
        assert_eq!(degenerate.route_energy_uj, 0.0);
        assert_eq!(degenerate.per_tile.len(), 1);
        assert_eq!(degenerate.tile_stats_total(), solo.stats);
    }

    #[test]
    fn a_tile_missing_from_the_plan_report_is_a_typed_error() {
        let model = micro_cnn("micro-q", 4, 0.8, 3);
        let layer = &model.conv_like_layers()[0];
        let options = CompilerOptions::default().with_programs();
        let plan = CompileCache::new()
            .partition(layer, &options, TileGrid::default())
            .expect("partition plan");
        let error = QualityAccum::default()
            .absorb_layer(&plan, &[(99, CamStats::new())], &ArchConfig::default())
            .expect_err("tile 99 is not in a 1x1 plan");
        assert!(matches!(error, ApcError::Internal { .. }), "{error:?}");
        assert!(error.to_string().contains("tile 99"), "{error}");
    }

    #[test]
    fn unroll_configuration_is_also_bit_exact() {
        let model = micro_cnn("micro-u", 4, 0.7, 9);
        let backend = FunctionalBackend::new(ArchConfig::default(), CompilerOptions::unroll_only());
        let report = backend.evaluate(&model).expect("functional inference");
        let functional = report.as_functional().expect("functional variant");
        assert!(functional.is_bit_exact(), "{functional:?}");
        assert!(!functional.cse);
        assert!(backend.name().contains("unroll"));
    }
}
