//! Shared compilation memoisation for experiment sweeps.
//!
//! A design-space sweep (networks × activation bits × geometries × accelerator
//! configurations) re-visits the same `(layer, CompilerOptions)` pairs many
//! times: every scenario that shares a workload and compiler configuration —
//! for example an architecture sweep at a fixed geometry — would otherwise
//! recompile identical layers from scratch. [`CompileCache`] is a concurrent
//! memo table keyed by ([`LayerSignature`], [`CompilerOptions`]) that
//! guarantees each distinct pair is compiled **exactly once**, even when many
//! parallel jobs request it simultaneously, and exposes hit/miss counters so
//! callers can assert the reuse they expect.
//!
//! Table II needs every layer under both CSE settings (`unroll` and
//! `unroll+CSE`), which share everything up to the CSE pass. So an analytic
//! request (`keep_programs == false`) runs one
//! [`LayerCompiler::compile_both`] slice walk and fills both sibling keys —
//! the two whose options differ only in `enable_cse`. Programs-retaining
//! requests compile only their own variant. The counters do not see the
//! sibling fill: a key's **miss is its first request**, even when a sibling
//! walk already filled it, so [`len`](CompileCache::len) and the hit/miss
//! counts stay those of one compilation per requested key.
//!
//! The three counter families (layer compile, plan lowering, partition) also
//! feed the [`telemetry`] registry when recording is on — as `apc.compile.*`,
//! `apc.plan.*` and `apc.partition.*` counters aggregated across every live
//! cache — and each miss's compilation runs under a `apc.compile.*` span.
//! The [`stats`](CompileCache::stats) family of accessors remains the exact
//! per-cache view it always was. All of these counters are deterministic for
//! a fixed workload: misses count distinct keys (exactly-once) and hits are
//! requests minus misses, independent of thread interleaving.
//!
//! # Example
//!
//! ```
//! use apc::{CompileCache, CompilerOptions, LayerCompiler};
//! use tnn::model::vgg9;
//!
//! let cache = CompileCache::new();
//! let compiler = LayerCompiler::new(CompilerOptions::default());
//! let model = vgg9(0.9, 1);
//! let first = cache.compile_model(&compiler, &model).expect("compile");
//! let second = cache.compile_model(&compiler, &model).expect("compile");
//! assert_eq!(first, second);
//! let stats = cache.stats();
//! assert_eq!(stats.misses, first.len() as u64); // each layer compiled once
//! assert_eq!(stats.hits, first.len() as u64); // second pass fully cached
//! ```

use crate::layout::LayerLayout;
use crate::partition::{PartitionCompiler, PartitionPlan, TileGrid};
use crate::passes::{CompiledLayer, CompilerOptions, LayerCompiler};
use crate::{ApcError, Result};
use ap::{ApProgram, PassPlan, PlanCompiler, PlanGeometry};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tnn::model::{ConvLayerInfo, ModelGraph};

/// A content fingerprint of one weighted layer: everything layer compilation
/// depends on — the structural description plus a digest of the ternary
/// weights. Two layers with equal signatures compile to identical
/// [`CompiledLayer`]s under equal [`CompilerOptions`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerSignature {
    /// Layer name (propagated into the compiled result, so part of the key).
    pub name: String,
    /// The layer's dimensions.
    pub dims: LayerDims,
    /// Number of weight values.
    pub weight_len: usize,
    /// Digest of the ternary weight values, eight per mixing step (an
    /// in-memory cache key, not a stable format).
    pub weight_digest: u64,
}

impl LayerSignature {
    /// Computes the signature of `layer`.
    pub fn of(layer: &ConvLayerInfo) -> Self {
        LayerSignature {
            name: layer.name.clone(),
            dims: LayerDims::of(layer),
            weight_len: layer.weights.len(),
            weight_digest: digest_weights(layer.weights.as_slice()),
        }
    }
}

/// The dimensions of a weighted layer: all that its layout and partition
/// plan read of it besides its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerDims {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel size.
    pub kernel: (usize, usize),
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub padding: usize,
    /// Input spatial size.
    pub input_hw: (usize, usize),
    /// Output spatial size.
    pub output_hw: (usize, usize),
}

impl LayerDims {
    /// The dimensions of `layer`.
    pub fn of(layer: &ConvLayerInfo) -> Self {
        LayerDims {
            cin: layer.cin,
            cout: layer.cout,
            kernel: layer.kernel,
            stride: layer.stride,
            padding: layer.padding,
            input_hw: layer.input_hw,
            output_hw: layer.output_hw,
        }
    }
}

/// The digest of [`LayerSignature::weight_digest`]: each step folds the next
/// eight weights, read as one little-endian word (a shorter tail
/// zero-padded), into the state with FxHash's rotate-xor-multiply mix. For a
/// fixed word the step is a bijection of the state, so two weight sequences
/// of one length that differ in a single word never collide.
fn digest_weights(weights: &[i8]) -> u64 {
    let mix = |digest: u64, word: [i8; 8]| {
        let word = u64::from_le_bytes(word.map(|w| w as u8));
        (digest.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    };
    let mut words = weights.chunks_exact(8);
    let mut digest = (&mut words).fold(0xcbf2_9ce4_8422_2325, |digest, word| {
        mix(digest, word.try_into().expect("chunks of eight"))
    });
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0; 8];
        word[..tail.len()].copy_from_slice(tail);
        digest = mix(digest, word);
    }
    digest
}

/// Hit/miss counters of a [`CompileCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Repeat requests of a key, served from its entry.
    pub hits: u64,
    /// First requests of a key: the number of distinct keys ever requested.
    /// For layer compilation the work may already have been done by the
    /// sibling walk of an analytic key.
    pub misses: u64,
}

impl CacheStats {
    /// Total number of compile requests.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of requests served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.requests() == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests() as f64
        }
    }
}

/// Aggregate view of every pass plan cached so far (see
/// [`CompileCache::plan_summary`]): the fusion effect and the exactly-once
/// reuse the bench records report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanSummary {
    /// Distinct `(program, geometry)` pairs lowered so far.
    pub plans: u64,
    /// Of those, plans that fell back to the reference interpreter.
    pub fallbacks: u64,
    /// Interpreter passes the cached programs would issue per run.
    pub passes_before_fusion: u64,
    /// Fused kernel sweeps the compiled plans issue instead.
    pub passes_after_fusion: u64,
    /// Plan requests served from an already-lowered entry.
    pub hits: u64,
    /// Plan requests that performed the lowering.
    pub misses: u64,
}

type CacheKey = (LayerSignature, CompilerOptions);
type Compiled = std::result::Result<Arc<CompiledLayer>, ApcError>;
/// The memo cell behind one `(layer, options)` key.
#[derive(Clone)]
enum CacheSlot {
    /// A programs-retaining key, compiled on its own.
    Own(Arc<OnceLock<Compiled>>),
    /// An analytic key, sharing one walk with its sibling key (the same
    /// options but the other `enable_cse`): `[unroll, unroll+CSE]`.
    Pair(Arc<OnceLock<[Compiled; 2]>>),
}
/// Plans are keyed by a program digest + geometry; the bucket keeps the full
/// programs for collision-proof equality, cloning each program only on its
/// first (miss) insertion.
type PlanKey = (u64, PlanGeometry);
type PlanSlot = Arc<OnceLock<Arc<PassPlan>>>;
/// Slice-plan tables are keyed by the address of the compiled layer they
/// resolve; the entry holds that layer's `Arc`, so the address stays
/// allocated — and cannot be reused by another layer — while the key exists.
type SlicePlanKey = (usize, PlanGeometry);
type SlicePlanEntry = (Arc<CompiledLayer>, Arc<[PlanSlot]>);
/// Partition plans depend on what the layout reads of a layer — its name and
/// dimensions, not its weights — on the options and on the tile grid. The
/// names share a bucket per key, so a hit clones nothing.
type PartitionKey = (LayerDims, CompilerOptions, TileGrid);
type PartitionSlot = Arc<OnceLock<std::result::Result<Arc<PartitionPlan>, ApcError>>>;

/// One compiled layer's pass plans for one array geometry (see
/// [`CompileCache::slice_plans`]), indexed by slice.
#[derive(Debug)]
pub struct SlicePlans<'c> {
    cache: &'c CompileCache,
    layer: Arc<CompiledLayer>,
    geometry: PlanGeometry,
    slots: Arc<[PlanSlot]>,
}

impl SlicePlans<'_> {
    /// The pass plan of slice `slice` (an index into the layer's
    /// `slices`), lowered on its first request; books one plan request.
    ///
    /// # Panics
    ///
    /// Panics when `slice` is out of range.
    pub fn get(&self, slice: usize) -> &PassPlan {
        let program = &self.layer.slices.as_deref().unwrap_or_default()[slice].program;
        self.cache
            .serve_plan(&self.slots[slice], program, self.geometry)
    }
}

/// A concurrent memo table for layer compilation.
///
/// Thread-safe and shareable across parallel jobs: each distinct
/// `(layer signature, options)` pair is compiled exactly once — concurrent
/// requesters of the same key, or of an analytic key and its sibling, block
/// on the in-flight walk instead of duplicating it — and every subsequent
/// request returns the shared [`Arc<CompiledLayer>`]. Compilation errors are
/// memoised too, so a failing configuration fails consistently without being
/// retried per scenario.
#[derive(Default)]
pub struct CompileCache {
    slots: Mutex<HashMap<CacheKey, CacheSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    walks: AtomicU64,
    plan_slots: Mutex<HashMap<PlanKey, Vec<(ApProgram, PlanSlot)>>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    slice_plan_slots: Mutex<HashMap<SlicePlanKey, SlicePlanEntry>>,
    partition_slots: Mutex<HashMap<PartitionKey, Vec<(String, PartitionSlot)>>>,
    partition_hits: AtomicU64,
    partition_misses: AtomicU64,
}

impl std::fmt::Debug for CompileCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileCache")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .field("plan_stats", &self.plan_stats())
            .finish()
    }
}

impl CompileCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Compiles `layer` with `compiler`'s options, reusing a previous result
    /// for the same `(layer signature, options)` pair if one exists.
    ///
    /// An analytic request (`keep_programs == false`) compiles both CSE
    /// settings in one [`LayerCompiler::compile_both`] walk and fills its
    /// sibling key too, so the sibling's first request does no work. It still
    /// counts as that key's miss: a miss is the first request of a key.
    ///
    /// # Errors
    ///
    /// Propagates (and memoises) the compilation error of the underlying
    /// [`LayerCompiler::compile`].
    pub fn compile(
        &self,
        compiler: &LayerCompiler,
        layer: &ConvLayerInfo,
    ) -> Result<Arc<CompiledLayer>> {
        let options = *compiler.options();
        let key = (LayerSignature::of(layer), options);
        let (slot, first_request) = {
            let mut slots = self.slots.lock().expect("compile cache poisoned");
            match slots.get(&key) {
                Some(slot) => (slot.clone(), false),
                None => {
                    let slot = if options.keep_programs {
                        CacheSlot::Own(Arc::default())
                    } else {
                        let sibling = CompilerOptions {
                            enable_cse: !options.enable_cse,
                            ..options
                        };
                        slots
                            .get(&(key.0.clone(), sibling))
                            .cloned()
                            .unwrap_or_else(|| CacheSlot::Pair(Arc::default()))
                    };
                    slots.insert(key, slot.clone());
                    (slot, true)
                }
            }
        };
        let start_walk = || {
            self.walks.fetch_add(1, Ordering::Relaxed);
            telemetry::span("apc.compile.layer")
        };
        let result = match &slot {
            CacheSlot::Own(cell) => cell
                .get_or_init(|| {
                    let _span = start_walk();
                    compiler.compile(layer).map(Arc::new)
                })
                .clone(),
            CacheSlot::Pair(cell) => cell.get_or_init(|| {
                let _span = start_walk();
                compiler
                    .compile_both(layer)
                    .map(|result| result.map(Arc::new))
            })[usize::from(options.enable_cse)]
            .clone(),
        };
        if first_request {
            self.misses.fetch_add(1, Ordering::Relaxed);
            telemetry::count("apc.compile.misses", 1);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count("apc.compile.hits", 1);
        }
        result
    }

    /// Compiles every weighted layer of `model` through the cache, in network
    /// order (one rayon job per layer, like
    /// [`LayerCompiler::compile_model`]).
    ///
    /// # Errors
    ///
    /// Returns the first (in network order) failing layer's error.
    pub fn compile_model(
        &self,
        compiler: &LayerCompiler,
        model: &ModelGraph,
    ) -> Result<Vec<Arc<CompiledLayer>>> {
        let results: Vec<Result<Arc<CompiledLayer>>> = model
            .conv_like_layers()
            .into_par_iter()
            .map(|layer| self.compile(compiler, &layer))
            .collect();
        results.into_iter().collect()
    }

    /// Number of distinct `(layer signature, options)` pairs ever requested.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("compile cache poisoned").len()
    }

    /// Whether the cache has served no requests yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The hit/miss counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Slice walks run so far: one per analytic layer pair, one per
    /// programs-retaining key.
    #[cfg(test)]
    fn walks(&self) -> u64 {
        self.walks.load(Ordering::Relaxed)
    }

    /// Returns the compiled [`PassPlan`] of `program` for `geometry`,
    /// lowering it exactly once per distinct `(program, geometry)` pair even
    /// under concurrent requests — the pass-plan counterpart of
    /// [`compile`](Self::compile), so repeated runs of the same program
    /// (batched and served inference) pay the lowering cost once.
    pub fn plan(&self, program: &ApProgram, geometry: PlanGeometry) -> Arc<PassPlan> {
        let slot = self.plan_slot(program, geometry);
        Arc::clone(self.serve_plan(&slot, program, geometry))
    }

    /// The memo cell of `(program, geometry)`, inserted empty on first sight.
    /// Finding it hashes the whole program and compares it in full, so
    /// callers that run the same programs many times resolve the cell once
    /// (see [`slice_plans`](Self::slice_plans)).
    fn plan_slot(&self, program: &ApProgram, geometry: PlanGeometry) -> PlanSlot {
        let digest = {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            program.hash(&mut hasher);
            hasher.finish()
        };
        let mut buckets = self.plan_slots.lock().expect("plan cache poisoned");
        let bucket = buckets.entry((digest, geometry)).or_default();
        match bucket.iter().find(|(cached, _)| cached == program) {
            Some((_, slot)) => Arc::clone(slot),
            None => {
                let slot = PlanSlot::default();
                bucket.push((program.clone(), Arc::clone(&slot)));
                slot
            }
        }
    }

    /// Serves one plan request from `slot`, the cell of `(program,
    /// geometry)`: the first request lowers the program and books the miss,
    /// every later one books a hit.
    fn serve_plan<'s>(
        &self,
        slot: &'s PlanSlot,
        program: &ApProgram,
        geometry: PlanGeometry,
    ) -> &'s Arc<PassPlan> {
        let mut computed = false;
        let plan = slot.get_or_init(|| {
            computed = true;
            let _span = telemetry::span("apc.compile.plan");
            Arc::new(PlanCompiler::new(geometry).compile(program))
        });
        if computed {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
            if telemetry::enabled() {
                let stats = plan.stats();
                telemetry::count("apc.plan.misses", 1);
                telemetry::count("apc.plan.passes_before_fusion", stats.passes_before_fusion);
                telemetry::count("apc.plan.passes_after_fusion", stats.passes_after_fusion);
                telemetry::count("apc.plan.fallbacks", u64::from(stats.fallback));
            }
        } else {
            self.plan_hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count("apc.plan.hits", 1);
        }
        plan
    }

    /// The pass plans of every slice program of `layer` on arrays of
    /// `geometry`, as a table indexed like `layer.slices`. The table is
    /// resolved once per `(layer, geometry)` — each slice's plan cell is
    /// looked up through the same digest map as [`plan`](Self::plan) — so
    /// the functional backend, which runs every slice of every unit of
    /// every batch, stops hashing and comparing whole programs per run.
    ///
    /// Each [`SlicePlans::get`] is one plan request with exactly the
    /// accounting of [`plan`](Self::plan): the first request of a program
    /// lowers it and books the miss, every other books a hit. So
    /// [`plan_stats`](Self::plan_stats), [`plan_summary`](Self::plan_summary)
    /// and the `apc.plan.*` telemetry are those of one `plan` call per slice
    /// run.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::Internal`] when `layer` was compiled without
    /// retained programs.
    pub fn slice_plans(
        &self,
        layer: &Arc<CompiledLayer>,
        geometry: PlanGeometry,
    ) -> Result<SlicePlans<'_>> {
        let slices = layer.slices.as_ref().ok_or_else(|| ApcError::Internal {
            reason: format!("layer {} has no retained slice programs", layer.name),
        })?;
        let key = (Arc::as_ptr(layer) as usize, geometry);
        let cached = self
            .slice_plan_slots
            .lock()
            .expect("slice plan cache poisoned")
            .get(&key)
            .map(|(_, slots)| Arc::clone(slots));
        let slots = match cached {
            Some(slots) => slots,
            None => {
                // Resolved outside the table lock; a concurrent first request
                // of the same key resolves the same cells, and either table
                // serves identically.
                let slots: Arc<[PlanSlot]> = slices
                    .iter()
                    .map(|slice| self.plan_slot(&slice.program, geometry))
                    .collect();
                self.slice_plan_slots
                    .lock()
                    .expect("slice plan cache poisoned")
                    .entry(key)
                    .or_insert_with(|| (Arc::clone(layer), Arc::clone(&slots)));
                slots
            }
        };
        Ok(SlicePlans {
            cache: self,
            layer: Arc::clone(layer),
            geometry,
            slots,
        })
    }

    /// Partitions `layer` across `grid`, reusing a previous plan for the
    /// same layer name and dimensions, options and grid if one exists — the
    /// partitioning counterpart of [`compile`](Self::compile), computed
    /// exactly once even under concurrent requests. Layers that differ only
    /// in their weights share a plan.
    ///
    /// # Errors
    ///
    /// Propagates (and memoises) layout errors from
    /// [`LayerLayout::for_layer`] and plan errors from
    /// [`PartitionCompiler::compile`].
    pub fn partition(
        &self,
        layer: &ConvLayerInfo,
        options: &CompilerOptions,
        grid: TileGrid,
    ) -> Result<Arc<PartitionPlan>> {
        let slot = {
            let mut slots = self
                .partition_slots
                .lock()
                .expect("partition cache poisoned");
            let named = slots
                .entry((LayerDims::of(layer), *options, grid))
                .or_default();
            match named.iter().find(|(name, _)| *name == layer.name) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = PartitionSlot::default();
                    named.push((layer.name.clone(), Arc::clone(&slot)));
                    slot
                }
            }
        };
        let mut computed = false;
        let result = slot.get_or_init(|| {
            computed = true;
            let _span = telemetry::span("apc.compile.partition");
            let layout = LayerLayout::for_layer(
                options.geometry,
                options.act_bits,
                layer,
                options.temp_budget,
            )?;
            PartitionCompiler::new(grid)
                .compile(&layout, layer.cout, layer.cin)
                .map(Arc::new)
        });
        if computed {
            self.partition_misses.fetch_add(1, Ordering::Relaxed);
            telemetry::count("apc.partition.misses", 1);
        } else {
            self.partition_hits.fetch_add(1, Ordering::Relaxed);
            telemetry::count("apc.partition.hits", 1);
        }
        result.clone()
    }

    /// The partition-cache hit/miss counters accumulated so far. `misses`
    /// equals the number of distinct (layer name and dimensions, options,
    /// grid) keys ever partitioned.
    pub fn partition_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.partition_hits.load(Ordering::Relaxed),
            misses: self.partition_misses.load(Ordering::Relaxed),
        }
    }

    /// The plan-cache hit/miss counters accumulated so far. `misses` equals
    /// the number of distinct `(program, geometry)` pairs ever lowered.
    pub fn plan_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
        }
    }

    /// Aggregates the lowering statistics of every cached plan together with
    /// the plan-cache counters (reported by the bench trajectory records).
    pub fn plan_summary(&self) -> PlanSummary {
        let mut summary = PlanSummary {
            hits: self.plan_hits.load(Ordering::Relaxed),
            misses: self.plan_misses.load(Ordering::Relaxed),
            ..PlanSummary::default()
        };
        let buckets = self.plan_slots.lock().expect("plan cache poisoned");
        for (_, slot) in buckets.values().flatten() {
            let Some(plan) = slot.get() else { continue };
            let stats = plan.stats();
            summary.plans += 1;
            summary.fallbacks += u64::from(stats.fallback);
            summary.passes_before_fusion += stats.passes_before_fusion;
            summary.passes_after_fusion += stats.passes_after_fusion;
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn::model::{micro_cnn, vgg9};
    use tnn::TernaryTensor;

    #[test]
    fn cached_compilation_is_bit_identical_and_counted() {
        let model = vgg9(0.85, 9);
        let compiler = LayerCompiler::new(CompilerOptions::default());
        let cache = CompileCache::new();
        let cached = cache.compile_model(&compiler, &model).expect("cached");
        let direct = compiler.compile_model(&model).expect("direct");
        assert_eq!(cached.len(), direct.len());
        for (c, d) in cached.iter().zip(&direct) {
            assert_eq!(c.as_ref(), d);
        }
        let layers = direct.len() as u64;
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: layers
            }
        );
        // A second pass over the same model is served entirely from the cache.
        let again = cache.compile_model(&compiler, &model).expect("again");
        for (c, d) in again.iter().zip(&cached) {
            assert!(Arc::ptr_eq(c, d), "second pass must reuse the same entry");
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: layers,
                misses: layers
            }
        );
    }

    #[test]
    fn different_options_occupy_different_entries() {
        let model = vgg9(0.85, 9);
        let cache = CompileCache::new();
        let cse = LayerCompiler::new(CompilerOptions::default());
        let unroll = LayerCompiler::new(CompilerOptions::unroll_only());
        let layers = model.conv_like_layers().len() as u64;
        cache.compile_model(&cse, &model).expect("cse");
        cache.compile_model(&unroll, &model).expect("unroll");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2 * layers
            }
        );
    }

    #[test]
    fn concurrent_sibling_requests_share_one_walk_per_layer() {
        let model = vgg9(0.85, 9);
        let layers = model.conv_like_layers().len() as u64;
        let cache = CompileCache::new();
        let cse = LayerCompiler::new(CompilerOptions::default());
        let unroll = LayerCompiler::new(CompilerOptions::unroll_only());
        let (with_cse, without) = rayon::join(
            || cache.compile_model(&cse, &model).expect("cse"),
            || cache.compile_model(&unroll, &model).expect("unroll"),
        );
        assert_eq!(cache.walks(), layers);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2 * layers
            }
        );
        assert_eq!(cache.len() as u64, 2 * layers);
        for (compiler, cached) in [(cse, with_cse), (unroll, without)] {
            let direct = compiler.compile_model(&model).expect("direct");
            assert!(cached.iter().map(Arc::as_ref).eq(&direct));
        }
    }

    #[test]
    fn an_analytic_request_fills_its_sibling_but_counts_only_itself() {
        let model = vgg9(0.85, 9);
        let layers = model.conv_like_layers().len();
        let cache = CompileCache::new();
        let cse = LayerCompiler::new(CompilerOptions::default());
        cache.compile_model(&cse, &model).expect("cse");
        assert_eq!(cache.len(), layers);
        assert_eq!(cache.walks(), layers as u64);
        // The sibling's first request is served by the walk already done, but
        // is still that key's miss.
        let unroll = LayerCompiler::new(CompilerOptions::unroll_only());
        cache.compile_model(&unroll, &model).expect("unroll");
        assert_eq!(cache.walks(), layers as u64);
        assert_eq!(cache.len(), 2 * layers);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2 * layers as u64
            }
        );
    }

    #[test]
    fn a_programs_retaining_request_fills_only_its_own_slot() {
        let model = micro_cnn("micro", 8, 0.8, 1);
        let layers = model.conv_like_layers().len() as u64;
        let cache = CompileCache::new();
        for (options, walks) in [
            (CompilerOptions::default().with_programs(), layers),
            (CompilerOptions::unroll_only().with_programs(), 2 * layers),
        ] {
            let compiler = LayerCompiler::new(options);
            let cached = cache.compile_model(&compiler, &model).expect("compile");
            assert_eq!(cache.walks(), walks);
            let direct = compiler.compile_model(&model).expect("direct");
            assert!(cached.iter().map(Arc::as_ref).eq(&direct));
        }
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2 * layers
            }
        );
    }

    #[test]
    fn a_layer_that_does_not_fit_memoises_its_error_in_both_slots() {
        let options = CompilerOptions {
            geometry: crate::layout::CamGeometry {
                rows: 8,
                cols: 8,
                domains: 4,
            },
            ..CompilerOptions::default()
        };
        let model = vgg9(0.85, 9);
        let layer = &model.conv_like_layers()[0];
        let cache = CompileCache::new();
        for enable_cse in [true, false] {
            let compiler = LayerCompiler::new(CompilerOptions {
                enable_cse,
                ..options
            });
            let cached = cache.compile(&compiler, layer).expect_err("must not fit");
            assert!(matches!(cached, ApcError::DoesNotFit { .. }));
            assert_eq!(Err(cached), compiler.compile(layer));
        }
        assert_eq!(cache.walks(), 1);
        assert_eq!(cache.stats(), CacheStats { hits: 0, misses: 2 });
    }

    #[test]
    fn malformed_weight_shapes_are_typed_errors_through_the_cache() {
        let model = vgg9(0.85, 9);
        let mut layer = model.conv_like_layers()[1].clone();
        layer.kernel = (1, 9);
        let cache = CompileCache::new();
        for options in [
            CompilerOptions::default(),
            CompilerOptions::unroll_only(),
            CompilerOptions::default().with_programs(),
        ] {
            let error = cache
                .compile(&LayerCompiler::new(options), &layer)
                .expect_err("malformed weights");
            assert!(
                matches!(error, ApcError::InvalidArgument { .. }),
                "{error:?}"
            );
        }
    }

    #[test]
    fn signature_tracks_weight_content() {
        let a = vgg9(0.85, 1);
        let b = vgg9(0.85, 2);
        let la = &a.conv_like_layers()[0];
        let lb = &b.conv_like_layers()[0];
        assert_ne!(LayerSignature::of(la), LayerSignature::of(lb));
        assert_eq!(LayerSignature::of(la), LayerSignature::of(la));
    }

    #[test]
    fn the_weight_digest_sees_every_flip_and_swap() {
        // Three full eight-weight steps and a tail of five.
        let weights: Vec<i8> = (0..29).map(|i| [1, 0, -1, -1, 0][i % 5]).collect();
        let digest = digest_weights(&weights);
        let changed = |edit: &dyn Fn(&mut Vec<i8>)| {
            let mut edited = weights.clone();
            edit(&mut edited);
            assert_ne!(edited, weights, "the edit must change the weights");
            digest_weights(&edited)
        };
        for i in 0..weights.len() {
            for flipped in [-1, 0, 1].into_iter().filter(|&w| w != weights[i]) {
                assert_ne!(changed(&|w| w[i] = flipped), digest, "flip of weight {i}");
            }
        }
        // Within one step (including the tail's), and across two steps.
        for (a, b) in [(0, 2), (9, 13), (24, 27), (0, 11), (7, 9), (12, 26)] {
            assert_ne!(changed(&|w| w.swap(a, b)), digest, "swap of {a} and {b}");
        }
        // Equal weights in separate allocations sign alike.
        let model = vgg9(0.85, 1);
        let layer = &model.conv_like_layers()[1];
        let mut copy = layer.clone();
        copy.weights = TernaryTensor::from_vec(
            layer.weights.shape().to_vec(),
            layer.weights.as_slice().to_vec(),
        )
        .expect("same weights");
        assert!(!std::ptr::eq(
            copy.weights.as_slice(),
            layer.weights.as_slice()
        ));
        assert_eq!(LayerSignature::of(&copy), LayerSignature::of(layer));
    }

    #[test]
    fn plans_are_lowered_exactly_once_per_program_and_geometry() {
        use ap::{ApInstruction, CarrySlot, Operand};

        let cache = CompileCache::new();
        let geometry = PlanGeometry {
            rows: 64,
            cols: 8,
            domains: 16,
        };
        let other_geometry = PlanGeometry {
            rows: 128,
            ..geometry
        };
        let program = ApProgram::from_instructions(vec![ApInstruction::AddInPlace {
            a: Operand::new(0, 0, 4, false),
            acc: Operand::new(1, 0, 8, true),
            carry: CarrySlot::new(2, 0),
        }]);
        let first = cache.plan(&program, geometry);
        let second = cache.plan(&program, geometry);
        assert!(Arc::ptr_eq(&first, &second), "same plan entry reused");
        assert_eq!(cache.plan_stats(), CacheStats { hits: 1, misses: 1 });
        // A different geometry is a different plan.
        let wider = cache.plan(&program, other_geometry);
        assert!(!Arc::ptr_eq(&first, &wider));
        assert_eq!(cache.plan_stats(), CacheStats { hits: 1, misses: 2 });
        let summary = cache.plan_summary();
        assert_eq!(summary.plans, 2);
        assert_eq!(summary.fallbacks, 0);
        assert_eq!(summary.hits, 1);
        assert_eq!(summary.misses, 2);
        assert!(summary.passes_before_fusion > summary.passes_after_fusion);
    }

    #[test]
    fn slice_plan_tables_share_the_plan_cells_and_their_accounting() {
        let model = micro_cnn("micro", 8, 0.8, 1);
        let layer = &model.conv_like_layers()[1];
        let cache = CompileCache::new();
        let geometry = PlanGeometry {
            rows: 64,
            cols: 128,
            domains: 64,
        };
        let compiled = cache
            .compile(
                &LayerCompiler::new(CompilerOptions::default().with_programs()),
                layer,
            )
            .expect("compile");
        let program = &compiled.slices.as_ref().expect("programs")[0].program;
        // Resolving a table lowers nothing and books nothing.
        let table = cache.slice_plans(&compiled, geometry).expect("table");
        assert_eq!(cache.plan_stats(), CacheStats::default());
        // Each request is one `plan` request on the same cell.
        let first = table.get(0) as *const PassPlan;
        assert_eq!(cache.plan_stats(), CacheStats { hits: 0, misses: 1 });
        let again = cache.slice_plans(&compiled, geometry).expect("table");
        assert_eq!(again.get(0) as *const PassPlan, first);
        assert!(std::ptr::eq(cache.plan(program, geometry).as_ref(), first));
        assert_eq!(cache.plan_stats(), CacheStats { hits: 2, misses: 1 });
        // A layer compiled without programs has no table.
        let analytic = cache
            .compile(&LayerCompiler::new(CompilerOptions::default()), layer)
            .expect("compile");
        let error = cache
            .slice_plans(&analytic, geometry)
            .expect_err("no programs");
        assert!(matches!(error, ApcError::Internal { .. }), "{error:?}");
    }

    #[test]
    fn partition_plans_are_memoised_per_grid() {
        let model = vgg9(0.85, 9);
        let layer = &model.conv_like_layers()[0];
        let options = CompilerOptions::default();
        let cache = CompileCache::new();
        let grid = TileGrid::new(2, 2);
        let first = cache.partition(layer, &options, grid).expect("plan");
        let second = cache.partition(layer, &options, grid).expect("plan");
        assert!(Arc::ptr_eq(&first, &second), "same plan entry reused");
        assert_eq!(cache.partition_stats(), CacheStats { hits: 1, misses: 1 });
        // A different grid is a different plan.
        let other = cache
            .partition(layer, &options, TileGrid::new(4, 4))
            .expect("plan");
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(cache.partition_stats(), CacheStats { hits: 1, misses: 2 });
        // Layout errors are memoised like compile errors.
        let bad = CompilerOptions {
            geometry: crate::layout::CamGeometry {
                rows: 8,
                cols: 8,
                domains: 4,
            },
            ..CompilerOptions::default()
        };
        cache
            .partition(layer, &bad, grid)
            .expect_err("must not fit");
        cache
            .partition(layer, &bad, grid)
            .expect_err("must not fit");
        assert_eq!(cache.partition_stats(), CacheStats { hits: 2, misses: 3 });
        // Weights do not enter a plan, so a reweighted layer shares it; a
        // renamed one does not.
        let mut reweighted = layer.clone();
        reweighted.weights = tnn::TernaryTensor::random(layer.weights.shape().to_vec(), 0.3, 77);
        assert_ne!(reweighted.weights, layer.weights);
        let shared = cache.partition(&reweighted, &options, grid).expect("plan");
        assert!(Arc::ptr_eq(&first, &shared));
        assert_eq!(cache.partition_stats(), CacheStats { hits: 3, misses: 3 });
        let mut renamed = layer.clone();
        renamed.name.push_str("_copy");
        let own = cache.partition(&renamed, &options, grid).expect("plan");
        assert!(!Arc::ptr_eq(&first, &own));
        assert_eq!(cache.partition_stats(), CacheStats { hits: 3, misses: 4 });
    }

    #[test]
    fn errors_are_memoised() {
        // A geometry far too small for any VGG layer.
        let options = CompilerOptions {
            geometry: crate::layout::CamGeometry {
                rows: 8,
                cols: 8,
                domains: 4,
            },
            ..CompilerOptions::default()
        };
        let model = vgg9(0.85, 9);
        let layer = &model.conv_like_layers()[0];
        let cache = CompileCache::new();
        let compiler = LayerCompiler::new(options);
        let first = cache.compile(&compiler, layer).expect_err("must not fit");
        let second = cache.compile(&compiler, layer).expect_err("must not fit");
        assert_eq!(first, second);
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
    }
}
