//! The compilation pipeline (Fig. 3a): options, per-layer driver and results.

use crate::alloc::{Allocation, Allocator};
use crate::bitwidth::signal_widths_into;
use crate::codegen;
use crate::cse;
use crate::dfg::{Dfg, LayerWeights};
use crate::expr::SignalId;
use crate::layout::{CamGeometry, LayerLayout};
use crate::{CompileStats, Result};
use ap::{ApProgram, CostModel};
use cam::CamStats;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use tnn::model::{ConvLayerInfo, ModelGraph};

/// Options controlling the compilation flow.
///
/// The two evaluated configurations of the paper map onto these options: `unroll`
/// (loop unrolling, constant weight folding and custom integer types) is
/// [`CompilerOptions::unroll_only`]; `unroll+CSE` (all optimisations of Fig. 3a) is
/// the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompilerOptions {
    /// Target CAM geometry.
    pub geometry: CamGeometry,
    /// Activation precision in bits (the paper evaluates 4 and 8).
    pub act_bits: u8,
    /// Whether to run common subexpression elimination.
    pub enable_cse: bool,
    /// Columns reserved for CSE temporaries.
    pub temp_budget: usize,
    /// Whether to retain the full instruction streams (needed for functional
    /// simulation; disabled by default to keep memory bounded on large networks).
    pub keep_programs: bool,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            geometry: CamGeometry::default(),
            act_bits: 4,
            enable_cse: true,
            temp_budget: 32,
            keep_programs: false,
        }
    }
}

impl CompilerOptions {
    /// The `unroll` configuration of the paper: constant folding and narrow types but
    /// no CSE.
    pub fn unroll_only() -> Self {
        CompilerOptions {
            enable_cse: false,
            ..CompilerOptions::default()
        }
    }

    /// Returns a copy with a different activation precision.
    #[must_use]
    pub fn with_act_bits(mut self, act_bits: u8) -> Self {
        self.act_bits = act_bits;
        self
    }

    /// Returns a copy that retains the generated instruction streams.
    #[must_use]
    pub fn with_programs(mut self) -> Self {
        self.keep_programs = true;
        self
    }
}

/// One compiled (input channel, output tile) slice retained for functional
/// simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSlice {
    /// Input channel (absolute index within the layer).
    pub channel: usize,
    /// Index of the resident channel within its channel group (selects the domain
    /// offset of its activation bits).
    pub channel_in_group: usize,
    /// Output tile index.
    pub tile: usize,
    /// The generated instruction stream.
    pub program: ApProgram,
}

/// The result of compiling one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledLayer {
    /// Layer name (matches the model definition).
    pub name: String,
    /// Number of input channels.
    pub cin: usize,
    /// Number of output channels.
    pub cout: usize,
    /// Kernel size.
    pub kernel: (usize, usize),
    /// Output positions (`Hout·Wout`).
    pub output_positions: usize,
    /// The CAM placement of the layer.
    pub layout: LayerLayout,
    /// Aggregated statistics over all slices.
    pub stats: CompileStats,
    /// The per-slice instruction streams (only when
    /// [`CompilerOptions::keep_programs`] was set).
    pub slices: Option<Vec<CompiledSlice>>,
}

impl CompiledLayer {
    /// Number of arrays (row groups) this layer occupies in parallel — the quantity
    /// reported in the `#Arrays` column of Table II is the maximum of this value over
    /// the network's layers.
    pub fn arrays(&self) -> usize {
        self.layout.row_groups
    }
}

/// The per-layer compilation driver.
///
/// # Example
///
/// ```
/// use apc::{CompilerOptions, LayerCompiler};
/// use tnn::model::vgg9;
///
/// let model = vgg9(0.9, 3);
/// let layers = model.conv_like_layers();
/// let with_cse = LayerCompiler::new(CompilerOptions::default()).compile(&layers[1]).expect("compile");
/// let without = LayerCompiler::new(CompilerOptions::unroll_only()).compile(&layers[1]).expect("compile");
/// assert!(with_cse.stats.counted_adds_subs <= without.stats.counted_adds_subs);
/// // Both variants in one slice walk.
/// let [unroll, cse] = LayerCompiler::new(CompilerOptions::default()).compile_both(&layers[1]);
/// assert_eq!(unroll.expect("compile"), without);
/// assert_eq!(cse.expect("compile"), with_cse);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerCompiler {
    options: CompilerOptions,
}

impl LayerCompiler {
    /// Creates a compiler with the given options.
    pub fn new(options: CompilerOptions) -> Self {
        LayerCompiler { options }
    }

    /// The options in use.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Compiles one layer into per-slice AP programs and aggregated statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::DoesNotFit`](crate::ApcError::DoesNotFit) when the layer
    /// cannot be placed on the configured geometry,
    /// [`ApcError::InvalidArgument`](crate::ApcError::InvalidArgument) when its
    /// weights are not shaped `[cout, cin, fh, fw]`, or an internal error for
    /// malformed inputs.
    pub fn compile(&self, layer: &ConvLayerInfo) -> Result<CompiledLayer> {
        let [compiled] = self.walk(layer, [self.options.enable_cse]);
        compiled
    }

    /// Compiles one layer under both CSE settings — the paper's `unroll` and
    /// `unroll+CSE` — in one slice walk, ignoring
    /// [`CompilerOptions::enable_cse`]. Returns `[unroll, unroll+CSE]`, each
    /// equal to what [`compile`](Self::compile) returns with `enable_cse` set
    /// accordingly.
    ///
    /// Each slice's DFG is built once: the walk lowers and costs it for
    /// `unroll`, then runs CSE on it in place and lowers and costs it again. A
    /// slice whose CSE temporaries exceed the budget reuses its `unroll`
    /// lowering.
    ///
    /// Without retained programs, `unroll` is booked by row shape instead:
    /// an `unroll` slice is one independent chain per output row, whose
    /// costs depend only on the signs of its terms, so the walk lowers one
    /// row of each distinct sign sequence once per layer and counts the
    /// rows of each. The same table books the rows of `unroll+CSE` that CSE
    /// cannot rewrite, those with at most one term, so only the other rows
    /// enter the slice DFG. A CSE fallback then lowers just those rows
    /// un-CSE'd, on demand.
    pub fn compile_both(&self, layer: &ConvLayerInfo) -> [Result<CompiledLayer>; 2] {
        self.walk(layer, [false, true])
    }

    /// The slice walk behind [`compile`](Self::compile) and
    /// [`compile_both`](Self::compile_both): compiles `layer` once per entry
    /// of `cse_settings` (each value at most once), in that order. A variant
    /// stops at its first failing slice while the others go on.
    fn walk<const N: usize>(
        &self,
        layer: &ConvLayerInfo,
        cse_settings: [bool; N],
    ) -> [Result<CompiledLayer>; N] {
        let options = &self.options;
        let checked = LayerLayout::for_layer(
            options.geometry,
            options.act_bits,
            layer,
            options.temp_budget,
        )
        .and_then(|layout| Ok((layout, LayerWeights::of(layer)?)));
        let (layout, weights) = match checked {
            Ok(checked) => checked,
            Err(error) => return cse_settings.map(|_| Err(error.clone())),
        };
        // Cost accounting uses a single-row model: bit counts per row scale linearly
        // with the number of active rows and are multiplied by the accelerator model.
        let per_row_model = CostModel::new(1);
        let lowering = Lowering {
            keep_programs: options.keep_programs,
            layout: &layout,
            per_row_model: &per_row_model,
        };
        let mut buffers = SliceBuffers::default();

        let mut variants: [Result<Variant>; N] = cse_settings.map(|_| {
            Ok(Variant {
                stats: CompileStats::new(),
                slices: options.keep_programs.then(Vec::new),
            })
        });
        let wants = |variants: &[Result<Variant>; N], cse: bool| {
            cse_settings
                .iter()
                .zip(variants)
                .any(|(&setting, variant)| setting == cse && variant.is_ok())
        };
        // Without retained programs, rows are booked by shape rather than per
        // slice: every row of `unroll`, and the rows CSE cannot rewrite, those
        // of at most one term. Only the rest enter the slice DFG: a row enters
        // it when it has at least `min_terms` terms.
        let mut shapes = (!options.keep_programs).then(RowShapes::new);
        let mut shape_rows: [Vec<u64>; N] = cse_settings.map(|_| Vec::new());
        let walks_unroll = cse_settings.contains(&false);
        let min_terms = match (options.keep_programs, cse_settings.contains(&true)) {
            (true, _) => 0,
            (false, true) => 2,
            (false, false) => usize::MAX,
        };

        for tile in 0..layout.output_tiles {
            let range = layout.tile_range(tile, layer.cout);
            if range.is_empty() {
                continue;
            }
            // Accumulator-clearing prologue, once per tile.
            let prologue: CamStats = codegen::tile_prologue(&layout, range.len())
                .iter()
                .map(|instruction| per_row_model.instruction_stats(instruction))
                .sum();
            for variant in variants.iter_mut().flatten() {
                variant.stats.total_cycles += prologue.compute_cycles();
                variant.stats.dfg += prologue;
            }

            for channel in 0..layer.cin {
                let channel_in_group = channel % layout.channels_per_group;
                let rows = weights.slice_rows(channel, range.clone());
                // One pass over the rows: their non-zeros, the `unroll` op
                // count (`terms − 1` per non-empty row) and, when booking by
                // shape, each booked row's shape, lowered on its first sight.
                let (mut nonzeros, mut baseline_ops) = (0, 0);
                buffers
                    .dfg
                    .refill_where(weights.patch_size(), rows.clone(), |terms, row| {
                        nonzeros += terms.len() as u64;
                        baseline_ops += terms.len().saturating_sub(1) as u64;
                        let inert = terms.len() < 2;
                        if let Some(shapes) = shapes.as_mut().filter(|_| walks_unroll || inert) {
                            let shape = shapes.shape(terms, |buffers| {
                                buffers.dfg.refill(weights.patch_size(), [row]);
                                buffers.allocate();
                                lowering.lower(buffers, channel_in_group)
                            });
                            for (booked, &cse) in shape_rows.iter_mut().zip(&cse_settings) {
                                if !cse || inert {
                                    if booked.len() <= shape {
                                        booked.resize(shape + 1, 0);
                                    }
                                    booked[shape] += 1;
                                }
                            }
                        }
                        terms.len() >= min_terms
                    });
                for variant in variants.iter_mut().flatten() {
                    variant.stats.nonzero_weights += nonzeros;
                    variant.stats.baseline_adds_subs += baseline_ops;
                    variant.stats += lowering.slice_stats();
                }

                let mut unroll = (shapes.is_none() && wants(&variants, false)).then(|| {
                    buffers.allocate();
                    lowering.lower(&mut buffers, channel_in_group)
                });
                // A slice whose rows are all booked by shape has nothing to lower.
                let cse_lowers = wants(&variants, true) && !buffers.dfg.outputs.is_empty();
                let mut cse = cse_lowers.then(|| {
                    buffers.dfg.apply_cse_with(&mut buffers.cse)?;
                    if buffers.allocate() <= layout.temp_budget {
                        return lowering.lower(&mut buffers, channel_in_group);
                    }
                    // Fall back to the un-CSE'd slice rather than spilling temporaries.
                    let mut fallback = match &unroll {
                        Some(lowered) => lowered.clone(),
                        None => {
                            buffers
                                .dfg
                                .refill_where(weights.patch_size(), rows, |terms, _| {
                                    terms.len() >= min_terms
                                });
                            buffers.allocate();
                            lowering.lower(&mut buffers, channel_in_group)
                        }
                    }?;
                    fallback.stats.cse_fallbacks += 1;
                    Ok(fallback)
                });

                for (variant, setting) in variants.iter_mut().zip(cse_settings) {
                    let lowered = if setting { cse.take() } else { unroll.take() };
                    let (Ok(accumulated), Some(lowered)) = (&mut *variant, lowered) else {
                        continue;
                    };
                    match lowered {
                        Ok(lowered) => {
                            accumulated.stats += lowered.stats;
                            if let (Some(slices), Some(program)) =
                                (accumulated.slices.as_mut(), lowered.program)
                            {
                                slices.push(CompiledSlice {
                                    channel,
                                    channel_in_group,
                                    tile,
                                    program,
                                });
                            }
                        }
                        Err(error) => *variant = Err(error),
                    }
                }
            }
        }

        if let Some(shapes) = &shapes {
            for (variant, booked) in variants.iter_mut().zip(&shape_rows) {
                if let Ok(accumulated) = variant {
                    match shapes.total(booked) {
                        Ok(stats) => accumulated.stats += stats,
                        Err(error) => *variant = Err(error),
                    }
                }
            }
        }

        variants.map(|variant| {
            variant.map(|variant| CompiledLayer {
                name: layer.name.clone(),
                cin: layer.cin,
                cout: layer.cout,
                kernel: layer.kernel,
                output_positions: layer.output_positions(),
                layout: layout.clone(),
                stats: variant.stats,
                slices: variant.slices,
            })
        })
    }

    /// Compiles every weighted layer of `model`, in network order.
    ///
    /// Layers are compiled concurrently (one rayon job per layer — the hot
    /// path of a full-network evaluation). Each layer's compilation is
    /// self-contained, so the result is bit-identical to compiling the layers
    /// sequentially, regardless of the worker count (including
    /// `RAYON_NUM_THREADS=1`).
    ///
    /// # Errors
    ///
    /// Returns the first (in network order) failing layer's error. Note the
    /// parallel map is eager: other layers may still be compiled before the
    /// error is reported.
    pub fn compile_model(&self, model: &ModelGraph) -> Result<Vec<CompiledLayer>> {
        model
            .conv_like_layers()
            .into_par_iter()
            .map(|layer| self.compile(&layer))
            .collect()
    }
}

/// One CSE setting's result as the slice walk accumulates it.
struct Variant {
    stats: CompileStats,
    slices: Option<Vec<CompiledSlice>>,
}

/// One lowered and costed slice: what it adds to its variant's
/// [`CompileStats`], and its program when programs are retained.
#[derive(Clone)]
struct LoweredSlice {
    stats: CompileStats,
    program: Option<ApProgram>,
}

/// The per-slice state of the slice walk: the slice's DFG, the CSE, allocation
/// and bitwidth buffers, and the allocation itself. Each slice clears and
/// refills them, so they keep their capacity from one slice to the next and,
/// once grown, a slice allocates nothing unless its program is retained.
#[derive(Default)]
struct SliceBuffers {
    dfg: Dfg,
    cse: cse::Workspace,
    allocator: Allocator,
    allocation: Allocation,
    widths: Vec<u8>,
}

impl SliceBuffers {
    /// Schedules and colours the current DFG; returns the temporary columns it
    /// needs.
    fn allocate(&mut self) -> usize {
        self.allocator.allocate(&self.dfg, &mut self.allocation);
        self.allocation.temp_columns_used
    }
}

/// Everything slice lowering needs that is fixed per layer.
struct Lowering<'a> {
    keep_programs: bool,
    layout: &'a LayerLayout,
    per_row_model: &'a CostModel,
}

impl Lowering<'_> {
    /// Generates and costs the program of the DFG in `buffers` under its
    /// allocation, in one pass.
    fn lower(&self, buffers: &mut SliceBuffers, channel_in_group: usize) -> Result<LoweredSlice> {
        let SliceBuffers {
            dfg,
            allocation,
            widths,
            ..
        } = buffers;
        signal_widths_into(dfg, self.layout.act_bits, widths);
        let generated = codegen::generate(
            dfg,
            widths,
            allocation,
            self.layout,
            channel_in_group,
            self.per_row_model,
            self.keep_programs,
        )?;
        let (dfg_cost, acc_cost) = (generated.dfg_cost, generated.accumulation_cost);
        let stats = CompileStats {
            counted_adds_subs: generated.counted_ops,
            accumulate_ops: generated.accumulate_ops,
            in_place: generated.in_place,
            out_of_place: generated.out_of_place,
            cse_signals: dfg.signals.derived() as u64,
            total_cycles: dfg_cost.compute_cycles() + acc_cost.compute_cycles(),
            dfg: dfg_cost,
            accumulation: acc_cost,
            max_temp_columns: generated.temp_columns_used as u64,
            ..CompileStats::default()
        };
        Ok(LoweredSlice {
            stats,
            program: self.keep_programs.then_some(generated.program),
        })
    }

    /// What every slice books besides its lowering, however its rows
    /// compile: itself, and the staging of its patch inputs.
    fn slice_stats(&self) -> CompileStats {
        CompileStats {
            dfg: CamStats {
                io_written_bits: (self.layout.patch_size as u64) * self.layout.act_bits as u64,
                ..CamStats::new()
            },
            slices: 1,
            ..CompileStats::default()
        }
    }
}

/// The statistics of rows booked by shape rather than per slice.
///
/// An `unroll` DFG has no derived signals, so each output row is an
/// independent chain of `act_bits`-wide unsigned patch inputs, and what
/// [`Lowering::lower`] books for it depends only on the sign sequence of its
/// terms: no cost formula reads an operand's column. The table lowers one
/// row of each sign sequence, through that same lowering, the first time the
/// sequence appears; a variant counts the rows it books per sequence, and a
/// slice's statistics are the sum of its rows' (the walk books
/// [`Lowering::slice_stats`] per slice).
///
/// `unroll` books every row here. `unroll+CSE` books its CSE-inert rows
/// here, those of at most one term: such a row shares no pair with any other,
/// so CSE never rewrites it, and it lowers to at most one accumulation that
/// defines and uses no temporary. Leaving it out of its slice's DFG keeps the
/// order of every definition and last use in the schedule, so the slice
/// colours to the same temporaries, and its lowering is the sum of the
/// other rows' and the inert rows' own.
struct RowShapes {
    /// A binary trie over sign sequences, node 0 being the empty one: each
    /// node's children by the sign of the next term (positive, negative), 0
    /// where absent, and the index in `lowered` of the sequence ending there.
    nodes: Vec<([usize; 2], Option<usize>)>,
    /// Per distinct sign sequence: one row's lowering.
    lowered: Vec<Result<CompileStats>>,
    /// The buffers of the one-row lowerings.
    buffers: SliceBuffers,
}

impl RowShapes {
    fn new() -> Self {
        RowShapes {
            nodes: vec![([0; 2], None)],
            lowered: Vec::new(),
            buffers: SliceBuffers::default(),
        }
    }

    /// The index of the sign sequence of `terms`; if it is new, `lower`
    /// lowers the row in the buffers it is given.
    fn shape(
        &mut self,
        terms: &[(SignalId, i8)],
        lower: impl FnOnce(&mut SliceBuffers) -> Result<LoweredSlice>,
    ) -> usize {
        let mut node = 0;
        for &(_, sign) in terms {
            let sign = usize::from(sign < 0);
            node = match self.nodes[node].0[sign] {
                0 => {
                    let child = self.nodes.len();
                    self.nodes[node].0[sign] = child;
                    self.nodes.push(([0; 2], None));
                    child
                }
                child => child,
            };
        }
        *self.nodes[node].1.get_or_insert_with(|| {
            let row_stats = lower(&mut self.buffers).map(|lowered| lowered.stats);
            self.lowered.push(row_stats);
            self.lowered.len() - 1
        })
    }

    /// The statistics of `rows[shape]` rows of each shape, or the first error
    /// met lowering a counted one.
    fn total(&self, rows: &[u64]) -> Result<CompileStats> {
        self.lowered
            .iter()
            .zip(rows)
            .filter(|&(_, &rows)| rows > 0)
            .try_fold(CompileStats::default(), |total, (row, &rows)| {
                Ok(total + row.clone()? * rows)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate;
    use crate::bitwidth::signal_widths;
    use crate::dfg::WeightSlice;
    use crate::ApcError;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tnn::model::{micro_cnn, resnet18, vgg9, ModelGraph};
    use tnn::TernaryTensor;

    fn small_model() -> ModelGraph {
        vgg9(0.85, 7)
    }

    /// The per-variant compile loop the slice walk replaced, kept as an
    /// oracle: it extracts a [`WeightSlice`] per slice, builds the DFG from
    /// it, and rebuilds the un-CSE'd DFG for a fallback.
    fn compile_reference(options: CompilerOptions, layer: &ConvLayerInfo) -> Result<CompiledLayer> {
        let layout = LayerLayout::for_layer(
            options.geometry,
            options.act_bits,
            layer,
            options.temp_budget,
        )?;
        let per_row_model = CostModel::new(1);
        let mut stats = CompileStats::new();
        let mut slices = options.keep_programs.then(Vec::new);
        for tile in 0..layout.output_tiles {
            let range = layout.tile_range(tile, layer.cout);
            if range.is_empty() {
                continue;
            }
            for instruction in codegen::tile_prologue(&layout, range.len()).iter() {
                let counters = per_row_model.instruction_stats(instruction);
                stats.total_cycles += counters.compute_cycles();
                stats.dfg += counters;
            }
            for channel in 0..layer.cin {
                let channel_in_group = channel % layout.channels_per_group;
                let slice = WeightSlice::from_layer_channel(layer, channel, range.clone())?;
                stats.nonzero_weights += slice.nonzeros() as u64;
                let mut dfg = Dfg::from_slice(&slice);
                stats.baseline_adds_subs += dfg.op_count().total() as u64;
                if options.enable_cse {
                    dfg.apply_cse()?;
                }
                let mut widths = signal_widths(&dfg, options.act_bits);
                let mut allocation = allocate(&dfg);
                if allocation.temp_columns_used > layout.temp_budget {
                    dfg = Dfg::from_slice(&slice);
                    widths = signal_widths(&dfg, options.act_bits);
                    allocation = allocate(&dfg);
                    stats.cse_fallbacks += 1;
                }
                // The oracle always builds the program and costs it instruction
                // by instruction.
                let generated = codegen::generate(
                    &dfg,
                    &widths,
                    &allocation,
                    &layout,
                    channel_in_group,
                    &per_row_model,
                    true,
                )?;
                for instruction in generated.program.iter() {
                    let counters = per_row_model.instruction_stats(instruction);
                    stats.total_cycles += counters.compute_cycles();
                    if instruction
                        .destinations()
                        .iter()
                        .any(|d| d.col >= layout.acc_col_start)
                    {
                        stats.accumulation += counters;
                    } else {
                        stats.dfg += counters;
                    }
                }
                stats.counted_adds_subs += generated.counted_ops;
                stats.accumulate_ops += generated.accumulate_ops;
                stats.in_place += generated.in_place;
                stats.out_of_place += generated.out_of_place;
                stats.cse_signals += dfg.signals.derived() as u64;
                stats.dfg.io_written_bits += (layout.patch_size as u64) * layout.act_bits as u64;
                stats.max_temp_columns = stats
                    .max_temp_columns
                    .max(generated.temp_columns_used as u64);
                stats.slices += 1;
                if let Some(slices) = slices.as_mut() {
                    slices.push(CompiledSlice {
                        channel,
                        channel_in_group,
                        tile,
                        program: generated.program,
                    });
                }
            }
        }
        Ok(CompiledLayer {
            name: layer.name.clone(),
            cin: layer.cin,
            cout: layer.cout,
            kernel: layer.kernel,
            output_positions: layer.output_positions(),
            layout,
            stats,
            slices,
        })
    }

    /// Asserts that the walk equals the oracle on every one of `layers`, for
    /// both variants at once (`enable_cse` aside, under `options`) and for the
    /// variant of `options` alone; returns the CSE fallbacks seen.
    fn assert_walk_matches_oracle(layers: &[ConvLayerInfo], options: CompilerOptions) -> u64 {
        let compiler = LayerCompiler::new(options);
        let mut fallbacks = 0;
        for layer in layers {
            let [unroll, cse] = compiler.compile_both(layer);
            for (walked, enable_cse) in [(unroll, false), (cse, true)] {
                let variant = CompilerOptions {
                    enable_cse,
                    ..options
                };
                let expected = compile_reference(variant, layer);
                if enable_cse == options.enable_cse {
                    assert_eq!(compiler.compile(layer), expected, "{} alone", layer.name);
                }
                assert_eq!(walked, expected, "{} cse={enable_cse}", layer.name);
                if let Ok(compiled) = expected {
                    fallbacks += compiled.stats.cse_fallbacks;
                }
            }
        }
        fallbacks
    }

    #[test]
    fn walk_matches_the_per_variant_oracle() {
        for model in [micro_cnn("micro", 8, 0.8, 1), vgg9(0.85, 1)] {
            for options in [
                CompilerOptions::default(),
                CompilerOptions::unroll_only(),
                CompilerOptions::default().with_act_bits(8),
                CompilerOptions::default().with_programs(),
            ] {
                assert_walk_matches_oracle(&model.conv_like_layers(), options);
            }
        }
    }

    #[test]
    fn walk_reuses_the_unroll_slice_for_cse_fallbacks() {
        for (temp_budget, options) in [
            (1, CompilerOptions::default()),
            (2, CompilerOptions::default().with_programs()),
        ] {
            let options = CompilerOptions {
                temp_budget,
                ..options
            };
            let fallbacks = assert_walk_matches_oracle(&vgg9(0.85, 1).conv_like_layers(), options);
            assert!(fallbacks > 0, "budget {temp_budget} forces fallbacks");
        }
    }

    #[test]
    #[ignore = "compiles ResNet-18 three times over per setting; run in release"]
    fn walk_matches_the_per_variant_oracle_on_resnet18() {
        // 8-bit activations, and a budget of two temporaries, which forces CSE
        // fallbacks on slices that also hold inert rows.
        let tight = CompilerOptions {
            temp_budget: 2,
            ..CompilerOptions::default()
        };
        for model in [resnet18(0.8, 7), resnet18(0.5, 3)] {
            let layers = model.conv_like_layers();
            assert_walk_matches_oracle(&layers, CompilerOptions::default());
            assert_walk_matches_oracle(&layers, CompilerOptions::default().with_act_bits(8));
            assert!(assert_walk_matches_oracle(&layers, tight) > 0);
        }
    }

    #[test]
    fn prop_inert_rows_and_fallbacks_match_the_oracle() {
        // The cases `proptest!` would draw, run here so that the census of
        // what they covered can be asserted once they all have run.
        let strategy = (
            any::<u64>(),
            (1usize..=48, 1usize..=3, any::<bool>()),
            0.5f64..0.97,
            (1usize..=3, any::<bool>()),
        );
        let (mut all_inert, mut fallback_with_inert) = (0, 0);
        for case in 0..48 {
            let mut rng = TestRng::deterministic("prop_inert_rows_and_fallbacks", case);
            let (seed, (cout, cin, square), sparsity, (temp_budget, eight_bit)) =
                strategy.sample(&mut rng);
            let kernel = if square { 3 } else { 1 };
            let mut layer = square_layer("random", [cout, cin, kernel, 1, 8], sparsity);
            layer.weights = TernaryTensor::random(vec![cout, cin, kernel, kernel], sparsity, seed);
            let options = CompilerOptions {
                act_bits: if eight_bit { 8 } else { 4 },
                temp_budget,
                ..CompilerOptions::default()
            };
            for enable_cse in [false, true] {
                let options = CompilerOptions {
                    enable_cse,
                    ..options
                };
                assert_walk_matches_oracle(std::slice::from_ref(&layer), options);
            }
            // Census: slices of inert rows only, and fallback slices with some.
            let layout =
                LayerLayout::for_layer(options.geometry, options.act_bits, &layer, temp_budget)
                    .expect("layout");
            for tile in 0..layout.output_tiles {
                for channel in 0..cin {
                    let range = layout.tile_range(tile, cout);
                    let slice =
                        WeightSlice::from_layer_channel(&layer, channel, range).expect("slice");
                    let inert = slice
                        .rows()
                        .iter()
                        .filter(|row| row.iter().filter(|&&w| w != 0).count() < 2)
                        .count();
                    let mut dfg = Dfg::from_slice(&slice);
                    dfg.apply_cse().expect("cse");
                    let falls_back = allocate(&dfg).temp_columns_used > temp_budget;
                    all_inert += u32::from(inert == slice.outputs());
                    fallback_with_inert += u32::from(falls_back && inert > 0);
                }
            }
        }
        assert!(all_inert > 0, "no slice of inert rows only");
        assert!(fallback_with_inert > 0, "no fallback slice with inert rows");
    }

    /// A square-kernel layer of random ternary weights, `sparsity` of them
    /// zero, on a `side × side` input, with `stride` and `kernel / 2`
    /// padding.
    fn square_layer(
        name: &str,
        [cout, cin, kernel, stride, side]: [usize; 5],
        sparsity: f64,
    ) -> ConvLayerInfo {
        let output = (side + 2 * (kernel / 2) - kernel) / stride + 1;
        ConvLayerInfo {
            node_id: 0,
            name: name.to_string(),
            cin,
            cout,
            kernel: (kernel, kernel),
            stride,
            padding: kernel / 2,
            input_hw: (side, side),
            output_hw: (output, output),
            weights: TernaryTensor::random(vec![cout, cin, kernel, kernel], sparsity, 5),
        }
    }

    #[test]
    fn walk_matches_the_oracle_on_shapes_resnet18_does_not_reach() {
        // The 7×7 stem; an 11×11 kernel, whose 121 taps no single 64-bit sign
        // mask can key; dense rows; and all-zero slices: input channels 1 and
        // 4 of a 40 % sparse layer, plus one all-zero output row.
        let mut zero_slices = square_layer("zero_slices", [40, 6, 3, 1, 8], 0.4);
        let mut weights = zero_slices.weights.as_slice().to_vec();
        for (index, weight) in weights.iter_mut().enumerate() {
            let (ofm, channel) = (index / (6 * 9), index / 9 % 6);
            if channel == 1 || channel == 4 || ofm == 7 {
                *weight = 0;
            }
        }
        zero_slices.weights = TernaryTensor::from_vec(vec![40, 6, 3, 3], weights).expect("ternary");
        // 11×11 rows that agree on their first 64 terms and differ after:
        // row r keeps 121 − 8r taps, negated past tap 64 when r is odd.
        let mut long_rows = square_layer("long_rows", [12, 1, 11, 4, 32], 0.0);
        let weights = (0..12 * 121)
            .map(|index| match (index / 121, index % 121) {
                (row, tap) if tap >= 121 - 8 * row => 0,
                (row, tap) if tap >= 64 && row % 2 == 1 => -1,
                _ => 1,
            })
            .collect();
        long_rows.weights = TernaryTensor::from_vec(vec![12, 1, 11, 11], weights).expect("ternary");
        let layers = [
            square_layer("stem", [64, 3, 7, 2, 224], 0.8),
            square_layer("k11", [110, 1, 11, 4, 32], 0.4),
            long_rows,
            square_layer("dense", [24, 4, 3, 1, 8], 0.0),
            zero_slices,
        ];
        for options in [
            CompilerOptions::default(),
            CompilerOptions::unroll_only(),
            CompilerOptions::default().with_act_bits(8),
            CompilerOptions::default().with_programs(),
        ] {
            for layer in &layers {
                assert!(
                    LayerCompiler::new(options).compile(layer).is_ok(),
                    "{}",
                    layer.name
                );
            }
            assert_walk_matches_oracle(&layers, options);
        }
        // A budget of one temporary forces CSE fallbacks.
        let tight = CompilerOptions {
            temp_budget: 1,
            ..CompilerOptions::default()
        };
        assert!(assert_walk_matches_oracle(&layers, tight) > 0);
    }

    /// A layer of one input channel: `outputs` rows of `side × side` weights
    /// drawn from `seed`, each zero with probability `sparsity` and otherwise ±1.
    /// Each of its slices is one output tile.
    fn one_channel_layer(seed: u64, outputs: usize, side: usize, sparsity: f64) -> ConvLayerInfo {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let weights = (0..outputs * side * side)
            .map(|_| match (rng.gen_bool(sparsity), rng.gen_bool(0.5)) {
                (true, _) => 0,
                (false, true) => 1,
                (false, false) => -1,
            })
            .collect();
        ConvLayerInfo {
            node_id: 0,
            name: "one-channel".to_string(),
            cin: 1,
            cout: outputs,
            kernel: (side, side),
            stride: 1,
            padding: side / 2,
            input_hw: (8, 8),
            output_hw: (8, 8),
            weights: TernaryTensor::from_vec(vec![outputs, 1, side, side], weights)
                .expect("ternary weights"),
        }
    }

    /// The instruction counts and cost fields of `compiled.stats`, recomputed
    /// from its retained programs: every instruction costed by
    /// [`CostModel::instruction_stats`] into the accumulation half when its
    /// destination is an accumulator column and into the DFG half otherwise,
    /// plus the tile prologues and the staging of every slice's patch inputs.
    fn stats_from_programs(compiled: &CompiledLayer) -> (u64, u64, u64, CamStats, CamStats) {
        let model = CostModel::new(1);
        let layout = &compiled.layout;
        let mut dfg = CamStats::new();
        let mut accumulation = CamStats::new();
        let (mut in_place, mut out_of_place) = (0, 0);
        for tile in 0..layout.output_tiles {
            let outputs = layout.tile_range(tile, compiled.cout).len();
            if outputs > 0 {
                dfg += codegen::tile_prologue(layout, outputs)
                    .iter()
                    .map(|instruction| model.instruction_stats(instruction))
                    .sum();
            }
        }
        for slice in compiled.slices.as_ref().expect("programs retained") {
            in_place += slice.program.in_place_count() as u64;
            out_of_place += slice.program.out_of_place_count() as u64;
            dfg.io_written_bits += (layout.patch_size * usize::from(layout.act_bits)) as u64;
            for instruction in slice.program.iter() {
                let counters = model.instruction_stats(instruction);
                if instruction
                    .destinations()
                    .iter()
                    .any(|d| d.col >= layout.acc_col_start)
                {
                    accumulation += counters;
                } else {
                    dfg += counters;
                }
            }
        }
        let total_cycles = dfg.compute_cycles() + accumulation.compute_cycles();
        (in_place, out_of_place, total_cycles, dfg, accumulation)
    }

    /// The fields of `stats` that [`stats_from_programs`] recomputes.
    fn program_fields(stats: &CompileStats) -> (u64, u64, u64, CamStats, CamStats) {
        (
            stats.in_place,
            stats.out_of_place,
            stats.total_cycles,
            stats.dfg,
            stats.accumulation,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn prop_costing_while_generating_matches_costing_the_programs(
            seed in any::<u64>(),
            outputs in 1usize..=256,
            square in any::<bool>(),
            sparsity in 0.3f64..0.9,
            eight_bit in any::<bool>(),
            budget in 0usize..4,
        ) {
            // Budgets of 0–2 temporaries force CSE fallbacks; 32 is the default.
            let temp_budget = [0, 1, 2, 32][budget];
            let layer = one_channel_layer(seed, outputs, if square { 3 } else { 1 }, sparsity);
            let options = CompilerOptions {
                act_bits: if eight_bit { 8 } else { 4 },
                temp_budget,
                ..CompilerOptions::default()
            };
            let analytic = LayerCompiler::new(options).compile_both(&layer);
            let kept = LayerCompiler::new(options.with_programs()).compile_both(&layer);
            for (analytic, kept) in analytic.into_iter().zip(kept) {
                let (analytic, kept) = (analytic.expect("compile"), kept.expect("compile"));
                prop_assert_eq!(&program_fields(&analytic.stats), &stats_from_programs(&kept));
                prop_assert_eq!(
                    &analytic,
                    &CompiledLayer {
                        slices: None,
                        ..kept
                    }
                );
            }
        }
    }

    #[test]
    fn malformed_weight_shapes_are_typed_errors() {
        let model = small_model();
        let layer = &model.conv_like_layers()[1];
        let (fh, fw) = layer.kernel;
        let reshaped = |shape: Vec<usize>| {
            let len = shape.iter().product();
            let mut malformed = layer.clone();
            malformed.weights = TernaryTensor::from_vec(shape, vec![1; len]).expect("tensor");
            malformed
        };
        let mut transposed = layer.clone();
        transposed.kernel = (1, 9);
        for malformed in [
            transposed,
            reshaped(vec![layer.cout - 1, layer.cin, fh, fw]),
            reshaped(vec![layer.cout, layer.cin - 1, fh, fw]),
            reshaped(vec![layer.cout, layer.cin, fh]),
            reshaped(vec![layer.cout * layer.cin * fh * fw]),
        ] {
            for options in [CompilerOptions::default(), CompilerOptions::unroll_only()] {
                let error = LayerCompiler::new(options)
                    .compile(&malformed)
                    .expect_err("malformed weights");
                assert!(
                    matches!(error, ApcError::InvalidArgument { .. }),
                    "{error:?}"
                );
            }
            for result in LayerCompiler::new(CompilerOptions::default()).compile_both(&malformed) {
                assert!(matches!(result, Err(ApcError::InvalidArgument { .. })));
            }
        }
    }

    #[test]
    fn cse_reduces_adds_on_a_real_layer() {
        let model = small_model();
        let layer = &model.conv_like_layers()[1]; // 64 -> 64, 3x3 on 32x32
        let with_cse = LayerCompiler::new(CompilerOptions::default())
            .compile(layer)
            .expect("compile");
        let without = LayerCompiler::new(CompilerOptions::unroll_only())
            .compile(layer)
            .expect("compile");
        assert!(with_cse.stats.counted_adds_subs < without.stats.counted_adds_subs);
        assert_eq!(
            without.stats.counted_adds_subs,
            without.stats.baseline_adds_subs
        );
        assert!(
            with_cse.stats.cse_reduction() > 0.05,
            "reduction {}",
            with_cse.stats.cse_reduction()
        );
        // Cheaper in ops means cheaper in cycles, too.
        assert!(with_cse.stats.total_cycles < without.stats.total_cycles);
    }

    #[test]
    fn four_bit_activations_are_cheaper_than_eight_bit() {
        let model = small_model();
        let layer = &model.conv_like_layers()[1];
        let four = LayerCompiler::new(CompilerOptions::default().with_act_bits(4))
            .compile(layer)
            .expect("compile");
        let eight = LayerCompiler::new(CompilerOptions::default().with_act_bits(8))
            .compile(layer)
            .expect("compile");
        assert_eq!(four.stats.counted_adds_subs, eight.stats.counted_adds_subs);
        assert!(four.stats.total_cycles < eight.stats.total_cycles);
        assert!(four.layout.channels_per_group > eight.layout.channels_per_group);
    }

    #[test]
    fn op_counts_scale_with_sparsity() {
        let dense_model = vgg9(0.5, 11);
        let sparse_model = vgg9(0.9, 11);
        let compiler = LayerCompiler::new(CompilerOptions::default());
        let dense = compiler
            .compile(&dense_model.conv_like_layers()[1])
            .expect("compile");
        let sparse = compiler
            .compile(&sparse_model.conv_like_layers()[1])
            .expect("compile");
        assert!(sparse.stats.counted_adds_subs < dense.stats.counted_adds_subs);
        assert!(sparse.stats.nonzero_weights < dense.stats.nonzero_weights);
    }

    #[test]
    fn layer_metadata_is_propagated() {
        let model = small_model();
        let layer = &model.conv_like_layers()[0];
        let compiled = LayerCompiler::new(CompilerOptions::default())
            .compile(layer)
            .expect("compile");
        assert_eq!(compiled.name, layer.name);
        assert_eq!(compiled.cin, layer.cin);
        assert_eq!(compiled.cout, layer.cout);
        assert_eq!(compiled.output_positions, 32 * 32);
        assert_eq!(compiled.arrays(), 4);
        assert_eq!(
            compiled.stats.slices,
            (layer.cin * compiled.layout.output_tiles) as u64
        );
        assert!(compiled.slices.is_none());
    }

    #[test]
    fn keep_programs_retains_every_slice() {
        let model = small_model();
        let layer = &model.conv_like_layers()[0];
        let compiled = LayerCompiler::new(CompilerOptions::default().with_programs())
            .compile(layer)
            .expect("compile");
        let slices = compiled.slices.expect("programs retained");
        assert_eq!(slices.len(), layer.cin * compiled.layout.output_tiles);
        assert!(slices
            .iter()
            .all(|s| !s.program.is_empty() || s.channel >= layer.cin));
    }

    #[test]
    fn in_place_fraction_is_high() {
        let model = small_model();
        let layer = &model.conv_like_layers()[1];
        let compiled = LayerCompiler::new(CompilerOptions::default())
            .compile(layer)
            .expect("compile");
        assert!(
            compiled.stats.in_place_fraction() > 0.5,
            "fraction {}",
            compiled.stats.in_place_fraction()
        );
    }
}
