//! Compilation framework for RTM-based associative processors (§IV of the paper).
//!
//! The compiler takes a trained ternary-weight network and produces, for every
//! convolution (or fully connected) layer, the sequence of associative-processor
//! instructions that computes it with additions and subtractions only. The flow
//! mirrors Fig. 3 of the paper:
//!
//! 1. **Loop transformations** — [`LayerCompiler`] walks a layer one weight slice
//!    (one input channel against one output tile) at a time. That walk is the
//!    paper's schedule: the output-channel loop moved inside the input-channel loop
//!    (interchange), the kernel and output-channel loops of a slice fully unrolled,
//!    and the input-channel loop split into independent slices (fission). Each slice
//!    exposes the weights convolved on the same input patch.
//! 2. **Constant weight folding / DFG generation** ([`dfg`], [`expr`]) — ternary
//!    weights `{-1, 0, 1}` turn multiplications into signed accumulations of patch
//!    inputs.
//! 3. **Common subexpression elimination** ([`cse`]) — shared `±xi ±xj` pairs across
//!    the output channels of one input channel are computed once.
//! 4. **Bitwidth annotation** ([`bitwidth`]) — every DFG value gets the narrowest
//!    integer type that is guaranteed not to overflow.
//! 5. **Column allocation** ([`alloc`]) — DFG temporaries are assigned CAM columns by
//!    graph colouring of the interference graph.
//! 6. **In-/out-of-place selection and code generation** ([`codegen`]) — operations
//!    whose operand dies are executed in place (8 cycles/bit), others out of place
//!    (10 cycles/bit), and values used several times are written to multiple columns
//!    in the same cycle so their consumers can stay in place.
//!
//! The top-level entry point is [`LayerCompiler`] with [`CompilerOptions`]; the result
//! is a [`CompiledLayer`] holding operation counts, per-slice cost summaries, the CAM
//! layout, and optionally the full instruction streams for functional simulation.
//!
//! # Example
//!
//! ```
//! use apc::{CompilerOptions, LayerCompiler};
//! use tnn::model::vgg9;
//!
//! let model = vgg9(0.85, 1);
//! let layer = &model.conv_like_layers()[0];
//! let compiler = LayerCompiler::new(CompilerOptions::default());
//! let compiled = compiler.compile(layer).expect("compile");
//! assert!(compiled.stats.arithmetic_ops() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod bitwidth;
pub mod cache;
pub mod codegen;
pub mod cse;
pub mod dfg;
mod error;
pub mod expr;
pub mod layout;
pub mod partition;
mod passes;
mod stats;

pub use cache::{CacheStats, CompileCache, LayerDims, LayerSignature, PlanSummary, SlicePlans};
pub use error::ApcError;
pub use partition::{
    plan_stages, PartitionCompiler, PartitionPlan, PartitionReport, PartitionUnit, StageLayer,
    StageShape, TileGrid,
};
pub use passes::{CompiledLayer, CompiledSlice, CompilerOptions, LayerCompiler};
pub use stats::CompileStats;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ApcError>;

/// The loop schedule of Fig. 3b–d (interchange, full unrolling, fission) as
/// [`LayerCompiler`]'s slice walk applies it.
#[cfg(test)]
mod loopir {
    mod tests {
        use crate::dfg::WeightSlice;
        use crate::{CompilerOptions, LayerCompiler};
        use tnn::model::{vgg9, ConvLayerInfo};

        fn first_conv() -> ConvLayerInfo {
            vgg9(0.85, 1).conv_like_layers()[0].clone()
        }

        #[test]
        fn schedule_moves_ofm_to_third_innermost() {
            let layer = first_conv();
            let compiled = LayerCompiler::new(CompilerOptions::default().with_programs())
                .compile(&layer)
                .expect("compile");
            assert_eq!(compiled.layout.output_tiles, 1);
            // The input channel is the outermost loop of the walk ...
            let channels: Vec<usize> = compiled
                .slices
                .expect("programs retained")
                .iter()
                .map(|slice| slice.channel)
                .collect();
            assert_eq!(channels, (0..layer.cin).collect::<Vec<_>>());
            // ... the output positions are the SIMD rows ...
            assert_eq!(compiled.layout.output_positions, layer.output_positions());
            // ... and the output channels sit inside it, above the kernel loops:
            // one slice holds every output channel's whole kernel.
            let slice = WeightSlice::from_layer_channel(
                &layer,
                0,
                compiled.layout.tile_range(0, layer.cout),
            )
            .expect("slice");
            assert_eq!(slice.outputs(), layer.cout);
            assert_eq!(slice.patch_size(), layer.kernel.0 * layer.kernel.1);
        }

        #[test]
        fn schedule_exposes_weight_slice_redundancy() {
            let layer = first_conv();
            let compiled = LayerCompiler::new(CompilerOptions::unroll_only())
                .compile(&layer)
                .expect("compile");
            let range = compiled.layout.tile_range(0, layer.cout);
            let slices: Vec<WeightSlice> = (0..layer.cin)
                .map(|channel| WeightSlice::from_layer_channel(&layer, channel, range.clone()))
                .collect::<Result<_, _>>()
                .expect("slices");
            // Fission gives one body per input channel, each unrolled over the
            // output channels and the kernel.
            assert_eq!(compiled.stats.slices, layer.cin as u64);
            for slice in &slices {
                assert_eq!(
                    slice.outputs() * slice.patch_size(),
                    layer.cout * layer.kernel.0 * layer.kernel.1
                );
            }
            assert_eq!(compiled.output_positions, layer.output_positions());
            // The bodies together hold every weight once, and the compiler keeps
            // exactly their non-zero ones.
            let code_size: usize = slices.iter().map(|s| s.outputs() * s.patch_size()).sum();
            assert_eq!(
                code_size,
                layer.cout * layer.cin * layer.kernel.0 * layer.kernel.1
            );
            assert_eq!(code_size, layer.weights.len());
            let nonzeros: usize = slices.iter().map(WeightSlice::nonzeros).sum();
            assert_eq!(compiled.stats.nonzero_weights, nonzeros as u64);
        }
    }
}
