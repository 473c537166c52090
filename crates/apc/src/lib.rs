//! Compilation framework for RTM-based associative processors (§IV of the paper).
//!
//! The compiler takes a trained ternary-weight network and produces, for every
//! convolution (or fully connected) layer, the sequence of associative-processor
//! instructions that computes it with additions and subtractions only. The flow
//! mirrors Fig. 3 of the paper:
//!
//! 1. **Loop transformations** ([`loopir`]) — interchange, unrolling and fission of
//!    the convolution loop nest expose the weight slice convolved on the same input
//!    patch.
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
pub mod loopir;
pub mod partition;
mod passes;
mod stats;

pub use cache::{CacheStats, CompileCache, LayerSignature, PlanSummary, SignedLayer, SlicePlans};
pub use error::ApcError;
pub use partition::{
    plan_stages, PartitionCompiler, PartitionPlan, PartitionReport, PartitionUnit, StageLayer,
    StageShape, TileGrid,
};
pub use passes::{CompiledLayer, CompiledSlice, CompilerOptions, LayerCompiler};
pub use stats::CompileStats;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ApcError>;
