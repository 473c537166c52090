//! Accelerator-level model of the RTM-AP architecture (Fig. 2a–c of the paper).
//!
//! The accelerator is a hierarchy of banks, tiles and associative processors (APs),
//! with buffers and an interconnection network. This crate maps compiled layers
//! ([`apc::CompiledLayer`]) onto that hierarchy and produces per-layer and
//! end-to-end reports of energy (split into DFG, accumulation, peripherals and data
//! movement — the components of Fig. 4), latency, array counts, data movement and
//! write endurance.
//!
//! The [`NetworkSimulator`] here is the *analytic* evaluation path: it prices a
//! compiled network with the closed-form `ap::CostModel` and scales to
//! ImageNet. Its execution counterpart is the `functional` backend of the
//! `camdnn` crate, which runs the same compiled programs bit-serially on the
//! word-parallel `ap::ApEngine` over the same [`ArchConfig`] geometry and
//! technology — use that path when counters must come from execution rather
//! than a model.
//!
//! # Example
//!
//! ```
//! use accel::{AcceleratorModel, ArchConfig};
//! use apc::{CompilerOptions, LayerCompiler};
//! use tnn::model::vgg9;
//!
//! let model = vgg9(0.85, 1);
//! let compiler = LayerCompiler::new(CompilerOptions::default());
//! let compiled = compiler.compile(&model.conv_like_layers()[0]).expect("compile");
//! let accelerator = AcceleratorModel::new(ArchConfig::default());
//! let report = accelerator.simulate_layer(&compiled);
//! assert!(report.energy.total_fj() > 0.0);
//! assert!(report.latency.total_ns() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod report;

pub use config::ArchConfig;
pub use engine::{AcceleratorModel, NetworkSimulator};
pub use report::{EnergyBreakdown, LatencyBreakdown, LayerReport, NetworkReport};
