//! `camdnn` — full-stack CAM-only DNN inference.
//!
//! This is the top-level crate of the reproduction of *Full-Stack Optimization for
//! CAM-Only DNN Inference* (DATE 2024). It ties together:
//!
//! * [`tnn`] — ternary-weight quantized networks (VGG-9, VGG-11, ResNet-18),
//! * [`apc`] — the compilation flow that turns them into associative-processor
//!   programs (loop transformations, constant folding, CSE, bitwidth annotation,
//!   column allocation, in-/out-of-place code generation),
//! * [`ap`] / [`cam`] / `rtm` — the RTM-based associative-processor substrate,
//! * [`accel`] — the bank/tile/AP accelerator model that produces energy, latency,
//!   data-movement and endurance reports, and
//! * [`baseline`] — the DNN+NeuroSim-style crossbar and DeepCAM-style comparison
//!   points of Table II.
//!
//! Evaluation is organised around the [`InferenceBackend`] trait (module
//! [`backend`]): the RTM-AP simulator and both baselines implement
//! `evaluate(&ModelGraph) -> BackendReport`, keyed by open, interned
//! [`BackendId`]s so new comparison points plug in through
//! [`BackendPlan::custom`](experiment::BackendPlan::custom) without touching
//! this crate. The [`experiment`] module turns the paper's grid of
//! configurations into a first-class object: declare a
//! [`SweepGrid`] (workloads × activation bits ×
//! geometries × architectures), run it through a
//! [`Session`] — one flat parallel job pool over
//! *scenario × backend* with a shared [`apc::CompileCache`] — and collect a
//! serializable [`ResultSet`].
//!
//! A single configuration is a one-point grid; [`ResultSet::pipeline`]
//! reads its Table II view:
//!
//! ```
//! use camdnn::{Session, SweepGrid};
//! use tnn::model::vgg9;
//!
//! let results = Session::new()
//!     .run(&SweepGrid::new().workload(vgg9(0.9, 1)))
//!     .expect("session");
//! let report = results.pipeline(results.scenarios()[0]).expect("pipeline view");
//! assert!(report.rtm_ap.energy_uj() > 0.0);
//! assert!(report.crossbar.energy_uj() > report.rtm_ap.energy_uj() * 0.1);
//! println!("{}", report.table_row());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod corpus;
pub mod experiment;
pub mod functional;
mod pipeline;
pub mod trace;
pub mod verify;

pub use backend::{
    BackendId, BackendKind, BackendReport, InferenceBackend, LayerCost, ModelProfile,
};
pub use corpus::{CorpusSpec, SpecRun, SpecStatus};
pub use experiment::{
    BackendPlan, ResultSet, ScenarioRecord, ScenarioSpec, Session, SweepGrid, Workload,
};
pub use functional::{BatchReport, EngineMode, FunctionalBackend, FunctionalReport, SampleReport};
pub use pipeline::PipelineReport;
pub use trace::{Divergence, ExecutionTrace, TraceDiff, TraceError, TraceHeader, TraceRecorder};

/// The telemetry spine (`camdnn-telemetry`, re-exported): span tracing, the
/// unified metrics registry and deterministic snapshots. See
/// [`telemetry::global`] and the crate docs for the determinism and cost
/// contracts.
pub use telemetry;

pub use accel::{AcceleratorModel, ArchConfig, NetworkReport};
pub use apc::{CompiledLayer, CompilerOptions, LayerCompiler};
pub use baseline::{CrossbarModel, CrossbarReport, DeepCamModel, DeepCamReport};
