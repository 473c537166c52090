use crate::experiment::{ScenarioSpec, Session};
use accel::{ArchConfig, NetworkReport};
use apc::CompilerOptions;
use baseline::{CrossbarReport, DeepCamReport};
use serde::{Deserialize, Serialize};
use tnn::model::ModelGraph;

/// The combined result of running the full stack and the baselines on one model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// RTM-AP result (compiled with the configured options).
    pub rtm_ap: NetworkReport,
    /// RTM-AP result compiled without CSE (the `unroll` configuration), for the
    /// ablation columns of Table II and Fig. 4.
    pub rtm_ap_unroll: NetworkReport,
    /// DNN+NeuroSim-style crossbar baseline.
    pub crossbar: CrossbarReport,
    /// DeepCAM-style baseline.
    pub deepcam: DeepCamReport,
    /// Overall weight sparsity of the model.
    pub sparsity: f64,
}

impl PipelineReport {
    /// Energy-efficiency improvement of the RTM-AP over the crossbar baseline
    /// (inferences per joule ratio — the paper's headline 7.5× combines the energy
    /// gain with the retained accuracy).
    pub fn energy_improvement(&self) -> f64 {
        self.crossbar.energy_uj() / self.rtm_ap.energy_uj().max(f64::MIN_POSITIVE)
    }

    /// Latency improvement of the RTM-AP over the crossbar baseline.
    pub fn latency_improvement(&self) -> f64 {
        self.crossbar.latency_ms() / self.rtm_ap.latency_ms().max(f64::MIN_POSITIVE)
    }

    /// Reduction in add/sub instructions achieved by CSE relative to `unroll`.
    pub fn cse_reduction(&self) -> f64 {
        let unroll = self.rtm_ap_unroll.adds_subs_k();
        if unroll <= 0.0 {
            0.0
        } else {
            1.0 - self.rtm_ap.adds_subs_k() / unroll
        }
    }

    /// A Table II-style row: network, sparsity, energy, latency, arrays and op counts.
    pub fn table_row(&self) -> String {
        format!(
            "{name:<20} sp={sparsity:.2} act={bits}b | E={energy:8.2} uJ  L={latency:7.3} ms  arrays={arrays:3} | adds(unroll)={unroll:8.0}K adds(+CSE)={cse:8.0}K | xbar: E={xe:8.2} uJ L={xl:7.3} ms",
            name = self.rtm_ap.name,
            sparsity = self.sparsity,
            bits = self.rtm_ap.act_bits,
            energy = self.rtm_ap.energy_uj(),
            latency = self.rtm_ap.latency_ms(),
            arrays = self.rtm_ap.arrays(),
            unroll = self.rtm_ap_unroll.adds_subs_k(),
            cse = self.rtm_ap.adds_subs_k(),
            xe = self.crossbar.energy_uj(),
            xl = self.crossbar.latency_ms(),
        )
    }
}

/// Builder for the end-to-end flow: model → compilation → RTM-AP simulation →
/// baseline comparison.
///
/// This is the *one-scenario* convenience wrapper around the experiment API:
/// [`run`](Self::run) materialises a single
/// [`ScenarioSpec`](crate::experiment::ScenarioSpec) with the four standard
/// backends and executes it through a fresh
/// [`Session`](crate::experiment::Session). Code that evaluates a *grid* of
/// configurations should build a [`SweepGrid`](crate::experiment::SweepGrid)
/// instead — one session shares layer compilation across all scenarios and
/// returns machine-readable records (see the
/// [`experiment`](crate::experiment) module for the migration path).
///
/// # Example
///
/// ```
/// use camdnn::{ArchConfig, CompilerOptions, FullStackPipeline};
/// use tnn::model::vgg9;
///
/// let report = FullStackPipeline::new(vgg9(0.9, 1))
///     .with_activation_bits(8)
///     .run()
///     .expect("pipeline");
/// assert_eq!(report.rtm_ap.act_bits, 8);
/// ```
#[derive(Debug, Clone)]
pub struct FullStackPipeline {
    model: ModelGraph,
    arch: ArchConfig,
    options: CompilerOptions,
}

impl FullStackPipeline {
    /// Creates a pipeline for `model` with the default architecture and compiler
    /// options (4-bit activations, CSE enabled).
    pub fn new(model: ModelGraph) -> Self {
        FullStackPipeline {
            model,
            arch: ArchConfig::default(),
            options: CompilerOptions::default(),
        }
    }

    /// Sets the activation precision (the paper evaluates 4 and 8 bits).
    #[must_use]
    pub fn with_activation_bits(mut self, act_bits: u8) -> Self {
        self.options.act_bits = act_bits;
        self
    }

    /// Replaces the accelerator configuration.
    #[must_use]
    pub fn with_arch(mut self, arch: ArchConfig) -> Self {
        self.arch = arch;
        self
    }

    /// Replaces the compiler options.
    #[must_use]
    pub fn with_compiler_options(mut self, options: CompilerOptions) -> Self {
        self.options = options;
        self
    }

    /// The model being evaluated.
    pub fn model(&self) -> &ModelGraph {
        &self.model
    }

    /// The one-scenario [`ScenarioSpec`] this pipeline corresponds to: the
    /// model at the configured compiler options and architecture, with the
    /// four standard backends.
    pub fn scenario(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(self.model.clone());
        spec.act_bits = self.options.act_bits;
        spec.geometry = self.options.geometry;
        spec.arch = self.arch;
        spec.compiler_template = self.options;
        spec
    }

    /// Runs the full stack (both `unroll` and `unroll+CSE` configurations) and the
    /// baselines as parallel [`InferenceBackend`](crate::InferenceBackend) jobs —
    /// implemented as a one-scenario [`Session`] run.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors (for example a layer that does not fit the
    /// configured CAM geometry).
    pub fn run(&self) -> apc::Result<PipelineReport> {
        let spec = self.scenario();
        let results = Session::new().run_scenarios(std::slice::from_ref(&spec))?;
        results
            .pipeline(&spec.label)
            .ok_or_else(|| apc::ApcError::Internal {
                reason: "one-scenario session produced an incomplete pipeline view".to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn::model::vgg9;

    #[test]
    fn pipeline_produces_consistent_reports() {
        let report = FullStackPipeline::new(vgg9(0.9, 5))
            .run()
            .expect("pipeline");
        assert!(report.rtm_ap.energy_uj() > 0.0);
        assert!(report.rtm_ap_unroll.adds_subs_k() >= report.rtm_ap.adds_subs_k());
        assert!(report.cse_reduction() >= 0.0);
        assert!(report.energy_improvement() > 0.0);
        assert!(report.latency_improvement() > 0.0);
        assert!((report.sparsity - 0.9).abs() < 0.02);
        let row = report.table_row();
        assert!(row.contains("vgg9"));
        assert!(row.contains("uJ"));
    }

    #[test]
    fn builder_setters_apply() {
        let pipeline = FullStackPipeline::new(vgg9(0.85, 1))
            .with_activation_bits(8)
            .with_arch(ArchConfig::default())
            .with_compiler_options(CompilerOptions::default().with_act_bits(8));
        assert_eq!(pipeline.options.act_bits, 8);
        assert_eq!(pipeline.model().name(), "vgg9");
    }
}
