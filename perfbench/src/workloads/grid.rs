//! `resnet18_b1_grid2x2`: bit-level execution. One operation is a
//! `FunctionalBackend::run_batch` of ResNet-18 at 32×32 input, 4-bit
//! activations, batch 1, partitioned over a 2×2 tile grid, with a warm
//! compile cache.

use super::{cam_counts, replay_plans, same_plans, stats_words};
use crate::measure::timed;
use crate::{with_derived, Bench, Clock, Metric, Modeled, Outcome, Row};
use apc::{CompileCache, CompilerOptions, LayerCompiler, TileGrid};
use baseline::{CrossbarModel, CrossbarReport};
use camdnn::{ArchConfig, BatchReport, FunctionalBackend};
use tnn::model::{micro_cnn, resnet18_at, ModelGraph};
use tnn::Tensor;

const ACT_BITS: u8 = 4;

/// The facts of a functional batch that must repeat exactly.
pub(crate) fn batch_outcome(report: &BatchReport) -> Outcome {
    let mut counters = stats_words(&report.stats).to_vec();
    for sample in &report.samples {
        counters.extend(stats_words(&sample.stats));
        counters.push(sample.energy_uj.to_bits());
    }
    counters.extend([
        report.energy_uj.to_bits(),
        report.latency_ms.to_bits(),
        report.samples_per_s.to_bits(),
    ]);
    Outcome {
        bit_exact: report.is_bit_exact(),
        logits: report.samples.iter().map(|s| s.logits.clone()).collect(),
        counters,
    }
}

/// Whether `logits` equal the `tnn` reference inference's outputs.
pub(crate) fn matches_reference(
    model: &ModelGraph,
    inputs: &[Tensor<i64>],
    logits: &[Vec<i64>],
) -> Result<bool, String> {
    let traces = tnn::infer::run_batch(model, inputs, Some(ACT_BITS)).map_err(|e| e.to_string())?;
    Ok(traces.len() == logits.len()
        && traces.iter().zip(logits).all(|(trace, got)| {
            trace
                .output()
                .is_some_and(|out| out.as_slice() == got.as_slice())
        }))
}

/// The ResNet-18 grid workload after set-up.
pub struct GridBench {
    model: ModelGraph,
    backend: FunctionalBackend,
    cache: CompileCache,
    inputs: Vec<Tensor<i64>>,
    reference: Outcome,
    report: BatchReport,
    crossbar: CrossbarReport,
    setup_rows: Vec<Row>,
}

impl GridBench {
    /// Builds ResNet-18 at 32×32 (sparsity .80, weight and input seed
    /// `seed`), compiles it cold and runs it once; `micro_cnn` when `smoke`.
    ///
    /// # Errors
    ///
    /// Compilation or execution errors.
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let (model, build_ms) = timed(|| {
            if smoke {
                micro_cnn("micro_cnn", 8, 0.8, seed)
            } else {
                resnet18_at(32, 0.8, seed)
            }
        });
        let options = CompilerOptions::default().with_act_bits(ACT_BITS);
        let backend = FunctionalBackend::new(ArchConfig::default(), options)
            .with_tile_grid(TileGrid::new(2, 2));
        let cache = CompileCache::new();
        let compiler = LayerCompiler::new(*backend.compiler_options());
        let (compiled, compile_ms) = timed(|| cache.compile_model(&compiler, &model));
        compiled.map_err(|e| e.to_string())?;
        let inputs = vec![FunctionalBackend::input_for(&model, ACT_BITS, seed)];
        let (report, first_run_ms) = timed(|| backend.run_batch(&model, &inputs, &cache));
        let report = report.map_err(|e| e.to_string())?;
        // A set-up run that is not bit-exact makes every operation a miss.
        let mut reference = batch_outcome(&report);
        reference.bit_exact &= matches_reference(&model, &inputs, &reference.logits)?;
        let crossbar = CrossbarModel::default()
            .with_act_bits(ACT_BITS)
            .evaluate(&model, ACT_BITS);
        Ok(GridBench {
            model,
            backend,
            cache,
            inputs,
            reference,
            report,
            crossbar,
            setup_rows: vec![
                Row::measured("tnn.build", build_ms, "setup_s"),
                Row::measured("apc.compile", compile_ms, "setup_s"),
                Row::measured("core.first_run", first_run_ms, "setup_s"),
            ],
        })
    }
}

impl Bench for GridBench {
    fn reference(&self) -> Option<Outcome> {
        Some(self.reference.clone())
    }

    fn setup_rows(&self) -> Vec<Row> {
        self.setup_rows.clone()
    }

    fn op(&mut self) -> Result<Outcome, String> {
        let report = self
            .backend
            .run_batch(&self.model, &self.inputs, &self.cache)
            .map_err(|e| e.to_string())?;
        Ok(batch_outcome(&report))
    }

    fn traced_op(&mut self) -> Result<(Outcome, Vec<Row>), String> {
        let (outcome, op_ms) = timed(|| self.op());
        let (_, reference_ms) =
            timed(|| tnn::infer::run_batch(&self.model, &self.inputs, Some(ACT_BITS)));
        let (run_plan_ms, stats) =
            replay_plans(&self.backend, &self.model, &self.cache, self.inputs.len())?;
        if !same_plans(stats, self.report.stats) {
            return Err("the pass-plan replay ran other plans than the operation".to_string());
        }
        let rows = vec![
            Row::replayed("tnn.reference", reference_ms, "op_calib_p50"),
            Row::replayed("ap.run_plan", run_plan_ms, "op_calib_p50"),
        ];
        Ok((
            outcome?,
            with_derived(rows, "core.glue", op_ms, "op_calib_p50"),
        ))
    }

    fn modeled(&self) -> Modeled {
        let sample_uj = self.report.joules_per_sample * 1e6;
        Modeled {
            samples_per_s: self.report.samples_per_s,
            uj_per_sample: sample_uj,
            energy_gain_vs_crossbar: self.crossbar.energy_uj() / sample_uj,
            latency_gain_vs_crossbar: self.crossbar.latency_ms() / self.report.latency_ms,
            extra: vec![Metric::new(
                "crossbar_uj_per_sample",
                self.crossbar.energy_uj(),
                "uJ",
                Clock::Modeled,
            )],
        }
    }

    fn counts(&self) -> Vec<Metric> {
        let plans = self.cache.plan_summary();
        let mut counts = vec![
            Metric::new("apc.plans", plans.plans as f64, "count", Clock::Count),
            Metric::new(
                "apc.passes_after_fusion",
                plans.passes_after_fusion as f64,
                "count",
                Clock::Count,
            ),
        ];
        counts.extend(cam_counts(&self.report.stats));
        counts
    }

    fn modeled_cycles(&self) -> u64 {
        self.report.stats.compute_cycles()
    }
}
