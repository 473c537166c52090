//! `serve_micro_bursty`: per-call overhead under serving. One operation is a
//! `serve::simulate` replay of a whole bursty trace of `micro_cnn` requests on
//! the virtual clock, with the batching, replica, routing and SLO settings of
//! the `serving` bin.

use super::{cam_counts, replay_plans, same_plans};
use crate::measure::timed;
use crate::{Bench, Clock, Metric, Modeled, Outcome, Row};
use apc::{CompileCache, CompilerOptions, LayerCompiler};
use baseline::{CrossbarModel, CrossbarReport};
use cam::CamStats;
use camdnn::{ArchConfig, FunctionalBackend};
use serve::{
    simulate, ArrivalProcess, BackendExecutor, BatchingPolicy, ExecutedBatch, PayloadSpec,
    RequestExecutor, RoutePolicy, ServeConfig, SimOutcome, Trace, TraceSpec,
};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tnn::model::{micro_cnn, ModelGraph};
use tnn::Tensor;

const ACT_BITS: u8 = 4;

/// The `serving` bin's model weight and arrival seed. Model and arrivals are
/// part of the workload's definition: between arrival seeds the achieved
/// rate and batch mix of a 1024-request bursty trace move by 10–30 %, and
/// between weight seeds the energy of an 8-channel model moves by ~5 %, so
/// the benchmark seed varies the request payloads only.
const SERVING_SEED: u64 = 42;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The facts of a replay that must repeat exactly: the program's
/// bit-exactness flag, every request's logits, and the report, batch
/// boundaries and virtual times.
pub(crate) fn replay_outcome(outcome: &SimOutcome) -> Outcome {
    let mut counters = vec![fnv1a(outcome.report.to_json().as_bytes())];
    for batch in &outcome.batches {
        counters.extend([batch.replica as u64, batch.dispatch_ns, batch.completion_ns]);
        counters.extend(batch.requests.iter().map(|&r| r as u64));
    }
    counters.extend(outcome.rejected.iter().map(|&r| r as u64));
    Outcome {
        bit_exact: outcome.report.bit_exact == Some(true),
        logits: outcome
            .completions
            .iter()
            .map(|c| c.logits.clone().unwrap_or_default())
            .collect(),
        counters,
    }
}

/// A [`RequestExecutor`] that times the executor it wraps.
struct TimedExecutor<'a> {
    inner: &'a BackendExecutor,
    nanos: AtomicU64,
}

impl RequestExecutor for TimedExecutor<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn execute(&self, inputs: &[Tensor<i64>]) -> serve::Result<ExecutedBatch> {
        let (result, ms) = timed(|| self.inner.execute(inputs));
        self.nanos.fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
        result
    }
}

/// Energy and counters of the dispatched batches, from re-running each
/// batch through the backend once.
#[derive(Debug, Clone, Copy)]
struct BatchCosts {
    energy_uj: f64,
    stats: CamStats,
}

/// The serving workload after set-up.
pub struct ServeBench {
    model: Arc<ModelGraph>,
    backend: FunctionalBackend,
    cache: Arc<CompileCache>,
    executor: BackendExecutor,
    config: ServeConfig,
    spec: TraceSpec,
    trace: Trace,
    payloads: Vec<Tensor<i64>>,
    warm: SimOutcome,
    reference: Outcome,
    crossbar: CrossbarReport,
    costs: OnceCell<Result<BatchCosts, String>>,
    setup_rows: Vec<Row>,
}

impl ServeBench {
    /// Builds the `serving` bin's `micro_cnn` (8 channels, sparsity .80) and
    /// bursty trace (1024 requests, 64 when `smoke`) with request payloads
    /// from `seed`, compiles cold and replays the trace once.
    ///
    /// # Errors
    ///
    /// Trace, compilation or execution errors.
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let (model, build_ms) = timed(|| Arc::new(micro_cnn("micro_cnn", 8, 0.8, SERVING_SEED)));
        let spec = TraceSpec {
            process: ArrivalProcess::Bursty {
                idle_rate_per_s: 100_000.0,
                burst_rate_per_s: 4_000_000.0,
                mean_phase_requests: 24.0,
            },
            requests: if smoke { 64 } else { 1024 },
            seed: SERVING_SEED,
        };
        let trace = spec.generate().map_err(|e| e.to_string())?;
        let payloads = PayloadSpec::Seeded { base_seed: seed }
            .materialize(&model, ACT_BITS, trace.len())
            .map_err(|e| e.to_string())?;
        let options = CompilerOptions::default().with_act_bits(ACT_BITS);
        let backend = FunctionalBackend::new(ArchConfig::default(), options);
        let cache = Arc::new(CompileCache::new());
        let compiler = LayerCompiler::new(*backend.compiler_options());
        let (compiled, compile_ms) = timed(|| cache.compile_model(&compiler, &model));
        compiled.map_err(|e| e.to_string())?;
        let executor = BackendExecutor::new(
            Arc::new(backend.clone()),
            Arc::clone(&model),
            Arc::clone(&cache),
        );
        let config = ServeConfig::default()
            .with_replicas(2)
            .with_batching(BatchingPolicy::new(8, 100))
            .with_routing(RoutePolicy::JoinShortestQueue)
            .with_slo_ms(0.05);
        let (warm, warm_ms) =
            timed(|| simulate(&executor, &config, &spec, &trace, &payloads, model.name()));
        let warm = warm.map_err(|e| e.to_string())?;
        // A warm-up replay that is not bit-exact makes every operation a miss.
        let reference = replay_outcome(&warm);
        let crossbar = CrossbarModel::default()
            .with_act_bits(ACT_BITS)
            .evaluate(&model, ACT_BITS);
        Ok(ServeBench {
            model,
            backend,
            cache,
            executor,
            config,
            spec,
            trace,
            payloads,
            warm,
            reference,
            crossbar,
            costs: OnceCell::new(),
            setup_rows: vec![
                Row::measured("tnn.build", build_ms, "setup_s"),
                Row::measured("apc.compile", compile_ms, "setup_s"),
                Row::measured("core.first_run", warm_ms, "setup_s"),
            ],
        })
    }

    fn replay(&self, executor: &dyn RequestExecutor) -> serve::Result<SimOutcome> {
        simulate(
            executor,
            &self.config,
            &self.spec,
            &self.trace,
            &self.payloads,
            self.model.name(),
        )
    }

    /// The payloads of each dispatched batch of the warm-up replay.
    fn batch_inputs(&self) -> impl Iterator<Item = Vec<Tensor<i64>>> + '_ {
        self.warm.batches.iter().map(|batch| {
            batch
                .requests
                .iter()
                .map(|&request| self.payloads[request].clone())
                .collect()
        })
    }

    fn costs(&self) -> Result<BatchCosts, String> {
        self.costs
            .get_or_init(|| {
                let mut costs = BatchCosts {
                    energy_uj: 0.0,
                    stats: CamStats::new(),
                };
                for inputs in self.batch_inputs() {
                    let report = self
                        .backend
                        .run_batch(&self.model, &inputs, &self.cache)
                        .map_err(|e| e.to_string())?;
                    costs.energy_uj += report.energy_uj;
                    costs.stats += report.stats;
                }
                Ok(costs)
            })
            .clone()
    }
}

impl Bench for ServeBench {
    fn reference(&self) -> Option<Outcome> {
        Some(self.reference.clone())
    }

    fn setup_rows(&self) -> Vec<Row> {
        self.setup_rows.clone()
    }

    fn op(&mut self) -> Result<Outcome, String> {
        let outcome = self.replay(&self.executor).map_err(|e| e.to_string())?;
        Ok(replay_outcome(&outcome))
    }

    fn traced_op(&mut self) -> Result<(Outcome, Vec<Row>), String> {
        let timed_executor = TimedExecutor {
            inner: &self.executor,
            nanos: AtomicU64::new(0),
        };
        let (outcome, op_ms) = timed(|| self.replay(&timed_executor));
        let outcome = outcome.map_err(|e| e.to_string())?;
        let execute_ms = timed_executor.nanos.load(Ordering::Relaxed) as f64 / 1e6;
        // Replay each dispatched batch's reference inference and pass plans.
        let mut reference_ms = 0.0;
        let mut run_plan_ms = 0.0;
        let mut stats = CamStats::new();
        for inputs in self.batch_inputs() {
            reference_ms += timed(|| tnn::infer::run_batch(&self.model, &inputs, Some(ACT_BITS))).1;
            let (ms, batch_stats) =
                replay_plans(&self.backend, &self.model, &self.cache, inputs.len())?;
            run_plan_ms += ms;
            stats += batch_stats;
        }
        if !same_plans(stats, self.costs()?.stats) {
            return Err("the pass-plan replay ran other plans than the batches".to_string());
        }
        let rows = vec![
            Row::replayed("tnn.reference", reference_ms, "op_calib_p50"),
            Row::replayed("ap.run_plan", run_plan_ms, "op_calib_p50"),
            Row::derived(
                "core.glue",
                execute_ms - reference_ms - run_plan_ms,
                "op_calib_p50",
            ),
            Row::derived("serve.loop", op_ms - execute_ms, "op_calib_p50"),
            Row::nested("serve.execute", execute_ms, "op_calib_p50"),
        ];
        Ok((replay_outcome(&outcome), rows))
    }

    fn modeled(&self) -> Modeled {
        let report = &self.warm.report;
        let uj_per_sample = self.costs().map_or(0.0, |costs| {
            costs.energy_uj / report.completed.max(1) as f64
        });
        let p99_ms = report.latency.p99_ms();
        Modeled {
            samples_per_s: report.samples_per_s,
            uj_per_sample,
            energy_gain_vs_crossbar: self.crossbar.energy_uj() / uj_per_sample,
            latency_gain_vs_crossbar: self.crossbar.latency_ms() / p99_ms,
            extra: vec![
                Metric::new("modeled_p99_ms", p99_ms, "ms", Clock::Modeled),
                Metric::new(
                    "slo_attainment",
                    report.slo_attainment,
                    "share",
                    Clock::Modeled,
                ),
                Metric::new(
                    "rejected_requests",
                    report.rejected as f64,
                    "count",
                    Clock::Modeled,
                ),
            ],
        }
    }

    fn counts(&self) -> Vec<Metric> {
        let report = &self.warm.report;
        let plans = self.cache.plan_summary();
        let mut counts = vec![
            Metric::new(
                "serve.batches",
                report.batches as f64,
                "count",
                Clock::Count,
            ),
            Metric::new(
                "serve.mean_batch_size",
                report.mean_batch_size,
                "requests",
                Clock::Count,
            ),
            Metric::new(
                "serve.max_queue_depth",
                report.max_queue_depth as f64,
                "requests",
                Clock::Count,
            ),
            Metric::new("apc.plans", plans.plans as f64, "count", Clock::Count),
            Metric::new(
                "apc.passes_after_fusion",
                plans.passes_after_fusion as f64,
                "count",
                Clock::Count,
            ),
        ];
        if let Ok(costs) = self.costs() {
            counts.extend(cam_counts(&costs.stats));
        }
        counts
    }

    fn modeled_cycles(&self) -> u64 {
        self.costs().map_or(0, |costs| costs.stats.compute_cycles())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
