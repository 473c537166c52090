//! Batch execution behind the serving runtime.
//!
//! The queueing/batching layer is backend-agnostic: a closed batch of request
//! payloads goes to a [`RequestExecutor`], which returns per-request outputs
//! plus the *modeled* service latency the hardware model assigns the batch.
//! The canonical executor, [`BackendExecutor`], runs each batch through
//! [`FunctionalBackend::run_batch`], the backend's one batch entry, against a
//! shared [`apc::CompileCache`], so every replica and every scenario of a
//! sweep compiles and partitions each distinct layer exactly once. A warm
//! batch looks its layers up by signature: a `micro_cnn`
//! batch makes 379 heap allocations at B = 8 and 136 at B = 1, capped at 420
//! and 160 by `tests/functional_allocations.rs`.

use crate::config::ms_to_ns;
use crate::error::Result;
use apc::CompileCache;
use camdnn::{FunctionalBackend, InferenceBackend};
use std::sync::Arc;
use tnn::model::ModelGraph;
use tnn::Tensor;

/// The outcome of executing one closed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutedBatch {
    /// Modeled service latency of the whole batch on the accelerator, in
    /// nanoseconds. This is the virtual-clock service time of the simulation
    /// mode and the `latency_ns` reported per completion.
    pub latency_ns: u64,
    /// Per-request logits, in batch order — present when the executor really
    /// executes data, absent for executors that only model the cost.
    pub logits: Option<Vec<Vec<i64>>>,
    /// Whether every executed value matched the reference integer inference
    /// (`None` when the executor does not check).
    pub bit_exact: Option<bool>,
}

/// Executes closed batches of request payloads.
///
/// Implementations must be thread-safe: the threaded server calls `execute`
/// from one worker thread per replica, and the simulator may fan scenarios
/// out over rayon.
pub trait RequestExecutor: Send + Sync {
    /// A short human-readable identifier (configuration included).
    fn name(&self) -> String;

    /// Executes one batch of payloads and reports its outputs and modeled
    /// latency.
    ///
    /// # Errors
    ///
    /// Propagates backend errors (compilation failures, shape violations, an
    /// empty batch).
    fn execute(&self, inputs: &[Tensor<i64>]) -> Result<ExecutedBatch>;
}

/// The canonical executor: one model served by a bit-level
/// [`FunctionalBackend`] through a shared [`CompileCache`].
///
/// The per-request logits are value-identical to solo `run_batch` calls of
/// the same payloads (the batch-equivalence invariant), which is what makes
/// serving results reproducible at any batch composition. Executors with
/// another cost model implement [`RequestExecutor`] themselves.
#[derive(Clone)]
pub struct BackendExecutor {
    backend: Arc<FunctionalBackend>,
    model: Arc<ModelGraph>,
    cache: Arc<CompileCache>,
}

impl std::fmt::Debug for BackendExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendExecutor")
            .field("backend", &self.backend.name())
            .field("model", &self.model.name())
            .finish()
    }
}

impl BackendExecutor {
    /// Wraps `backend` serving `model`, memoising layer compilation in
    /// `cache`.
    pub fn new(
        backend: Arc<FunctionalBackend>,
        model: Arc<ModelGraph>,
        cache: Arc<CompileCache>,
    ) -> Self {
        BackendExecutor {
            backend,
            model,
            cache,
        }
    }

    /// `backend` serving `model` with a fresh private cache.
    pub fn functional(backend: FunctionalBackend, model: Arc<ModelGraph>) -> Self {
        BackendExecutor::new(Arc::new(backend), model, Arc::new(CompileCache::new()))
    }

    /// The served model.
    pub fn model(&self) -> &Arc<ModelGraph> {
        &self.model
    }

    /// The shared compile cache.
    pub fn cache(&self) -> &Arc<CompileCache> {
        &self.cache
    }
}

impl RequestExecutor for BackendExecutor {
    fn name(&self) -> String {
        self.backend.name()
    }

    fn execute(&self, inputs: &[Tensor<i64>]) -> Result<ExecutedBatch> {
        let batch = self.backend.run_batch(&self.model, inputs, &self.cache)?;
        Ok(ExecutedBatch {
            latency_ns: ms_to_ns(batch.latency_ms),
            bit_exact: Some(batch.is_bit_exact()),
            logits: Some(batch.samples.into_iter().map(|s| s.logits).collect()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn::model::micro_cnn;

    fn micro_executor() -> BackendExecutor {
        BackendExecutor::functional(
            FunctionalBackend::default(),
            Arc::new(micro_cnn("exec-micro", 4, 0.8, 1)),
        )
    }

    #[test]
    fn functional_batches_carry_solo_identical_logits() {
        let executor = micro_executor();
        let model = executor.model().clone();
        let inputs: Vec<Tensor<i64>> = (0..3)
            .map(|i| FunctionalBackend::input_for_sample(&model, 4, 5, i))
            .collect();
        let executed = executor.execute(&inputs).expect("execute");
        assert!(executed.latency_ns > 0);
        assert_eq!(executed.bit_exact, Some(true));
        let logits = executed.logits.expect("functional logits");
        assert_eq!(logits.len(), 3);
        let backend = FunctionalBackend::default();
        for (input, got) in inputs.iter().zip(&logits) {
            let solo = backend
                .run_batch(&model, std::slice::from_ref(input), executor.cache())
                .expect("solo");
            assert_eq!(got, &solo.samples[0].logits);
        }
    }

    #[test]
    fn empty_batches_are_rejected() {
        let executor = micro_executor();
        let err = executor.execute(&[]).expect_err("empty batch");
        assert!(err.to_string().contains("at least one sample"));
    }

    #[test]
    fn latency_conversion_rounds_and_floors() {
        assert_eq!(ms_to_ns(1.5), 1_500_000);
        assert_eq!(ms_to_ns(0.0), 1);
        // The boundary case a truncating cast would get wrong by 1 ns.
        assert_eq!(ms_to_ns(0.29), 290_000);
    }
}
