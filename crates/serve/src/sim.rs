//! Deterministic serving simulation on a virtual clock.
//!
//! [`simulate`] replays a [`Trace`] through the same admission / dynamic
//! batching / routing decisions as the threaded server, but time is *virtual*:
//! arrivals happen at the trace's nanosecond timestamps, and a dispatched
//! batch occupies its replica for exactly the backend's modeled service
//! latency. It runs the fleet's event loop as a one-stage fleet of fixed
//! replicas, so ties resolve in the fleet's total order (completions before
//! arrivals before dispatches, then lowest replica index), and a fixed trace
//! seed reproduces the exact same batch compositions, per-request logits
//! (bit-identical to solo `run_batch` calls — the batch-equivalence
//! invariant) and latency statistics on every run, at any
//! `RAYON_NUM_THREADS` and on any host.
//!
//! The backend executes each closed batch *for real* (that is where the
//! logits and the modeled service time come from); only the waiting is
//! simulated.

use crate::config::ServeConfig;
use crate::error::{Result, ServeError};
use crate::executor::RequestExecutor;
use crate::fleet::replay;
use crate::report::{PhaseSample, RequestSummary, ServeReport};
use crate::trace::{Trace, TraceSpec};
use tnn::Tensor;

/// One dispatched batch of a simulation: which requests, where, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRecord {
    /// The replica that executed the batch.
    pub replica: usize,
    /// Virtual dispatch time, in nanoseconds.
    pub dispatch_ns: u64,
    /// Virtual completion time (`dispatch_ns` + modeled service latency).
    pub completion_ns: u64,
    /// The member requests (trace indices), in queue order.
    pub requests: Vec<usize>,
}

/// One completed request of a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimCompletion {
    /// Trace index of the request.
    pub request: usize,
    /// Arrival time, in virtual nanoseconds.
    pub arrival_ns: u64,
    /// When the batching policy *decided* the batch that carried this
    /// request (the filling member's arrival for size-triggered batches, the
    /// oldest member's deadline otherwise). Never after `dispatch_ns`; the
    /// gap between the two is replica-busy head-of-line delay.
    pub planned_close_ns: u64,
    /// Dispatch time of the batch that carried it.
    pub dispatch_ns: u64,
    /// Completion time of that batch.
    pub completion_ns: u64,
    /// The replica that served it.
    pub replica: usize,
    /// Index into [`SimOutcome::batches`].
    pub batch: usize,
    /// The request's logits, when the backend executes data.
    pub logits: Option<Vec<i64>>,
}

impl SimCompletion {
    /// End-to-end latency (queueing + service), in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completion_ns - self.arrival_ns
    }

    /// Queueing delay (arrival to dispatch), in nanoseconds.
    pub fn queue_wait_ns(&self) -> u64 {
        self.dispatch_ns - self.arrival_ns
    }

    /// This request's exact four-phase decomposition. The phases sum to
    /// [`latency_ns`](Self::latency_ns) exactly, and queue + batch wait sum
    /// to [`queue_wait_ns`](Self::queue_wait_ns); merge is zero on the
    /// virtual clock.
    pub fn phases(&self) -> PhaseSample {
        // A request can arrive after its batch's deadline already passed
        // while the replica was busy: clamp the planned close to the
        // request's own lifetime.
        let close = self
            .planned_close_ns
            .clamp(self.arrival_ns, self.dispatch_ns);
        PhaseSample {
            queue_wait_ns: close - self.arrival_ns,
            batch_wait_ns: self.dispatch_ns - close,
            execute_ns: self.completion_ns - self.dispatch_ns,
            merge_ns: 0,
        }
    }
}

/// The full outcome of one simulation: the report plus the per-batch and
/// per-request records the tests and the replay check consume.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The aggregate serving report.
    pub report: ServeReport,
    /// Every dispatched batch, in dispatch order.
    pub batches: Vec<BatchRecord>,
    /// Every completed request, in dispatch order (batch members together).
    pub completions: Vec<SimCompletion>,
    /// Trace indices rejected by admission control, in arrival order.
    pub rejected: Vec<usize>,
}

/// Replays `trace` (whose request `i` carries `payloads[i]`) against
/// `executor` under `config`, on the virtual clock.
///
/// `spec` is echoed into the report so consumers can reproduce the run; it
/// must be the spec `trace` was generated from.
///
/// # Errors
///
/// Returns [`ServeError::InvalidConfig`] when the configuration fails
/// [`ServeConfig::validate`] or the payload count does not match the trace,
/// and propagates backend errors from batch execution.
pub fn simulate(
    executor: &dyn RequestExecutor,
    config: &ServeConfig,
    spec: &TraceSpec,
    trace: &Trace,
    payloads: &[Tensor<i64>],
    model_name: &str,
) -> Result<SimOutcome> {
    config.validate()?;
    if payloads.len() != trace.len() {
        return Err(ServeError::InvalidConfig {
            reason: format!(
                "{} payloads for a trace of {} requests",
                payloads.len(),
                trace.len()
            ),
        });
    }

    let mut bit_exact: Option<bool> = None;
    let mut logits = Vec::new();
    let trajectory = replay(&config.one_stage_fleet(), trace, |_, batch, requests| {
        let inputs: Vec<Tensor<i64>> = requests.iter().map(|&r| payloads[r].clone()).collect();
        let executed = executor.execute(&inputs)?;
        if let Some(b) = executed.bit_exact {
            bit_exact = Some(bit_exact.unwrap_or(true) && b);
        }
        // The one stage starts every batch at its dispatch, in order.
        assert_eq!(batch, logits.len(), "batches start in dispatch order");
        logits.push(executed.logits.map(Vec::into_iter));
        Ok(executed.latency_ns)
    })?;
    let summary = RequestSummary::new(&trajectory, &trace.arrivals_ns, config.slo_ns);

    let mut batch_size_counts = vec![0u64; config.batching.max_batch_size];
    let mut per_replica_batches = vec![0u64; config.replicas];
    for batch in &trajectory.batches {
        batch_size_counts[batch.requests.len() - 1] += 1;
        per_replica_batches[batch.replica] += 1;
    }
    // Members come in batch slot order, so each batch hands out its logits
    // in turn.
    let completions = trajectory
        .completions(&trace.arrivals_ns)
        .map(|mut c| {
            c.logits = logits[c.batch].as_mut().and_then(Iterator::next);
            c
        })
        .collect();
    let report = ServeReport {
        model: model_name.to_string(),
        backend: executor.name(),
        config: *config,
        trace: *spec,
        offered: summary.offered,
        admitted: summary.admitted,
        rejected: summary.rejected,
        completed: summary.completed,
        batches: summary.batches,
        batch_size_counts,
        per_replica_batches,
        mean_batch_size: summary.mean_batch_size,
        latency: summary.latency,
        queue_wait: summary.queue_wait,
        phases: summary.phases,
        max_queue_depth: summary.max_queue_depth,
        makespan_ns: summary.makespan_ns,
        samples_per_s: summary.samples_per_s,
        slo_attained: summary.slo_attained,
        slo_attainment: summary.slo_attainment,
        bit_exact,
    };
    Ok(SimOutcome {
        report,
        batches: trajectory.batches,
        completions,
        rejected: trajectory.rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BatchingPolicy, RoutePolicy};
    use crate::executor::ExecutedBatch;

    /// A synthetic executor with a fixed per-batch latency model:
    /// `base + per_sample · n` nanoseconds, no logits.
    struct FixedExecutor {
        base_ns: u64,
        per_sample_ns: u64,
    }

    impl RequestExecutor for FixedExecutor {
        fn name(&self) -> String {
            "fixed".to_string()
        }

        fn execute(&self, inputs: &[Tensor<i64>]) -> Result<ExecutedBatch> {
            Ok(ExecutedBatch {
                latency_ns: self.base_ns + self.per_sample_ns * inputs.len() as u64,
                logits: None,
                bit_exact: None,
            })
        }
    }

    fn payload() -> Tensor<i64> {
        Tensor::from_vec(vec![1, 1, 1], vec![0]).expect("payload")
    }

    fn hand_trace(arrivals_ns: &[u64]) -> (TraceSpec, Trace, Vec<Tensor<i64>>) {
        let spec = TraceSpec::poisson(1.0, arrivals_ns.len(), 0);
        let trace = Trace {
            arrivals_ns: arrivals_ns.to_vec(),
        };
        let payloads = vec![payload(); arrivals_ns.len()];
        (spec, trace, payloads)
    }

    #[test]
    fn batches_close_on_size_or_deadline() {
        // Four arrivals; worker busy 1000ns per batch + 0/sample; max batch 2,
        // delay 300ns. t=0: r0 arrives, batch not full -> deadline 300. t=100:
        // r1 arrives -> full -> dispatch [0,1] at 100. t=150: r2 arrives,
        // worker busy until 1100. t=500: r3. Worker frees at 1100, queue has
        // [2,3] (full) -> dispatch at 1100.
        let executor = FixedExecutor {
            base_ns: 1_000,
            per_sample_ns: 0,
        };
        let config = ServeConfig::default().with_batching(BatchingPolicy {
            max_batch_size: 2,
            max_queue_delay_ns: 300,
        });
        let (spec, trace, payloads) = hand_trace(&[0, 100, 150, 500]);
        let outcome =
            simulate(&executor, &config, &spec, &trace, &payloads, "toy").expect("simulate");
        let boundaries: Vec<(u64, Vec<usize>)> = outcome
            .batches
            .iter()
            .map(|b| (b.dispatch_ns, b.requests.clone()))
            .collect();
        assert_eq!(boundaries, vec![(100, vec![0, 1]), (1_100, vec![2, 3])]);
        assert_eq!(outcome.report.batch_size_counts, vec![0, 2]);
        assert_eq!(outcome.report.completed, 4);
        assert_eq!(outcome.report.makespan_ns, 2_100);
    }

    #[test]
    fn deadline_closes_a_short_batch() {
        // One arrival at 0, the next at 10_000; delay 300 -> the first batch
        // closes alone at its deadline.
        let executor = FixedExecutor {
            base_ns: 100,
            per_sample_ns: 0,
        };
        let config = ServeConfig::default().with_batching(BatchingPolicy {
            max_batch_size: 8,
            max_queue_delay_ns: 300,
        });
        let (spec, trace, payloads) = hand_trace(&[0, 10_000]);
        let outcome =
            simulate(&executor, &config, &spec, &trace, &payloads, "toy").expect("simulate");
        assert_eq!(outcome.batches[0].dispatch_ns, 300);
        assert_eq!(outcome.batches[0].requests, vec![0]);
        assert_eq!(outcome.batches[1].dispatch_ns, 10_300);
        // Latency = wait + service.
        assert_eq!(outcome.completions[0].latency_ns(), 400);
        assert_eq!(outcome.completions[0].queue_wait_ns(), 300);
    }

    #[test]
    fn admission_control_rejects_at_capacity() {
        // Capacity 2, single replica busy for a long time: the first request
        // dispatches alone (delay 0), the next two queue, the rest bounce.
        let executor = FixedExecutor {
            base_ns: 1_000_000,
            per_sample_ns: 0,
        };
        let config = ServeConfig::default()
            .with_batching(BatchingPolicy {
                max_batch_size: 1,
                max_queue_delay_ns: 0,
            })
            .with_queue_capacity(2);
        let (spec, trace, payloads) = hand_trace(&[0, 1, 2, 3, 4]);
        let outcome =
            simulate(&executor, &config, &spec, &trace, &payloads, "toy").expect("simulate");
        assert_eq!(outcome.rejected, vec![3, 4]);
        assert_eq!(outcome.report.rejected, 2);
        assert_eq!(outcome.report.admitted, 3);
        assert_eq!(outcome.report.completed, 3);
        assert_eq!(outcome.report.max_queue_depth, 2);
        // Rejections count against SLO attainment.
        assert!(outcome.report.slo_attainment <= 3.0 / 5.0);
    }

    #[test]
    fn round_robin_cycles_and_jsq_fills_evenly() {
        let executor = FixedExecutor {
            base_ns: 10_000,
            per_sample_ns: 0,
        };
        let base = ServeConfig::default()
            .with_replicas(3)
            .with_batching(BatchingPolicy {
                max_batch_size: 1,
                max_queue_delay_ns: 0,
            });
        let (spec, trace, payloads) = hand_trace(&[0, 1, 2, 3, 4, 5]);
        let rr = simulate(
            &executor,
            &base.with_routing(RoutePolicy::RoundRobin),
            &spec,
            &trace,
            &payloads,
            "toy",
        )
        .expect("simulate");
        let order: Vec<usize> = rr
            .completions
            .iter()
            .map(|c| (c.request, c.replica))
            .map(|(_, r)| r)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2]);
        for policy in [RoutePolicy::JoinShortestQueue, RoutePolicy::LeastLoaded] {
            let outcome = simulate(
                &executor,
                &base.with_routing(policy),
                &spec,
                &trace,
                &payloads,
                "toy",
            )
            .expect("simulate");
            assert_eq!(
                outcome.report.per_replica_batches,
                vec![2, 2, 2],
                "{policy}"
            );
        }
    }

    #[test]
    fn executor_errors_propagate() {
        /// Fails its third batch with a recognisable backend error.
        struct FailingExecutor {
            calls: std::sync::atomic::AtomicUsize,
        }

        impl RequestExecutor for FailingExecutor {
            fn name(&self) -> String {
                "failing".to_string()
            }

            fn execute(&self, _inputs: &[Tensor<i64>]) -> Result<ExecutedBatch> {
                let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if call == 2 {
                    return Err(ServeError::Backend(apc::ApcError::InvalidArgument {
                        reason: "third batch".to_string(),
                    }));
                }
                Ok(ExecutedBatch {
                    latency_ns: 100,
                    logits: None,
                    bit_exact: None,
                })
            }
        }

        let executor = FailingExecutor {
            calls: std::sync::atomic::AtomicUsize::new(0),
        };
        let config = ServeConfig::default().with_batching(BatchingPolicy::single());
        let (spec, trace, payloads) = hand_trace(&[0, 1_000, 2_000, 3_000, 4_000]);
        let err = simulate(&executor, &config, &spec, &trace, &payloads, "toy")
            .expect_err("the third batch fails");
        assert_eq!(
            err,
            ServeError::Backend(apc::ApcError::InvalidArgument {
                reason: "third batch".to_string(),
            })
        );
        // The replay stopped at the failing batch.
        assert_eq!(executor.calls.load(std::sync::atomic::Ordering::SeqCst), 3);
    }

    #[test]
    fn payload_count_must_match_the_trace() {
        let executor = FixedExecutor {
            base_ns: 1,
            per_sample_ns: 0,
        };
        let (spec, trace, _) = hand_trace(&[0, 1]);
        let err = simulate(
            &executor,
            &ServeConfig::default(),
            &spec,
            &trace,
            &[payload()],
            "toy",
        )
        .expect_err("mismatch");
        assert!(matches!(err, ServeError::InvalidConfig { .. }));
    }
}
