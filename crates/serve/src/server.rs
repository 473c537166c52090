//! The threaded serving runtime: per-replica request queues with admission
//! control and backpressure, dynamic batching workers, and graceful
//! shutdown.
//!
//! No async runtime exists in this workspace's vendored dependency set, so
//! the server is hand-rolled on `std::thread`, `std::sync::mpsc` channels and
//! condvars: one worker thread per model replica, each owning a
//! [`Mutex`]-protected queue. A worker closes a batch at
//! `max_batch_size` requests or when the oldest queued request has waited
//! `max_queue_delay`, whichever first — the same decision rule the
//! deterministic [simulation](crate::sim) replays on a virtual clock.
//!
//! Wall-clock timing makes the *timing* of this mode nondeterministic by
//! nature; its correctness properties are exact and tested: per-request
//! logits are bit-identical to solo `run_batch` calls regardless of how
//! arrivals interleave into batches, and shutdown drains every admitted
//! request.

use crate::config::ServeConfig;
use crate::error::{Result, ServeError};
use crate::executor::RequestExecutor;
use crate::report::PhaseSample;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tnn::Tensor;

/// The answer to one served request.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The request's server-assigned id (see [`Ticket::id`]).
    pub id: u64,
    /// The replica that executed it.
    pub replica: usize,
    /// Size of the batch that carried it.
    pub batch_size: usize,
    /// Wall-clock time spent waiting in the queue.
    pub queue_wait: Duration,
    /// Wall-clock time from submission to response.
    pub wall_latency: Duration,
    /// The accelerator model's service latency for the whole batch, in
    /// nanoseconds.
    pub service_latency_ns: u64,
    /// The request's logits, when the backend executes data.
    pub logits: Option<Vec<i64>>,
    /// Whether the executed batch matched the reference inference.
    pub bit_exact: Option<bool>,
    /// Wall-clock phase decomposition of this request's time in the server:
    /// queue wait (enqueue → batch close), batch wait (close → dispatch),
    /// execute (dispatch → backend done) and merge (backend done → this
    /// response being handed back).
    pub phases: PhaseSample,
}

/// A pending response: wait on it to receive the request's [`Completion`].
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: Receiver<Result<Completion>>,
}

impl Ticket {
    /// The server-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Returns the backend's error when its batch failed, or
    /// [`ServeError::WorkerLost`] if the worker disappeared before answering.
    pub fn wait(self) -> Result<Completion> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)?
    }
}

/// Aggregate counters of a running server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerCounters {
    /// Requests admitted into a queue.
    pub submitted: u64,
    /// Requests bounced by admission control.
    pub rejected: u64,
    /// Requests answered.
    pub completed: u64,
    /// Batches dispatched to the backend.
    pub batches: u64,
}

struct Pending {
    id: u64,
    input: Tensor<i64>,
    enqueued: Instant,
    tx: Sender<Result<Completion>>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    closed: bool,
}

struct ReplicaQueue {
    state: Mutex<QueueState>,
    cond: Condvar,
    /// Waiting-request count mirrored outside the lock for routing.
    waiting: AtomicUsize,
    /// Samples currently executing, for the least-loaded score.
    in_flight: AtomicUsize,
}

struct Shared {
    config: ServeConfig,
    executor: Arc<dyn RequestExecutor>,
    replicas: Vec<ReplicaQueue>,
    rr_cursor: AtomicUsize,
    next_id: AtomicU64,
    closed: AtomicBool,
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
}

/// A running dynamic-batching inference server.
///
/// # Example
///
/// ```
/// use camdnn::FunctionalBackend;
/// use serve::{BackendExecutor, BatchingPolicy, Server, ServeConfig};
/// use std::sync::Arc;
/// use tnn::model::micro_cnn;
///
/// let model = Arc::new(micro_cnn("serve-doc", 4, 0.8, 1));
/// let executor = Arc::new(BackendExecutor::functional(
///     FunctionalBackend::default(),
///     model.clone(),
/// ));
/// let server = Server::start(
///     executor,
///     ServeConfig::default().with_batching(BatchingPolicy::new(4, 200)),
/// )
/// .expect("start");
/// let ticket = server
///     .submit(FunctionalBackend::input_for(&model, 4, 0))
///     .expect("submit");
/// let completion = ticket.wait().expect("completion");
/// assert_eq!(completion.logits.as_ref().map(Vec::len), Some(10));
/// server.shutdown().expect("shutdown");
/// ```
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("backend", &self.shared.executor.name())
            .field("config", &self.shared.config)
            .finish()
    }
}

impl Server {
    /// Validates `config` and spawns one worker thread per replica.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for a configuration that fails
    /// [`ServeConfig::validate`].
    pub fn start(executor: Arc<dyn RequestExecutor>, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let shared = Arc::new(Shared {
            config,
            executor,
            replicas: (0..config.replicas)
                .map(|_| ReplicaQueue {
                    state: Mutex::new(QueueState {
                        queue: VecDeque::new(),
                        closed: false,
                    }),
                    cond: Condvar::new(),
                    waiting: AtomicUsize::new(0),
                    in_flight: AtomicUsize::new(0),
                })
                .collect(),
            rr_cursor: AtomicUsize::new(0),
            next_id: AtomicU64::new(0),
            closed: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let workers = (0..config.replicas)
            .map(|replica| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, replica))
            })
            .collect();
        Ok(Server {
            shared,
            workers: Mutex::new(workers),
        })
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Aggregate request/batch counters so far.
    pub fn counters(&self) -> ServerCounters {
        ServerCounters {
            submitted: self.shared.submitted.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
            completed: self.shared.completed.load(Ordering::SeqCst),
            batches: self.shared.batches.load(Ordering::SeqCst),
        }
    }

    /// Submits a request, *blocking* while the routed queue is at capacity —
    /// the backpressure path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn submit(&self, input: Tensor<i64>) -> Result<Ticket> {
        self.admit(input, true)
    }

    /// Submits a request, *rejecting* immediately when the routed queue is at
    /// capacity — the admission-control path.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] when the routed replica's queue is
    /// full, or [`ServeError::ShuttingDown`] once shutdown has begun.
    pub fn try_submit(&self, input: Tensor<i64>) -> Result<Ticket> {
        self.admit(input, false)
    }

    fn admit(&self, input: Tensor<i64>, block: bool) -> Result<Ticket> {
        if self.shared.closed.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let replica = self.route();
        let slot = &self.shared.replicas[replica];
        let mut state = slot.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return Err(ServeError::ShuttingDown);
            }
            if state.queue.len() < self.shared.config.queue_capacity {
                break;
            }
            if !block {
                self.shared.rejected.fetch_add(1, Ordering::SeqCst);
                return Err(ServeError::QueueFull {
                    replica,
                    capacity: self.shared.config.queue_capacity,
                });
            }
            state = slot.cond.wait(state).expect("queue poisoned");
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = channel();
        state.queue.push_back(Pending {
            id,
            input,
            enqueued: Instant::now(),
            tx,
        });
        slot.waiting.store(state.queue.len(), Ordering::SeqCst);
        self.shared.submitted.fetch_add(1, Ordering::SeqCst);
        slot.cond.notify_all();
        Ok(Ticket { id, rx })
    }

    fn route(&self) -> usize {
        let replicas = self.shared.replicas.iter().enumerate();
        let candidates = replicas.map(|(i, r)| {
            (
                i,
                r.waiting.load(Ordering::SeqCst),
                r.in_flight.load(Ordering::SeqCst),
            )
        });
        let mut cursor = self.shared.rr_cursor.fetch_add(1, Ordering::SeqCst);
        let chosen = self.shared.config.routing.pick(candidates, &mut cursor);
        chosen.expect("at least one replica")
    }

    /// Begins a graceful shutdown: no new requests are admitted, every queued
    /// request is still executed (remaining batches flush without waiting out
    /// the batching delay), and all worker threads are joined.
    ///
    /// Idempotent — later calls are no-ops.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::WorkerLost`] if a worker thread panicked.
    pub fn shutdown(&self) -> Result<()> {
        self.shared.closed.store(true, Ordering::SeqCst);
        for slot in &self.shared.replicas {
            let mut state = slot.state.lock().expect("queue poisoned");
            state.closed = true;
            slot.cond.notify_all();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for handle in workers {
            handle.join().map_err(|_| ServeError::WorkerLost)?;
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// A [`Duration`] as saturated whole nanoseconds.
fn duration_ns(duration: Duration) -> u64 {
    duration.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// One replica's worker: form a batch (size- or deadline-closed), execute it,
/// answer its members; on shutdown, keep flushing until the queue is empty.
fn worker_loop(shared: &Shared, replica: usize) {
    let slot = &shared.replicas[replica];
    let max_batch = shared.config.batching.max_batch_size;
    let delay = Duration::from_nanos(shared.config.batching.max_queue_delay_ns);
    loop {
        let batch: Vec<Pending> = {
            let mut state = slot.state.lock().expect("queue poisoned");
            loop {
                if !state.queue.is_empty() {
                    break;
                }
                if state.closed {
                    return; // drained
                }
                state = slot.cond.wait(state).expect("queue poisoned");
            }
            // The batching window: the front request is never popped by
            // anyone else, so its deadline is stable across waits.
            let deadline = state.queue.front().expect("non-empty").enqueued + delay;
            while state.queue.len() < max_batch && !state.closed {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (next, _) = slot
                    .cond
                    .wait_timeout(state, deadline - now)
                    .expect("queue poisoned");
                state = next;
            }
            let size = state.queue.len().min(max_batch);
            let batch: Vec<Pending> = state.queue.drain(..size).collect();
            slot.waiting.store(state.queue.len(), Ordering::SeqCst);
            slot.in_flight.store(batch.len(), Ordering::SeqCst);
            // Capacity freed: wake submitters blocked on backpressure.
            slot.cond.notify_all();
            batch
        };
        // The moment the batching window decided this batch; input cloning
        // and dispatch bookkeeping after it count as batch wait.
        let closed = Instant::now();
        let inputs: Vec<Tensor<i64>> = batch.iter().map(|p| p.input.clone()).collect();
        let dispatched = Instant::now();
        let executed = {
            let _span = telemetry::span("serve.execute");
            shared.executor.execute(&inputs)
        };
        match executed {
            Ok(executed) => {
                let finished = Instant::now();
                let _merge_span = telemetry::span("serve.merge");
                shared.batches.fetch_add(1, Ordering::SeqCst);
                for (slot_index, pending) in batch.into_iter().enumerate() {
                    let phases = PhaseSample {
                        queue_wait_ns: duration_ns(closed.duration_since(pending.enqueued)),
                        batch_wait_ns: duration_ns(dispatched.duration_since(closed)),
                        execute_ns: duration_ns(finished.duration_since(dispatched)),
                        merge_ns: duration_ns(finished.elapsed()),
                    };
                    if telemetry::enabled() {
                        telemetry::observe_timing("serve.wall.queue_wait", phases.queue_wait_ns);
                        telemetry::observe_timing("serve.wall.batch_wait", phases.batch_wait_ns);
                        telemetry::observe_timing("serve.wall.execute", phases.execute_ns);
                        telemetry::observe_timing("serve.wall.merge", phases.merge_ns);
                    }
                    let completion = Completion {
                        id: pending.id,
                        replica,
                        batch_size: inputs.len(),
                        queue_wait: dispatched.duration_since(pending.enqueued),
                        wall_latency: pending.enqueued.elapsed(),
                        service_latency_ns: executed.latency_ns,
                        logits: executed.logits.as_ref().map(|l| l[slot_index].clone()),
                        bit_exact: executed.bit_exact,
                        phases,
                    };
                    shared.completed.fetch_add(1, Ordering::SeqCst);
                    // A caller that dropped its ticket is not an error.
                    let _ = pending.tx.send(Ok(completion));
                }
            }
            Err(err) => {
                for pending in batch {
                    let _ = pending.tx.send(Err(err.clone()));
                }
            }
        }
        slot.in_flight.store(0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BatchingPolicy;
    use crate::executor::ExecutedBatch;

    /// Echoes each input's first element as its "logit" after an optional
    /// sleep, so tests can verify request/response pairing under batching.
    struct EchoExecutor {
        sleep: Duration,
    }

    impl RequestExecutor for EchoExecutor {
        fn name(&self) -> String {
            "echo".to_string()
        }

        fn execute(&self, inputs: &[Tensor<i64>]) -> Result<ExecutedBatch> {
            std::thread::sleep(self.sleep);
            Ok(ExecutedBatch {
                latency_ns: 1_000,
                logits: Some(inputs.iter().map(|t| vec![t.as_slice()[0]]).collect()),
                bit_exact: None,
            })
        }
    }

    fn payload(value: i64) -> Tensor<i64> {
        Tensor::from_vec(vec![1, 1, 1], vec![value]).expect("payload")
    }

    fn echo_server(config: ServeConfig, sleep: Duration) -> Server {
        Server::start(Arc::new(EchoExecutor { sleep }), config).expect("start")
    }

    #[test]
    fn responses_pair_with_their_requests() {
        let server = echo_server(
            ServeConfig::default()
                .with_replicas(2)
                .with_batching(BatchingPolicy::new(4, 100)),
            Duration::from_millis(1),
        );
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| server.submit(payload(i)).expect("submit"))
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let completion = ticket.wait().expect("completion");
            assert_eq!(completion.logits, Some(vec![i as i64]));
            assert!(completion.batch_size >= 1 && completion.batch_size <= 4);
            assert!(completion.replica < 2);
        }
        let counters = server.counters();
        assert_eq!(counters.submitted, 16);
        assert_eq!(counters.completed, 16);
        assert!(counters.batches >= 4);
        server.shutdown().expect("shutdown");
    }

    #[test]
    fn graceful_shutdown_drains_every_request() {
        // A slow executor so most requests are still queued when shutdown
        // begins; every ticket must still get its answer.
        let server = echo_server(
            ServeConfig::default().with_batching(BatchingPolicy::new(2, 50_000)),
            Duration::from_millis(5),
        );
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| server.submit(payload(i)).expect("submit"))
            .collect();
        server.shutdown().expect("shutdown");
        for (i, ticket) in tickets.into_iter().enumerate() {
            let completion = ticket.wait().expect("completion after shutdown");
            assert_eq!(completion.logits, Some(vec![i as i64]));
        }
        assert_eq!(server.counters().completed, 10);
        // New submissions are refused.
        let err = server.submit(payload(99)).expect_err("closed");
        assert!(matches!(err, ServeError::ShuttingDown));
        // Shutdown is idempotent.
        server.shutdown().expect("second shutdown");
    }

    #[test]
    fn admission_control_rejects_when_full() {
        // Queue capacity 2 on one busy replica: the executor holds the worker
        // long enough for try_submit to hit a full queue.
        let server = echo_server(
            ServeConfig::default()
                .with_batching(BatchingPolicy::single())
                .with_queue_capacity(2),
            Duration::from_millis(50),
        );
        let mut tickets = Vec::new();
        let mut rejections = 0;
        for i in 0..12 {
            match server.try_submit(payload(i)) {
                Ok(ticket) => tickets.push((i, ticket)),
                Err(ServeError::QueueFull { replica, capacity }) => {
                    assert_eq!((replica, capacity), (0, 2));
                    rejections += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(rejections > 0, "flooding a capacity-2 queue must reject");
        assert_eq!(server.counters().rejected, rejections);
        for (i, ticket) in tickets {
            assert_eq!(ticket.wait().expect("completion").logits, Some(vec![i]));
        }
        server.shutdown().expect("shutdown");
    }

    #[test]
    fn blocking_submit_applies_backpressure_instead_of_rejecting() {
        let server = Arc::new(echo_server(
            ServeConfig::default()
                .with_batching(BatchingPolicy::single())
                .with_queue_capacity(1),
            Duration::from_millis(2),
        ));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    server
                        .submit(payload(i))
                        .expect("submit")
                        .wait()
                        .expect("wait")
                })
            })
            .collect();
        let mut seen: Vec<i64> = handles
            .into_iter()
            .map(|h| h.join().expect("join").logits.expect("logits")[0])
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..8).collect::<Vec<i64>>());
        assert_eq!(server.counters().rejected, 0);
        server.shutdown().expect("shutdown");
    }

    #[test]
    fn backend_errors_reach_every_batch_member() {
        struct FailingExecutor;
        impl RequestExecutor for FailingExecutor {
            fn name(&self) -> String {
                "failing".to_string()
            }
            fn execute(&self, _inputs: &[Tensor<i64>]) -> Result<ExecutedBatch> {
                Err(ServeError::Backend(apc::ApcError::InvalidArgument {
                    reason: "boom".to_string(),
                }))
            }
        }
        let server = Server::start(
            Arc::new(FailingExecutor),
            ServeConfig::default().with_batching(BatchingPolicy::new(4, 100)),
        )
        .expect("start");
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| server.submit(payload(i)).expect("submit"))
            .collect();
        for ticket in tickets {
            let err = ticket.wait().expect_err("backend failure");
            assert!(err.to_string().contains("boom"));
        }
        server.shutdown().expect("shutdown");
    }
}
