//! `camdnn-serve`: a deterministic dynamic-batching inference server for the
//! CAM/RTM stack.
//!
//! The functional backend executes a batch of samples at once; this crate
//! adds the layer that decides *which* requests form a batch under live load:
//!
//! * [`Server`] — a threaded serving runtime (hand-rolled on `std::thread`,
//!   channels and condvars; no async crates exist in the vendored build):
//!   per-replica request queues with admission control
//!   ([`Server::try_submit`]) and backpressure ([`Server::submit`]), dynamic
//!   batching workers that close a batch at `max_batch_size` or
//!   `max_queue_delay` (whichever first), pluggable replica routing
//!   ([`RoutePolicy`]: round-robin, least-loaded, join-shortest-queue), and
//!   graceful shutdown that drains every admitted request.
//! * [`simulate`] — the same decision rules replayed on a **virtual clock**
//!   against a seeded [`TraceSpec`] (Poisson or bursty arrivals): a fixed
//!   trace seed reproduces the exact same batch compositions, per-request
//!   logits (bit-identical to solo `run_batch` calls) and latency statistics
//!   on every run, at any `RAYON_NUM_THREADS`. It runs the [`fleet`] event
//!   loop as one stage of fixed replicas, routing like the server.
//! * [`ServeReport`] — p50/p95/p99 latency, queue behaviour, achieved
//!   samples/s and SLO attainment, with byte-identical JSON for a fixed
//!   seed.
//! * [`ServeGrid`] / [`ServeSession`] — serving sweeps (traffic intensity ×
//!   batching policy × replica count) in the `camdnn::experiment` idiom,
//!   sharing one compile cache across all scenarios.
//! * [`fleet`] — fleet-scale capacity planning: model-parallel replicas whose
//!   layers are cut into pipeline stages by [`apc::plan_stages`] over a
//!   profiled per-layer cost model, bounded inter-stage queues with
//!   head-of-line blocking, deterministic autoscaling ([`AutoscalePolicy`]),
//!   diurnal / flash-crowd traffic, and a joules-per-sample cost model;
//!   [`FleetGrid`] sweeps shards × replicas × autoscaler policy into a
//!   pareto table over SLO attainment vs energy.
//!
//! Batches run through [`BackendExecutor`], which calls
//! [`FunctionalBackend::run_batch`](camdnn::FunctionalBackend::run_batch)
//! against a shared [`apc::CompileCache`]. The bit-level functional backend
//! is the serving backend because its per-request logits are value-identical
//! to solo runs at any batch composition (the batch-equivalence invariant).
//! Other cost models plug in as a custom [`RequestExecutor`].

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod executor;
pub mod experiment;
pub mod fleet;
pub mod report;
pub mod server;
pub mod sim;
pub mod trace;

pub use config::{BatchingPolicy, RoutePolicy, ServeConfig};
pub use error::{Result, ServeError};
pub use executor::{BackendExecutor, ExecutedBatch, RequestExecutor};
pub use experiment::{ServeGrid, ServeRecord, ServeResultSet, ServeScenario, ServeSession};
pub use fleet::{
    pareto, simulate_fleet, AutoscalePolicy, FleetConfig, FleetGrid, FleetRecord, FleetReport,
    FleetResultSet, FleetScenario, FleetSession, FleetStageModel, ScaleEvent, StageCost,
};
pub use report::{LatencySummary, PhaseBreakdown, PhaseSample, ServeReport};
pub use server::{Completion, Server, ServerCounters, Ticket};
pub use sim::{simulate, BatchRecord, SimCompletion, SimOutcome};
pub use trace::{ArrivalProcess, PayloadSpec, Trace, TraceSpec};
