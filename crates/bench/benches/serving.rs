//! Criterion benchmark: dynamic batching vs request-at-a-time dispatch on the
//! threaded serving runtime.
//!
//! This is the acceptance benchmark of the serving subsystem: under
//! saturating load (every request submitted as fast as admission allows),
//! the dynamic batcher (batches close at 64 requests or 200 µs) must deliver
//! at least 3× the wall-clock samples/s of batch-size-1 dispatch on
//! `micro_cnn`, while reporting the p50/p95/p99 request latency distribution
//! through the shared log-bucketed [`LatencyHistogram`]. Both paths produce
//! value-identical logits (pinned by the `serving` suite); only the batch
//! composition differs.

use camdnn::telemetry::LatencyHistogram;
use camdnn::FunctionalBackend;
use criterion::{criterion_group, criterion_main, Criterion};
use serve::{BackendExecutor, BatchingPolicy, ServeConfig, Server};
use std::sync::Arc;
use std::time::Instant;
use tnn::model::micro_cnn;
use tnn::Tensor;

const REQUESTS: usize = 128;

fn executor() -> Arc<BackendExecutor> {
    Arc::new(BackendExecutor::functional(
        FunctionalBackend::default(),
        Arc::new(micro_cnn("serving-micro", 8, 0.8, 42)),
    ))
}

fn request_inputs(executor: &BackendExecutor) -> Vec<Tensor<i64>> {
    (0..REQUESTS)
        .map(|i| FunctionalBackend::input_for_sample(executor.model(), 4, 0, i))
        .collect()
}

fn config(batching: BatchingPolicy) -> ServeConfig {
    ServeConfig::default()
        .with_batching(batching)
        .with_queue_capacity(2 * REQUESTS)
}

/// Floods a freshly started server with every input (saturating load), waits
/// for all responses, records per-request wall latencies, and returns the
/// drain time in seconds.
fn drive(
    executor: Arc<BackendExecutor>,
    config: ServeConfig,
    inputs: &[Tensor<i64>],
    histogram: &mut LatencyHistogram,
) -> f64 {
    let server = Server::start(executor, config).expect("start server");
    let start = Instant::now();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|input| server.submit(input.clone()).expect("submit"))
        .collect();
    for ticket in tickets {
        let completion = ticket.wait().expect("completion");
        histogram.record(completion.wall_latency);
    }
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown().expect("shutdown");
    elapsed
}

fn bench_single_dispatch(c: &mut Criterion) {
    let executor = executor();
    let inputs = request_inputs(&executor);
    // Warm the shared compile cache outside the timed region.
    drive(
        executor.clone(),
        config(BatchingPolicy::single()),
        &inputs[..1],
        &mut LatencyHistogram::new(),
    );
    let mut group = c.benchmark_group("serve_micro_cnn_128_requests");
    group.sample_size(10);
    group.bench_function("single_dispatch_b1", |b| {
        b.iter(|| {
            drive(
                executor.clone(),
                config(BatchingPolicy::single()),
                &inputs,
                &mut LatencyHistogram::new(),
            )
        })
    });
    group.finish();
}

fn bench_dynamic_batching(c: &mut Criterion) {
    let executor = executor();
    let inputs = request_inputs(&executor);
    drive(
        executor.clone(),
        config(BatchingPolicy::new(64, 200)),
        &inputs[..1],
        &mut LatencyHistogram::new(),
    );
    let mut group = c.benchmark_group("serve_micro_cnn_128_requests");
    group.sample_size(10);
    group.bench_function("dynamic_batching_b64", |b| {
        b.iter(|| {
            drive(
                executor.clone(),
                config(BatchingPolicy::new(64, 200)),
                &inputs,
                &mut LatencyHistogram::new(),
            )
        })
    });
    group.finish();
}

/// Times both dispatch modes head to head on the identical saturating load
/// and prints the wall-clock samples/s ratio (the ≥3× serving acceptance
/// figure) next to both latency distributions.
fn serving_speedup(_c: &mut Criterion) {
    let executor = executor();
    let inputs = request_inputs(&executor);
    // Warm-up: compile every layer into the shared cache.
    drive(
        executor.clone(),
        config(BatchingPolicy::single()),
        &inputs[..1],
        &mut LatencyHistogram::new(),
    );

    let iters = 3u32;
    let mut single_latency = LatencyHistogram::new();
    let mut batched_latency = LatencyHistogram::new();
    let mut single_s = 0.0;
    let mut batched_s = 0.0;
    for _ in 0..iters {
        single_s += drive(
            executor.clone(),
            config(BatchingPolicy::single()),
            &inputs,
            &mut single_latency,
        );
        batched_s += drive(
            executor.clone(),
            config(BatchingPolicy::new(64, 200)),
            &inputs,
            &mut batched_latency,
        );
    }
    let single_rate = f64::from(iters) * REQUESTS as f64 / single_s;
    let batched_rate = f64::from(iters) * REQUESTS as f64 / batched_s;
    let speedup = batched_rate / single_rate;
    println!(
        "serving_speedup: single-dispatch {single_rate:.1} samples/s, dynamic batching \
         {batched_rate:.1} samples/s -> {speedup:.1}x"
    );
    println!("  single-dispatch latency: {}", single_latency.summary_ms());
    println!(
        "  dynamic-batch   latency: {}",
        batched_latency.summary_ms()
    );
    // The serving acceptance criterion, enforced whenever the bench actually
    // runs (CI compiles it with --no-run; run it locally). Wall-clock ratios
    // can dip on heavily loaded machines — override the floor with
    // SERVING_SPEEDUP_MIN (e.g. `SERVING_SPEEDUP_MIN=0`).
    let floor: f64 = std::env::var("SERVING_SPEEDUP_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    assert!(
        speedup >= floor,
        "dynamic batching must reach >={floor}x the single-dispatch samples/s at saturating \
         load, measured {speedup:.1}x"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_single_dispatch, bench_dynamic_batching, serving_speedup
}
criterion_main!(benches);
