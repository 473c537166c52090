//! Criterion benchmark: batched vs sequential functional inference.
//!
//! This is the acceptance benchmark of the batched execution path: packing
//! B = 64 samples' (tile × row group) units into shared bit-plane arrays must
//! deliver at least 2× the samples/s of evaluating the same 64 inputs one at
//! a time on `micro_cnn`. (The floor was 4× against the interpreting engine;
//! compiled pass plans accelerate the batch-of-one baseline ~3× while the
//! already-amortized batched path gains ~16%, so the guarded ratio shrank —
//! batched samples/s itself went up, see `BENCH_throughput.json`.) Both
//! paths produce value-identical logits (pinned by the `batch_equivalence`
//! suite); only the packing differs. The `batch_speedup` function reports the
//! median ratio over interleaved timing rounds, with its range, next to the
//! hardware-model throughput (`samples_per_s`) the reports derive from the
//! executed cycle counters, and appends a dated record (including the plan
//! cache summary of the shared compile cache) to `BENCH_throughput.json` at
//! the repo root (schema: `BENCH_schema.md`).

use apc::CompileCache;
use camdnn::telemetry::LatencyHistogram;
use camdnn::FunctionalBackend;
use camdnn_bench::{
    append_bench_record, bench_smoke, median_and_range, utc_date_string, ThroughputBenchRecord,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tnn::model::{micro_cnn, ModelGraph};
use tnn::Tensor;

const BATCH: usize = 64;

/// Interleaved timing rounds of `batch_speedup`.
const ROUNDS: usize = 5;

/// Batch size of the timed head-to-head: the full 64, or 8 under
/// `BENCH_SMOKE` so CI can exercise the measurement and record-emission path
/// quickly.
fn timed_batch() -> usize {
    if bench_smoke() {
        8
    } else {
        BATCH
    }
}

fn workload() -> ModelGraph {
    micro_cnn("throughput-micro", 8, 0.8, 42)
}

/// The 64 per-slot inputs the backend would stage for its base seed.
fn batch_inputs(model: &ModelGraph) -> Vec<Tensor<i64>> {
    (0..BATCH)
        .map(|sample| FunctionalBackend::input_for_sample(model, 4, 0, sample))
        .collect()
}

/// Runs every input as its own batch of one (the sequential baseline),
/// recording each call's wall-clock latency.
fn run_sequential(
    backend: &FunctionalBackend,
    model: &ModelGraph,
    inputs: &[Tensor<i64>],
    cache: &CompileCache,
    histogram: &mut LatencyHistogram,
) {
    for input in inputs {
        let start = Instant::now();
        black_box(
            backend
                .run_batch(model, std::slice::from_ref(input), cache)
                .expect("sequential run"),
        );
        histogram.record(start.elapsed());
    }
}

fn bench_sequential(c: &mut Criterion) {
    let model = workload();
    let backend = FunctionalBackend::default();
    let cache = CompileCache::new();
    let inputs = batch_inputs(&model);
    let mut group = c.benchmark_group("micro_cnn_64_samples");
    group.sample_size(10);
    group.bench_function("sequential_b1", |b| {
        b.iter(|| {
            run_sequential(
                &backend,
                &model,
                &inputs,
                &cache,
                &mut LatencyHistogram::new(),
            )
        })
    });
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    let model = workload();
    let backend = FunctionalBackend::default();
    let cache = CompileCache::new();
    let inputs = batch_inputs(&model);
    let mut group = c.benchmark_group("micro_cnn_64_samples");
    group.sample_size(10);
    group.bench_function("batched_b64", |b| {
        b.iter(|| {
            black_box(
                backend
                    .run_batch(&model, black_box(&inputs), &cache)
                    .expect("batched run"),
            )
        })
    });
    group.finish();
}

/// Times both paths head to head on the identical 64 inputs over [`ROUNDS`]
/// interleaved rounds and prints the median wall-clock samples/s ratio (the
/// ≥2× acceptance figure of the batched pipeline) next to the modeled
/// throughput.
fn batch_speedup(_c: &mut Criterion) {
    let smoke = bench_smoke();
    let batch = timed_batch();
    let model = workload();
    let backend = FunctionalBackend::default();
    let cache = CompileCache::new();
    let inputs = &batch_inputs(&model)[..batch];
    // Warm-up compiles every layer into the shared cache and faults in both
    // paths once, so neither timed loop pays compilation.
    run_sequential(
        &backend,
        &model,
        &inputs[..1],
        &cache,
        &mut LatencyHistogram::new(),
    );
    let batched_report = backend.run_batch(&model, inputs, &cache).expect("batch");

    // Per-call wall-clock latency distributions of both paths accumulate in
    // the shared log-bucketed histogram across iterations. Recording costs
    // ~100 ns against ~1 ms calls, so the timed ratio is unaffected.
    let mut sequential_latency = LatencyHistogram::new();
    let mut batched_latency = LatencyHistogram::new();
    // Interleaved rounds: each times both paths back to back, so a burst of
    // machine noise hits one round's pair together and the per-round ratios
    // stay comparable; the gate reads their median.
    let iters = if smoke { 1u32 } else { 3 };
    let mut rounds: Vec<[f64; 2]> = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..iters {
            run_sequential(&backend, &model, inputs, &cache, &mut sequential_latency);
        }
        let sequential = start.elapsed().as_secs_f64() / f64::from(iters);
        let start = Instant::now();
        for _ in 0..iters {
            let call = Instant::now();
            black_box(
                backend
                    .run_batch(&model, black_box(inputs), &cache)
                    .expect("batched run"),
            );
            batched_latency.record(call.elapsed());
        }
        let batched = start.elapsed().as_secs_f64() / f64::from(iters);
        rounds.push([batch as f64 / sequential, batch as f64 / batched]);
    }
    let column = |pick: fn(&[f64; 2]) -> f64| median_and_range(rounds.iter().map(pick));
    let (sequential, sequential_samples_per_s_range) = column(|r| r[0]);
    let (batched, batched_samples_per_s_range) = column(|r| r[1]);
    let (speedup, batch_speedup_range) = column(|r| r[1] / r[0]);
    println!(
        "batch_speedup (median of {ROUNDS} rounds): sequential {sequential:.1} samples/s, \
         batched {batched:.1} samples/s -> {speedup:.1}x (range {:.1}-{:.1}x; \
         modeled: {:.1} samples/s, {:.3e} J/sample)",
        batch_speedup_range.min,
        batch_speedup_range.max,
        batched_report.samples_per_s,
        batched_report.joules_per_sample,
    );
    let summary = cache.plan_summary();
    println!(
        "  plan cache: {} plans ({} fallbacks), {} -> {} passes after fusion, \
         {} hits / {} misses",
        summary.plans,
        summary.fallbacks,
        summary.passes_before_fusion,
        summary.passes_after_fusion,
        summary.hits,
        summary.misses,
    );
    append_bench_record(
        "BENCH_throughput.json",
        &ThroughputBenchRecord {
            date: utc_date_string(),
            bench: "throughput".to_string(),
            batch,
            sequential_samples_per_s: sequential,
            batched_samples_per_s: batched,
            batch_speedup: speedup,
            modeled_samples_per_s: batched_report.samples_per_s,
            joules_per_sample: batched_report.joules_per_sample,
            smoke,
            plan_cache: summary,
            rounds: ROUNDS,
            sequential_samples_per_s_range,
            batched_samples_per_s_range,
            batch_speedup_range,
        },
    );
    println!("  sequential per-call: {}", sequential_latency.summary_ms());
    println!("  batched   per-call: {}", batched_latency.summary_ms());
    // The acceptance criterion of the batched pipeline, enforced whenever
    // the bench actually runs (CI smokes it with BENCH_SMOKE=1 and the floor
    // zeroed; run it locally for real figures). The default floor is 2× with
    // the compiled-plan engine: plans sped the sequential baseline up ~3×
    // while the batched path — whose interpreter overhead was already
    // amortized across 64 samples — gains ~16%, so packing still wins but by
    // a smaller ratio than against the interpreter (4×, the old default).
    // Wall-clock ratios can dip on heavily loaded machines — override the
    // floor with THROUGHPUT_SPEEDUP_MIN (e.g. `THROUGHPUT_SPEEDUP_MIN=0`).
    let floor: f64 = std::env::var("THROUGHPUT_SPEEDUP_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    assert!(
        speedup >= floor,
        "batched execution must reach >={floor}x the sequential samples/s at B={batch}, \
         measured a median of {speedup:.1}x over {ROUNDS} rounds"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sequential, bench_batched, batch_speedup
}
criterion_main!(benches);
