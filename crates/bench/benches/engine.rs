//! Criterion benchmark: the [`ApController`] over the scalar [`CamArray`] vs
//! the word-parallel [`ApEngine`] vs compiled [`ap::PassPlan`]s executing the
//! compiled slice programs of a convolution layer.
//!
//! Two acceptance figures share this work list. The bit-plane rewrite: on a
//! full-height (256-row) array the interpreting engine must run the same
//! programs ≥20× faster than the scalar ground truth (`ENGINE_SPEEDUP_MIN`).
//! The pass-plan compiler: executing plans compiled once from those programs
//! must beat the interpreter ≥3× (`PLAN_SPEEDUP_MIN`). All three executions
//! are bit-identical (pinned by the `engine_equivalence` suite); only the
//! substrate differs. The `engine_speedup` function measures all three head
//! to head, prints both ratios, and appends a dated record to
//! `BENCH_engine.json` at the repo root (schema: `BENCH_schema.md`).

use ap::{ApController, ApEngine, Operand, PassPlan, PlanGeometry};
use apc::{CompileCache, CompiledLayer, CompilerOptions, LayerCompiler};
use cam::{AssociativeArray, BitPlaneArray, CamArray, CamTechnology};
use camdnn_bench::{
    append_bench_record, bench_smoke, median_and_range, utc_date_string, EngineBenchRecord,
};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tnn::model::ConvLayerInfo;
use tnn::TernaryTensor;

/// A small but realistic 3×3 convolution layer, compiled with retained
/// instruction streams.
fn compiled_conv_layer() -> (ConvLayerInfo, CompiledLayer) {
    let layer = ConvLayerInfo {
        node_id: 0,
        name: "bench-conv".to_string(),
        cin: 2,
        cout: 8,
        kernel: (3, 3),
        stride: 1,
        padding: 1,
        input_hw: (16, 16),
        output_hw: (16, 16),
        weights: TernaryTensor::random(vec![8, 2, 3, 3], 0.5, 42),
    };
    let compiled = LayerCompiler::new(CompilerOptions::default().with_programs())
        .compile(&layer)
        .expect("compile");
    (layer, compiled)
}

/// A controller over the array `new` builds, staged with deterministic
/// activations.
fn staged<A: AssociativeArray>(
    compiled: &CompiledLayer,
    new: fn(usize, usize, usize, CamTechnology) -> cam::Result<A>,
) -> ApController<A> {
    let layout = &compiled.layout;
    let g = layout.geometry;
    let mut ap =
        ApController::new(new(g.rows, g.cols, g.domains, CamTechnology::default()).expect("array"));
    for slice in compiled.slices.as_ref().expect("programs").iter() {
        if slice.tile != 0 {
            continue;
        }
        for k in 0..layout.patch_size {
            let values: Vec<i64> = (0..g.rows)
                .map(|row| (row as i64 * 7 + k as i64) % (1 << layout.act_bits))
                .collect();
            let operand = Operand::new(
                k,
                layout.channel_domain_base(slice.channel_in_group),
                layout.act_bits,
                false,
            );
            ap.load_column(&operand, &values).expect("load");
        }
    }
    ap
}

/// One execution unit: the tile-0 prologue plus every tile-0 slice program.
fn tile0_work(compiled: &CompiledLayer, cout: usize) -> Vec<ap::ApProgram> {
    let layout = &compiled.layout;
    let mut programs = vec![apc::codegen::tile_prologue(
        layout,
        layout.tile_range(0, cout).len(),
    )];
    for slice in compiled.slices.as_ref().expect("programs") {
        if slice.tile == 0 {
            programs.push(slice.program.clone());
        }
    }
    programs
}

/// The work list lowered once into pass plans through the shared cache (the
/// production path: compiled alongside the programs, reused every run).
fn compiled_plans(
    cache: &CompileCache,
    engine: &ApEngine,
    programs: &[ap::ApProgram],
) -> Vec<Arc<PassPlan>> {
    let geometry = PlanGeometry::of(engine.array());
    programs
        .iter()
        .map(|program| cache.plan(program, geometry))
        .collect()
}

fn bench_scalar_controller(c: &mut Criterion) {
    let (layer, compiled) = compiled_conv_layer();
    let programs = tile0_work(&compiled, layer.cout);
    let mut controller = staged(&compiled, CamArray::new);
    let mut group = c.benchmark_group("conv_layer_tile0_256_rows");
    group.sample_size(10);
    group.bench_function("scalar_controller", |b| {
        b.iter(|| {
            for program in &programs {
                controller.run(black_box(program)).expect("run");
            }
        })
    });
    group.finish();
}

fn bench_bitplane_engine(c: &mut Criterion) {
    let (layer, compiled) = compiled_conv_layer();
    let programs = tile0_work(&compiled, layer.cout);
    let mut engine = staged(&compiled, BitPlaneArray::new);
    let mut group = c.benchmark_group("conv_layer_tile0_256_rows");
    group.sample_size(10);
    group.bench_function("bitplane_engine", |b| {
        b.iter(|| {
            for program in &programs {
                engine.run(black_box(program)).expect("run");
            }
        })
    });
    group.finish();
}

fn bench_plan_engine(c: &mut Criterion) {
    let (layer, compiled) = compiled_conv_layer();
    let programs = tile0_work(&compiled, layer.cout);
    let mut engine = staged(&compiled, BitPlaneArray::new);
    let cache = CompileCache::new();
    let plans = compiled_plans(&cache, &engine, &programs);
    let mut group = c.benchmark_group("conv_layer_tile0_256_rows");
    group.sample_size(10);
    group.bench_function("pass_plans", |b| {
        b.iter(|| {
            for plan in &plans {
                engine.run_plan(black_box(plan)).expect("run");
            }
        })
    });
    group.finish();
}

/// Interleaved timing rounds of `engine_speedup`.
const ROUNDS: usize = 5;

/// Times all three substrates head to head on the identical work list and
/// prints both acceptance ratios: scalar→interpreter (the ≥20× bit-plane
/// figure) and interpreter→plan (the ≥3× pass-plan figure), each the median
/// over [`ROUNDS`] interleaved rounds. Appends the medians and ranges as one
/// dated record to `BENCH_engine.json` at the repo root.
fn engine_speedup(_c: &mut Criterion) {
    let smoke = bench_smoke();
    let (layer, compiled) = compiled_conv_layer();
    let programs = tile0_work(&compiled, layer.cout);
    let mut controller = staged(&compiled, CamArray::new);
    let mut engine = staged(&compiled, BitPlaneArray::new);
    let cache = CompileCache::new();
    let plans = compiled_plans(&cache, &engine, &programs);
    assert_eq!(
        cache.plan_summary().fallbacks,
        0,
        "bench programs must specialize"
    );
    // Warm-up once each.
    for (program, plan) in programs.iter().zip(&plans) {
        controller.run(program).expect("run");
        engine.run(program).expect("run");
        engine.run_plan(plan).expect("run");
    }
    // Interleaved rounds: each times all three substrates back to back, so
    // a burst of machine noise hits one round's columns together and the
    // per-round ratios stay comparable; the gates read their medians.
    let (scalar_iters, packed_iters) = if smoke { (1u32, 5u32) } else { (3, 50) };
    let mut rounds: Vec<[f64; 3]> = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..scalar_iters {
            for program in &programs {
                controller.run(black_box(program)).expect("run");
            }
        }
        let scalar = start.elapsed().as_secs_f64() / f64::from(scalar_iters);
        let start = Instant::now();
        for _ in 0..packed_iters {
            for program in &programs {
                engine.run(black_box(program)).expect("run");
            }
        }
        let packed = start.elapsed().as_secs_f64() / f64::from(packed_iters);
        let start = Instant::now();
        for _ in 0..packed_iters {
            for plan in &plans {
                engine.run_plan(black_box(plan)).expect("run");
            }
        }
        let planned = start.elapsed().as_secs_f64() / f64::from(packed_iters);
        rounds.push([scalar * 1e3, packed * 1e3, planned * 1e3]);
    }
    let column = |pick: fn(&[f64; 3]) -> f64| median_and_range(rounds.iter().map(pick));
    let (scalar, scalar_ms_range) = column(|r| r[0]);
    let (packed, interpreter_ms_range) = column(|r| r[1]);
    let (planned, plan_ms_range) = column(|r| r[2]);
    let (speedup, engine_speedup_range) = column(|r| r[0] / r[1]);
    let (plan_speedup, plan_speedup_range) = column(|r| r[1] / r[2]);
    let summary = cache.plan_summary();
    println!(
        "engine_speedup (median of {ROUNDS} rounds): scalar {scalar:.3} ms/iter, \
         bit-plane {packed:.3} ms/iter -> {speedup:.1}x (range {:.1}-{:.1}x)",
        engine_speedup_range.min, engine_speedup_range.max
    );
    println!(
        "plan_speedup (median of {ROUNDS} rounds): interpreter {packed:.3} ms/iter, \
         pass plans {planned:.3} ms/iter -> {plan_speedup:.1}x (range {:.1}-{:.1}x; \
         {} plans, {} -> {} passes after fusion)",
        plan_speedup_range.min,
        plan_speedup_range.max,
        summary.plans,
        summary.passes_before_fusion,
        summary.passes_after_fusion,
    );
    append_bench_record(
        "BENCH_engine.json",
        &EngineBenchRecord {
            date: utc_date_string(),
            bench: "engine".to_string(),
            scalar_ms_per_iter: scalar,
            interpreter_ms_per_iter: packed,
            plan_ms_per_iter: planned,
            engine_speedup: speedup,
            plan_speedup,
            smoke,
            plan_cache: summary,
            rounds: ROUNDS,
            scalar_ms_range,
            interpreter_ms_range,
            plan_ms_range,
            engine_speedup_range,
            plan_speedup_range,
        },
    );
    // The acceptance criteria, enforced whenever the bench actually runs
    // (CI smokes it with BENCH_SMOKE=1 and the floors zeroed; run it locally
    // for real figures). Wall-clock ratios can dip on heavily loaded machines
    // — override the floors with ENGINE_SPEEDUP_MIN / PLAN_SPEEDUP_MIN
    // (e.g. `ENGINE_SPEEDUP_MIN=0` to disable).
    let floor: f64 = std::env::var("ENGINE_SPEEDUP_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    assert!(
        speedup >= floor,
        "bit-plane engine must be >={floor}x faster than the scalar controller, measured {speedup:.1}x"
    );
    let plan_floor: f64 = std::env::var("PLAN_SPEEDUP_MIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    assert!(
        plan_speedup >= plan_floor,
        "compiled pass plans must be >={plan_floor}x faster than the interpreter, measured {plan_speedup:.1}x"
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_scalar_controller, bench_bitplane_engine, bench_plan_engine, engine_speedup
}
criterion_main!(benches);
