//! Criterion benchmarks of the compilation flow: CSE over a weight slice, full layer
//! compilation with and without CSE and of both at once through a
//! `CompileCache`, and the accelerator-level simulation.
//!
//! `cse_64_output_slice` is a small VGG-9 slice; `cse_resnet18_layer4_1_conv2_tile0`
//! is the first output-tile slice of the ResNet-18 layer class that dominates a
//! cold Table II compile, and `layer_compile_resnet18_layer4_1_conv2/both`
//! compiles that whole layer under both CSE settings in one slice walk.

use accel::{AcceleratorModel, ArchConfig};
use apc::dfg::{Dfg, WeightSlice};
use apc::layout::LayerLayout;
use apc::{CompileCache, CompilerOptions, LayerCompiler};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tnn::model::{resnet18, vgg9};

fn bench_cse(c: &mut Criterion) {
    let model = vgg9(0.85, 1);
    let layer = &model.conv_like_layers()[1];
    let slice = WeightSlice::from_layer_channel(layer, 0, 0..layer.cout).expect("slice");
    c.bench_function("cse_64_output_slice", |b| {
        b.iter(|| {
            let mut dfg = Dfg::from_slice(black_box(&slice));
            dfg.apply_cse().expect("cse");
            black_box(dfg.op_count().total())
        })
    });

    let model = resnet18(0.8, 7);
    let layer = model
        .conv_like_layers()
        .into_iter()
        .find(|l| l.name == "layer4_1_conv2")
        .expect("layer4_1_conv2");
    let options = CompilerOptions::default();
    let layout = LayerLayout::for_layer(
        options.geometry,
        options.act_bits,
        &layer,
        options.temp_budget,
    )
    .expect("layout");
    // 213 of the layer's 512 outputs under the default 4-bit layout.
    let tile = layout.tile_range(0, layer.cout);
    let slice = WeightSlice::from_layer_channel(&layer, 0, tile).expect("slice");
    c.bench_function("cse_resnet18_layer4_1_conv2_tile0", |b| {
        b.iter(|| {
            let mut dfg = Dfg::from_slice(black_box(&slice));
            dfg.apply_cse().expect("cse");
            black_box(dfg.op_count().total())
        })
    });

    // The layer4 layers are about 72 % of a cold ResNet-18 compile.
    let mut group = c.benchmark_group("layer_compile_resnet18_layer4_1_conv2");
    group.sample_size(10);
    group.bench_function("both", |b| {
        let compiler = LayerCompiler::new(options);
        b.iter(|| {
            black_box(
                compiler
                    .compile_both(black_box(&layer))
                    .map(|c| c.map(|c| c.stats)),
            )
        })
    });
    group.finish();
}

fn bench_layer_compile(c: &mut Criterion) {
    let model = vgg9(0.85, 1);
    let layer = model.conv_like_layers()[1].clone();
    let mut group = c.benchmark_group("layer_compile_vgg9_conv2");
    group.sample_size(10);
    group.bench_function("unroll", |b| {
        let compiler = LayerCompiler::new(CompilerOptions::unroll_only());
        b.iter(|| black_box(compiler.compile(black_box(&layer)).expect("compile").stats))
    });
    group.bench_function("unroll_cse", |b| {
        let compiler = LayerCompiler::new(CompilerOptions::default());
        b.iter(|| black_box(compiler.compile(black_box(&layer)).expect("compile").stats))
    });
    // Both variants through one fresh cache: one slice walk fills both entries.
    group.bench_function("pair", |b| {
        let cse = LayerCompiler::new(CompilerOptions::default());
        let unroll = LayerCompiler::new(CompilerOptions::unroll_only());
        b.iter(|| {
            let cache = CompileCache::new();
            let with_cse = cache.compile(&cse, black_box(&layer)).expect("compile");
            let without = cache.compile(&unroll, black_box(&layer)).expect("compile");
            black_box((with_cse.stats, without.stats))
        })
    });
    group.finish();
}

fn bench_accelerator_model(c: &mut Criterion) {
    let model = vgg9(0.85, 1);
    let layer = model.conv_like_layers()[1].clone();
    let compiled = LayerCompiler::new(CompilerOptions::default())
        .compile(&layer)
        .expect("compile");
    let accelerator = AcceleratorModel::new(ArchConfig::default());
    c.bench_function("accelerator_layer_report", |b| {
        b.iter(|| black_box(accelerator.simulate_layer(black_box(&compiled))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_cse, bench_layer_compile, bench_accelerator_model
}
criterion_main!(benches);
