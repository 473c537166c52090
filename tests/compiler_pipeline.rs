//! Integration test: the compilation flow end to end — the per-slice walk,
//! DFG, CSE, bitwidths, allocation and code generation — over layers of the
//! real model definitions.

use apc::codegen::tile_prologue;
use apc::{CompileStats, CompilerOptions, LayerCompiler};
use camdnn::corpus::{load_specs, model_for};
use tnn::model::{resnet18, resnet18_at, vgg11, vgg9, ModelGraph};

#[test]
fn unrolled_code_keeps_exactly_the_nonzero_weights() {
    let model = vgg9(0.85, 3);
    let layer = &model.conv_like_layers()[1];
    let compiled = LayerCompiler::new(CompilerOptions::unroll_only())
        .compile(layer)
        .expect("compile");
    // Full unrolling emits one accumulation per weight; constant folding
    // keeps exactly the non-zero ones.
    let nonzero = layer.weights.iter().filter(|&w| w != 0).count();
    assert_eq!(compiled.stats.nonzero_weights, nonzero as u64);
    assert!(compiled.stats.counted_adds_subs < layer.weights.len() as u64);
}

#[test]
fn cse_reduction_holds_across_every_vgg9_layer() {
    let model = vgg9(0.85, 9);
    let with_cse = LayerCompiler::new(CompilerOptions::default());
    let unroll = LayerCompiler::new(CompilerOptions::unroll_only());
    let mut total_with = 0u64;
    let mut total_without = 0u64;
    for layer in model.conv_like_layers().iter().take(6) {
        let a = with_cse.compile(layer).expect("compile");
        let b = unroll.compile(layer).expect("compile");
        assert!(
            a.stats.counted_adds_subs <= b.stats.counted_adds_subs,
            "layer {}",
            layer.name
        );
        total_with += a.stats.counted_adds_subs;
        total_without += b.stats.counted_adds_subs;
    }
    let reduction = 1.0 - total_with as f64 / total_without as f64;
    // The paper reports an average 31% reduction for ResNet-18; the CIFAR-scale VGG
    // layers should show a clearly measurable reduction as well.
    assert!(
        reduction > 0.10,
        "overall CSE reduction only {:.1}%",
        reduction * 100.0
    );
}

/// Every operand column of every retained slice program and of every tile
/// prologue lies below the layout's `columns_used()`, which itself fits the
/// geometry — the invariant that lets the functional backend allocate unit
/// arrays of only `columns_used()` columns.
#[test]
fn compiled_programs_fit_the_cam_geometry() {
    let mut models: Vec<(ModelGraph, u8)> = vec![
        (vgg11(0.9, 4), 4),
        (vgg9(0.85, 9), 4),
        (resnet18_at(32, 0.8, 7), 4),
    ];
    for entry in load_specs().expect("corpus") {
        models.push((model_for(&entry.spec).expect("model"), entry.spec.act_bits));
    }
    for (model, act_bits) in &models {
        let options = CompilerOptions::default()
            .with_act_bits(*act_bits)
            .with_programs();
        let compiler = LayerCompiler::new(options);
        for layer in model.conv_like_layers() {
            let compiled = compiler.compile(&layer).expect("compile");
            let layout = &compiled.layout;
            let used = layout.columns_used();
            assert!(used <= layout.geometry.cols, "layer {}", layer.name);
            let prologues = (0..layout.output_tiles)
                .map(|tile| tile_prologue(layout, layout.tile_range(tile, layer.cout).len()));
            let slices = compiled.slices.iter().flatten().map(|s| s.program.clone());
            for program in prologues.chain(slices) {
                if let Some(max_col) = program.max_column() {
                    assert!(
                        max_col < used,
                        "{}/{} uses column {max_col} of the {used} it declares",
                        model.name(),
                        layer.name
                    );
                }
            }
        }
    }
}

#[test]
fn fully_connected_layers_compile_like_1x1_convolutions() {
    let model = vgg9(0.85, 5);
    let fc = model
        .conv_like_layers()
        .into_iter()
        .find(|l| l.name == "fc1")
        .expect("fc1");
    let compiled = LayerCompiler::new(CompilerOptions::default())
        .compile(&fc)
        .expect("compile");
    assert_eq!(compiled.kernel, (1, 1));
    assert_eq!(compiled.output_positions, 1);
    // A 1x1 kernel has single-term outputs only, so all of its arithmetic consists of
    // direct accumulations into the output columns.
    assert!(compiled.stats.arithmetic_ops() > 0);
    assert!(compiled.stats.accumulate_ops > 0);
}

/// Every field of `stats`, mapped back to the 17 values the goldens below
/// were written in: the per-row cost halves become the old per-row fields
/// (the DFG half includes the tile prologues and, as its I/O bits, the
/// staging). Destructuring makes a new field a compile error here, so the
/// goldens always cover all of them.
fn all_fields(stats: &CompileStats) -> [u64; 17] {
    let CompileStats {
        counted_adds_subs,
        accumulate_ops,
        in_place,
        out_of_place,
        cse_signals,
        baseline_adds_subs,
        nonzero_weights,
        cse_fallbacks,
        total_cycles,
        dfg,
        accumulation,
        max_temp_columns,
        slices,
    } = *stats;
    assert_eq!(
        total_cycles,
        dfg.compute_cycles() + accumulation.compute_cycles(),
        "total_cycles is the halves' compute cycles"
    );
    [
        counted_adds_subs,
        accumulate_ops,
        in_place,
        out_of_place,
        cse_signals,
        baseline_adds_subs,
        nonzero_weights,
        cse_fallbacks,
        total_cycles,
        accumulation.compute_cycles(),
        accumulation.searched_bits,
        accumulation.written_bits,
        dfg.searched_bits + accumulation.searched_bits,
        dfg.written_bits + accumulation.written_bits,
        dfg.io_written_bits,
        max_temp_columns,
        slices,
    ]
}

/// Every field of a whole-model VGG-9 compile, summed over its layers.
fn pinned_counters(options: CompilerOptions) -> [u64; 17] {
    let model = vgg9(0.85, 1);
    let compiler = LayerCompiler::new(options);
    let stats = model
        .conv_like_layers()
        .iter()
        .map(|layer| compiler.compile(layer).expect("compile").stats)
        .fold(CompileStats::new(), |sum, s| sum + s);
    all_fields(&stats)
}

#[test]
fn vgg9_compile_stats_are_pinned_exactly() {
    // `all_fields` in order: counted_adds_subs, accumulate_ops, in_place,
    // out_of_place, cse_signals, baseline_adds_subs, nonzero_weights,
    // cse_fallbacks, total_cycles; the accumulation half's compute cycles,
    // searched and written bits; both halves' searched and written bits; the
    // staged I/O bits; max_temp_columns, slices. Any change to CSE, allocation,
    // code generation or costing that moves one instruction of any VGG-9 slice
    // moves one of them.
    assert_eq!(pinned_counters(CompilerOptions::default()), VGG9_CSE);
    assert_eq!(pinned_counters(CompilerOptions::unroll_only()), VGG9_UNROLL);
}

const VGG9_CSE: [u64; 17] = [
    47664, 452084, 455602, 44146, 13823, 73744, 525828, 0, 30137306, 27355044, 35969304, 4911238,
    39337079, 5608543, 94316, 24, 15363,
];
const VGG9_UNROLL: [u64; 17] = [
    73744, 452084, 474887, 50941, 0, 73744, 525828, 0, 31064482, 27355044, 35969304, 4911238,
    40523452, 5815872, 94316, 0, 15363,
];

/// FNV-1a over the little-endian bytes of every `CompileStats` field.
fn stats_digest(stats: &CompileStats) -> u64 {
    all_fields(stats)
        .iter()
        .flat_map(|field| field.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
#[ignore = "compiles ResNet-18 twice over; run in release"]
fn resnet18_compile_stats_are_pinned_exactly() {
    // Per layer of resnet18(0.8, 7): the `stats_digest` of `unroll` and of
    // `unroll+CSE`.
    let model = resnet18(0.8, 7);
    let both = LayerCompiler::new(CompilerOptions::default());
    let digests: Vec<(String, u64, u64)> = model
        .conv_like_layers()
        .iter()
        .map(|layer| {
            let [unroll, cse] = both.compile_both(layer).map(|r| r.expect("compile"));
            for (compiled, options) in [
                (&unroll, CompilerOptions::unroll_only()),
                (&cse, CompilerOptions::default()),
            ] {
                let alone = LayerCompiler::new(options).compile(layer).expect("compile");
                assert_eq!(&alone, compiled, "{}", layer.name);
            }
            (
                layer.name.clone(),
                stats_digest(&unroll.stats),
                stats_digest(&cse.stats),
            )
        })
        .collect();
    let expected: Vec<(String, u64, u64)> = RESNET18_DIGESTS
        .iter()
        .map(|&(name, unroll, cse)| (name.to_string(), unroll, cse))
        .collect();
    assert_eq!(digests, expected);
}

const RESNET18_DIGESTS: [(&str, u64, u64); 21] = [
    ("conv1", 0x5c93b50e563f0897, 0x0fd8e5cc7bebac40),
    ("layer1_0_conv1", 0xe81019af5e90db08, 0xf28047f241d19795),
    ("layer1_0_conv2", 0x2a4dfbef98ad611a, 0xbe8f5e2e68a2776f),
    ("layer1_1_conv1", 0x186cb1c15a2b8af7, 0x1dc3d855a786bcb2),
    ("layer1_1_conv2", 0x103432cf78133fb6, 0x4d90cf7b06347162),
    (
        "layer2_0_downsample",
        0xa0e4dcab55e2b9fc,
        0xa0e4dcab55e2b9fc,
    ),
    ("layer2_0_conv1", 0xa4c65e4a57e03cdb, 0xe05a16d5cae703c3),
    ("layer2_0_conv2", 0x6414b561de6b6832, 0xd4213e74dc72f99c),
    ("layer2_1_conv1", 0x231fb8e49b5b856d, 0x078d4694ff5c29da),
    ("layer2_1_conv2", 0xc5f6c2f23865a1f4, 0x3c29a7c72e958a5d),
    (
        "layer3_0_downsample",
        0x21e2f640f56447a8,
        0x21e2f640f56447a8,
    ),
    ("layer3_0_conv1", 0x2cfe334e38474016, 0x2dfc89813a132fcc),
    ("layer3_0_conv2", 0x1ac33d4ba0a4fce1, 0x2c1c59350ce7f8b5),
    ("layer3_1_conv1", 0x687ecba2ccb22b8f, 0xb0613b2e9f2736d9),
    ("layer3_1_conv2", 0xe8ab4e617b338573, 0xd991bde965e301f6),
    (
        "layer4_0_downsample",
        0x15490263abc7e788,
        0x15490263abc7e788,
    ),
    ("layer4_0_conv1", 0xd3bac32b6912c6f5, 0xfbc09c7de7c1fb2b),
    ("layer4_0_conv2", 0x905443c50d1be023, 0x906e67775d8366c1),
    ("layer4_1_conv1", 0x3ab57f90adf80e57, 0x50b154dd15464ecb),
    ("layer4_1_conv2", 0x5a44f5b973534fd7, 0xcde62fc4a6fd9d8d),
    ("fc", 0x1e72d2779c820c9d, 0x1e72d2779c820c9d),
];
