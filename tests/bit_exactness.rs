//! Integration test: the compiled associative-processor programs reproduce the
//! reference integer convolution bit-exactly — the mechanism behind the paper's
//! "retains software accuracy" claim — and the word-parallel engine's event
//! counters survive the bit-plane rewrite (stats parity with the scalar array,
//! including the `reset_stats`/`take_stats` semantics).

use ap::{ApController, Operand};
use apc::{CompilerOptions, LayerCompiler};
use cam::{AssociativeArray, BitPlaneArray, CamArray, CamTechnology};
use camdnn::verify::verify_random_layer;
use tnn::model::ConvLayerInfo;
use tnn::TernaryTensor;

#[test]
fn three_by_three_convolutions_are_bit_exact_across_sparsities() {
    for (seed, sparsity) in [(1u64, 0.5), (2, 0.8), (3, 0.9)] {
        let report = verify_random_layer(3, 8, 3, 6, 4, sparsity, seed).expect("verify");
        assert!(report.is_bit_exact(), "sparsity {sparsity}: {report:?}");
    }
}

#[test]
fn stem_like_convolution_with_large_kernel_is_bit_exact() {
    let report = verify_random_layer(3, 6, 5, 6, 4, 0.8, 13).expect("verify");
    assert!(report.is_bit_exact(), "{report:?}");
}

#[test]
fn pointwise_downsample_convolution_is_bit_exact() {
    let report = verify_random_layer(8, 8, 1, 5, 4, 0.8, 17).expect("verify");
    assert!(report.is_bit_exact(), "{report:?}");
}

#[test]
fn eight_bit_activations_are_bit_exact() {
    let report = verify_random_layer(2, 6, 3, 5, 8, 0.7, 23).expect("verify");
    assert!(report.is_bit_exact(), "{report:?}");
}

#[test]
fn dense_ternary_layer_is_bit_exact() {
    // Worst case for the arithmetic: almost no zeros, long accumulation chains.
    let report = verify_random_layer(4, 6, 3, 5, 4, 0.1, 29).expect("verify");
    assert!(report.is_bit_exact(), "{report:?}");
}

/// Runs the compiled slice programs of a small layer on a controller over
/// the array `new` builds, staged with inputs that depend only on `seed`.
fn run_layer<A: AssociativeArray>(
    new: fn(usize, usize, usize, CamTechnology) -> cam::Result<A>,
    seed: u64,
) -> ApController<A> {
    let layer = ConvLayerInfo {
        node_id: 0,
        name: "stats-parity".to_string(),
        cin: 2,
        cout: 4,
        kernel: (3, 3),
        stride: 1,
        padding: 1,
        input_hw: (4, 4),
        output_hw: (4, 4),
        weights: TernaryTensor::random(vec![4, 2, 3, 3], 0.5, seed),
    };
    let options = CompilerOptions::default().with_programs();
    let compiled = LayerCompiler::new(options)
        .compile(&layer)
        .expect("compile");
    let layout = &compiled.layout;
    let slices = compiled.slices.as_ref().expect("retained programs");
    let g = layout.geometry;
    let mut ap =
        ApController::new(new(g.rows, g.cols, g.domains, CamTechnology::default()).expect("array"));
    let prologue = apc::codegen::tile_prologue(layout, layout.tile_range(0, layer.cout).len());
    ap.run(&prologue).expect("prologue");
    for slice in slices.iter().filter(|s| s.tile == 0) {
        for k in 0..layout.patch_size {
            let values: Vec<i64> = (0..g.rows)
                .map(|row| ((row as i64 * 5 + k as i64 * 3 + seed as i64) % 16).abs())
                .collect();
            let operand = Operand::new(
                k,
                layout.channel_domain_base(slice.channel_in_group),
                layout.act_bits,
                false,
            );
            ap.load_column(&operand, &values).expect("load");
        }
        ap.run(&slice.program).expect("run");
    }
    ap
}

#[test]
fn engine_stats_are_identical_to_the_scalar_array_after_layer_runs() {
    let controller = run_layer(CamArray::new, 31);
    let engine = run_layer(BitPlaneArray::new, 31);
    let scalar = controller.stats();
    let packed = engine.stats();
    assert!(!scalar.is_empty(), "the run must have recorded events");
    assert_eq!(
        packed, scalar,
        "counters must survive the bit-plane rewrite"
    );
    assert_eq!(packed.compute_cycles(), scalar.compute_cycles());
    let tech = CamTechnology::default();
    assert_eq!(
        packed.energy_fj(&tech).to_bits(),
        scalar.energy_fj(&tech).to_bits()
    );
    assert_eq!(
        packed.latency_ns(&tech).to_bits(),
        scalar.latency_ns(&tech).to_bits()
    );
}

#[test]
fn take_stats_and_reset_stats_agree_between_the_two_arrays() {
    // `take_stats` must return the accumulated counters and leave both
    // implementations empty; a subsequent `reset_stats` must be a no-op on the
    // already-cleared state. This pins the semantics the bit-plane rewrite has
    // to preserve (the scalar array also clears its per-column cluster
    // counters on reset).
    let mut controller = run_layer(CamArray::new, 37);
    let mut engine = run_layer(BitPlaneArray::new, 37);
    let scalar_taken = controller.array_mut().take_stats();
    let packed_taken = engine.array_mut().take_stats();
    assert_eq!(packed_taken, scalar_taken);
    assert!(!packed_taken.is_empty());
    assert!(controller.stats().is_empty(), "take_stats must reset");
    assert!(engine.stats().is_empty(), "take_stats must reset");
    // New activity accumulates from zero identically on both sides.
    let probe = Operand::new(0, 0, 4, false);
    let scalar_read = controller.read_column(&probe).expect("scalar read");
    let packed_read = engine.read_column(&probe).expect("packed read");
    assert_eq!(packed_read, scalar_read);
    assert_eq!(engine.stats(), controller.stats());
    controller.reset_stats();
    engine.reset_stats();
    assert!(controller.stats().is_empty());
    assert!(engine.stats().is_empty());
}
