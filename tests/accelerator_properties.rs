//! Integration test: monotonicity and consistency properties of the accelerator
//! model that must hold regardless of calibration constants.

use accel::{AcceleratorModel, ArchConfig, NetworkReport, NetworkSimulator};
use apc::{CompiledLayer, CompilerOptions, LayerCompiler};
use std::sync::Arc;
use tnn::model::{resnet18, vgg9, ModelGraph};

#[test]
fn layer_energy_components_are_nonnegative_and_sum_to_total() {
    let model = vgg9(0.85, 13);
    let compiler = LayerCompiler::new(CompilerOptions::default());
    let accelerator = AcceleratorModel::new(ArchConfig::default());
    for layer in model.conv_like_layers().iter().take(6) {
        let compiled = compiler.compile(layer).expect("compile");
        let report = accelerator.simulate_layer(&compiled);
        let energy = report.energy;
        for component in [
            energy.dfg_fj,
            energy.accumulation_fj,
            energy.peripherals_fj,
            energy.data_movement_fj,
        ] {
            assert!(component >= 0.0, "negative component in {}", layer.name);
        }
        let sum = energy.dfg_fj
            + energy.accumulation_fj
            + energy.peripherals_fj
            + energy.data_movement_fj;
        assert!((sum - energy.total_fj()).abs() <= sum.max(1.0) * 1e-9);
        assert!(report.latency.total_ns() > 0.0);
        assert!(report.row_utilization > 0.0 && report.row_utilization <= 1.0);
    }
}

#[test]
fn doubling_the_interconnect_cost_only_raises_data_movement_energy() {
    let model = vgg9(0.9, 13);
    let compiler = LayerCompiler::new(CompilerOptions::default());
    let layer = &model.conv_like_layers()[2];
    let compiled = compiler.compile(layer).expect("compile");

    let cheap = AcceleratorModel::new(ArchConfig::default());
    let expensive = AcceleratorModel::new(ArchConfig {
        interconnect_pj_per_bit: 2.0,
        intra_tile_pj_per_bit: 0.2,
        ..ArchConfig::default()
    });
    let cheap_report = cheap.simulate_layer(&compiled);
    let expensive_report = expensive.simulate_layer(&compiled);
    assert!(expensive_report.energy.data_movement_fj > cheap_report.energy.data_movement_fj);
    assert!((expensive_report.energy.dfg_fj - cheap_report.energy.dfg_fj).abs() < 1e-6);
}

#[test]
fn network_totals_equal_the_sum_of_layer_reports() {
    let simulator = NetworkSimulator::new(ArchConfig::default(), CompilerOptions::default());
    let report = simulator.simulate(&vgg9(0.9, 13)).expect("simulate");
    let layer_sum: f64 = report.layers.iter().map(|l| l.energy.total_fj()).sum();
    assert!((layer_sum * 1e-9 - report.energy_uj()).abs() < report.energy_uj() * 1e-9 + 1e-12);
    let latency_sum: f64 = report.layers.iter().map(|l| l.latency.total_ns()).sum();
    assert!((latency_sum * 1e-6 - report.latency_ms()).abs() < report.latency_ms() * 1e-9 + 1e-12);
}

#[test]
fn unroll_configuration_never_beats_cse_on_cycles() {
    let compiler_cse = LayerCompiler::new(CompilerOptions::default());
    let compiler_unroll = LayerCompiler::new(CompilerOptions::unroll_only());
    let model = vgg9(0.85, 13);
    for layer in model.conv_like_layers().iter().take(4) {
        let cse = compiler_cse.compile(layer).expect("compile");
        let unroll = compiler_unroll.compile(layer).expect("compile");
        assert!(
            cse.stats.total_cycles <= unroll.stats.total_cycles,
            "layer {}: CSE {} cycles vs unroll {}",
            layer.name,
            cse.stats.total_cycles,
            unroll.stats.total_cycles
        );
    }
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// The f64 bit patterns of every layer's energy and latency components, in
/// network order, then of the endurance estimate.
fn report_bits(report: &NetworkReport) -> Vec<u64> {
    let mut values = Vec::new();
    for layer in &report.layers {
        let (energy, latency) = (&layer.energy, &layer.latency);
        values.extend([
            energy.dfg_fj,
            energy.accumulation_fj,
            energy.peripherals_fj,
            energy.data_movement_fj,
            latency.dfg_ns,
            latency.accumulation_ns,
            latency.data_movement_ns,
        ]);
    }
    let endurance = &report.endurance;
    values.extend([
        endurance.write_interval_ns,
        endurance.writes_per_second,
        endurance.endurance_cycles,
        endurance.lifetime_years,
    ]);
    values.into_iter().map(f64::to_bits).collect()
}

/// Per (act_bits, cse) of the paper's configurations: the digest of
/// `report_bits` of `model`'s analytic report. Any change to the analytic
/// model's arithmetic, even the order of one f64 addition, moves one of them.
fn report_digests(model: &ModelGraph) -> Vec<(u8, bool, u64)> {
    let mut digests = Vec::new();
    for act_bits in [4, 8] {
        let options = CompilerOptions::default().with_act_bits(act_bits);
        let both: Vec<[Arc<CompiledLayer>; 2]> = model
            .conv_like_layers()
            .iter()
            .map(|layer| {
                LayerCompiler::new(options)
                    .compile_both(layer)
                    .map(|compiled| Arc::new(compiled.expect("compile")))
            })
            .collect();
        for (variant, enable_cse) in [(0, false), (1, true)] {
            let options = CompilerOptions {
                enable_cse,
                ..options
            };
            let compiled: Vec<Arc<CompiledLayer>> =
                both.iter().map(|pair| pair[variant].clone()).collect();
            let report = NetworkSimulator::new(ArchConfig::default(), options)
                .simulate_precompiled(model, &compiled);
            digests.push((act_bits, enable_cse, fnv1a(report_bits(&report))));
        }
    }
    digests
}

#[test]
fn vgg9_network_reports_are_pinned_bit_for_bit() {
    // The Table II VGG-9 .85 workload.
    assert_eq!(report_digests(&vgg9(0.85, 3)), VGG9_REPORT_DIGESTS);
}

#[test]
#[ignore = "compiles ResNet-18 twice over; run in release"]
fn resnet18_table2_rows_are_pinned_bit_for_bit() {
    // The Table II ResNet-18 .80 workload.
    assert_eq!(report_digests(&resnet18(0.8, 7)), RESNET18_REPORT_DIGESTS);
}

const RESNET18_REPORT_DIGESTS: [(u8, bool, u64); 4] = [
    (4, false, 0x6945193f116a33a3),
    (4, true, 0xde5b18405276595b),
    (8, false, 0xac46ccef04ce803b),
    (8, true, 0xb4766e798915707c),
];

const VGG9_REPORT_DIGESTS: [(u8, bool, u64); 4] = [
    (4, false, 0xffd5697fa70b63be),
    (4, true, 0x02f06ea9fabd90ef),
    (8, false, 0x363ba07131499d66),
    (8, true, 0xa06aed442185a988),
];
