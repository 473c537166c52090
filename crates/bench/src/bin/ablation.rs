//! Ablation benches for three design choices (indexed in README "Baselines and the
//! accuracy substitute"): in-place vs out-of-place operation mix, activation
//! precision, and CAM geometry.
//!
//! The precision and geometry ablations are declarative sweeps through one
//! shared session, so the configurations that coincide (4-bit activations on
//! the 256-row geometry) reuse each other's compiled layers.
//!
//! Run with `cargo run -p camdnn-bench --bin ablation --release`.

use apc::layout::CamGeometry;
use apc::{CompilerOptions, LayerCompiler};
use camdnn::experiment::{Session, SweepGrid};
use camdnn::BackendKind;
use camdnn_bench::BenchCli;
use tnn::model::vgg9;

fn main() {
    let cli = BenchCli::from_env();
    let model = vgg9(0.9, 5);
    let session = Session::new();

    println!("== In-place vs out-of-place instruction mix (VGG-9 conv layers) ==");
    let compiler = LayerCompiler::new(CompilerOptions::default());
    for layer in model.conv_like_layers().iter().take(6) {
        let compiled = session.cache().compile(&compiler, layer).expect("compile");
        println!(
            "  {:<10} in-place {:7}  out-of-place {:7}  ({:4.1}% in place, 8 vs 10 cycles/bit)",
            layer.name,
            compiled.stats.in_place,
            compiled.stats.out_of_place,
            compiled.stats.in_place_fraction() * 100.0
        );
    }

    println!("\n== Activation precision (energy / latency / resident channels per cell) ==");
    let precision = session
        .run(
            &SweepGrid::new()
                .workload(model.clone())
                .act_bits([2, 4, 6, 8]),
        )
        .expect("precision sweep");
    for record in precision.for_backend(BackendKind::RtmAp) {
        println!(
            "  {} bits: {:8.2} uJ  {:7.3} ms  {:2} channels/cell",
            record.act_bits,
            record.energy_uj,
            record.latency_ms,
            64 / record.act_bits as usize
        );
    }

    println!("\n== CAM geometry (rows per array) ==");
    let geometry = session
        .run(
            &SweepGrid::new()
                .workload(model)
                .geometries([128usize, 256, 512].map(|rows| CamGeometry {
                    rows,
                    cols: 256,
                    domains: 64,
                })),
        )
        .expect("geometry sweep");
    for record in geometry.for_backend(BackendKind::RtmAp) {
        println!(
            "  {:4} rows: {:8.2} uJ  {:7.3} ms  {:3} arrays",
            record.geometry.rows, record.energy_uj, record.latency_ms, record.arrays
        );
    }

    let stats = session.cache_stats();
    println!(
        "\ncompile cache: {} layer compilations served {} requests ({:.0}% hit rate)",
        stats.misses,
        stats.requests(),
        stats.hit_rate() * 100.0
    );
    cli.finish();
}
