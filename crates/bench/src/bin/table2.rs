//! Regenerates Table II: accuracy-preserving energy, latency, array counts and
//! add/sub counts for ResNet-18/ImageNet and VGG-9/VGG-11/CIFAR-10 at 4- and 8-bit
//! activations, next to the crossbar baseline.
//!
//! The whole table is one declarative sweep — 5 workloads × {4, 8}-bit
//! activations — executed as a single parallel job pool with shared layer
//! compilation.
//!
//! Run with `cargo run -p camdnn-bench --bin table2 --release`; add
//! `--json <path>` to dump the raw records as JSON lines (see `BENCH_schema.md`).

use camdnn::experiment::{Session, SweepGrid};
use camdnn_bench::{scenario_views, table2_header, table2_row, BenchCli};
use tnn::model::{resnet18, vgg11, vgg9};
use tnn::train::accuracy_experiment;

fn main() {
    let cli = BenchCli::from_env();
    println!("Table II — RTM-AP (unroll+CSE) vs DNN+NeuroSim-style crossbar\n");
    println!("{}", table2_header());

    let grid = SweepGrid::new()
        .workloads([
            ("ResNet18/ImageNet .80", resnet18(0.8, 7)),
            ("VGG-9/CIFAR10   .85", vgg9(0.85, 3)),
            ("VGG-9/CIFAR10   .90", vgg9(0.90, 3)),
            ("VGG-11/CIFAR10  .85", vgg11(0.85, 3)),
            ("VGG-11/CIFAR10  .90", vgg11(0.90, 3)),
        ])
        .act_bits([4, 8]);
    let session = Session::new();
    let results = session.run(&grid).expect("the Table II grid compiles");
    for (record, report) in scenario_views(&results) {
        println!("{}", table2_row(&record.workload, &report));
    }
    cli.write_results(&results);

    println!(
        "\nAccuracy columns (synthetic-task substitute, see README \"Baselines and the accuracy substitute\"):"
    );
    let columns = accuracy_experiment(21).expect("accuracy experiment");
    println!(
        "  full precision: {:.1}%   ternary + 8-bit: {:.1}%   ternary + 4-bit: {:.1}%   graph 4-bit: {:.1}%",
        columns.fp * 100.0,
        columns.q8 * 100.0,
        columns.q4 * 100.0,
        columns.graph4 * 100.0
    );
    println!("  (the AP itself is bit-exact against the quantized software model — see the bit_exactness tests)");
    cli.finish();
}
