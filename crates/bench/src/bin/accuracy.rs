//! Regenerates the accuracy columns of Table II on the offline-trainable substitute
//! task (see README "Baselines and the accuracy substitute"), and demonstrates the bit-exactness of the AP against the
//! quantized software model.
//!
//! Run with `cargo run -p camdnn-bench --bin accuracy --release`.

use camdnn::experiment::{BackendPlan, Session, SweepGrid};
use camdnn::verify::verify_random_layer;
use camdnn_bench::BenchCli;
use tnn::model::micro_cnn;
use tnn::train::accuracy_experiment;

fn main() {
    let cli = BenchCli::from_env();
    println!("Accuracy experiment (synthetic blob task, ternary MLP)\n");
    println!(
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "seed", "FP", "8-bit", "4-bit", "graph4"
    );
    let mut sums = [0.0f64; 4];
    let runs = 5;
    for seed in 0..runs {
        // The graph column scores the exported model batch-wise: the test set
        // is staged as one `tnn::dataset::Batch` and executed through
        // `tnn::infer::run_batch` instead of a per-sample loop.
        let columns = accuracy_experiment(100 + seed).expect("accuracy experiment");
        println!(
            "{:<8} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            seed,
            columns.fp * 100.0,
            columns.q8 * 100.0,
            columns.q4 * 100.0,
            columns.graph4 * 100.0
        );
        sums[0] += columns.fp;
        sums[1] += columns.q8;
        sums[2] += columns.q4;
        sums[3] += columns.graph4;
    }
    println!(
        "{:<8} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
        "mean",
        sums[0] / runs as f64 * 100.0,
        sums[1] / runs as f64 * 100.0,
        sums[2] / runs as f64 * 100.0,
        sums[3] / runs as f64 * 100.0
    );

    println!("\nBit-exactness of the associative processor vs the quantized reference:");
    for (label, cin, cout, kernel, act_bits) in [
        ("3x3 conv, 4-bit", 3usize, 8usize, 3usize, 4u8),
        ("3x3 conv, 8-bit", 2, 6, 3, 8),
        ("1x1 conv, 4-bit", 8, 8, 1, 4),
    ] {
        let report = verify_random_layer(cin, cout, kernel, 6, act_bits, 0.8, 7).expect("verify");
        println!(
            "  {label:<18} {} positions x {} outputs -> {}",
            report.positions_checked,
            report.outputs_checked,
            if report.is_bit_exact() {
                "bit-exact"
            } else {
                "MISMATCH"
            }
        );
    }

    // End-to-end: the `functional` backend executes whole networks on the
    // word-parallel AP engine and pins every sample's logits to `tnn::infer`.
    // The batch axis packs B samples into shared bit-plane arrays, so the
    // sweep traces the throughput curve next to the accuracy evidence.
    println!("\nEnd-to-end functional execution (word-parallel AP engine, batched):");
    let grid = SweepGrid::new()
        .workloads([
            micro_cnn("micro s=.80", 8, 0.80, 1),
            micro_cnn("micro s=.90", 8, 0.90, 2),
        ])
        .act_bits([4, 8])
        .batch_sizes([1, 16])
        .backends([BackendPlan::functional()]);
    let session = Session::new();
    let results = session.run(&grid).expect("functional sweep");
    for scenario in results.scenarios() {
        let record = results
            .get(scenario, "functional")
            .expect("functional record");
        let (checked, mismatched, exact) = match (
            record.report.as_functional(),
            record.report.as_functional_batch(),
        ) {
            (Some(report), _) => (
                report.checked_values,
                report.mismatched_values,
                report.is_bit_exact(),
            ),
            (_, Some(batch)) => (
                batch.samples.iter().map(|s| s.checked_values).sum(),
                batch.samples.iter().map(|s| s.mismatched_values).sum(),
                batch.is_bit_exact(),
            ),
            _ => unreachable!("functional records are functional reports"),
        };
        println!(
            "  {scenario:<28} b{:<3} {checked:>6} values checked, {mismatched} mismatches -> {}; {:>10.0} samples/s, {:.2e} J/sample",
            record.batch_size,
            if exact { "bit-exact" } else { "MISMATCH" },
            record.samples_per_s,
            record.joules_per_sample,
        );
    }
    cli.finish();
}
