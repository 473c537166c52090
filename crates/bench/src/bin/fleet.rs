//! Fleet sweep: shards × replicas × autoscaler policy on the deterministic
//! virtual-clock fleet simulator, under diurnal and flash-crowd traffic.
//!
//! Prints the headline fleet table (achieved samples/s, p99 latency, SLO
//! attainment, peak replicas/tiles, energy per sample) with the pareto
//! frontier over SLO attainment vs joules/sample marked, appends one dated
//! `fleet` record to `BENCH_serve.json` (not under `BENCH_SMOKE`, whose
//! shrunken traces would only dirty the tracked trajectory), and with
//! `--json <path>` dumps the
//! raw `FleetResultSet` as JSON lines (schema: `BENCH_schema.md`, `fleet
//! record` section). A fixed trace seed makes the output byte-identical
//! across runs and thread counts.

use camdnn_bench::{append_bench_record, bench_smoke, utc_date_string, BenchCli, FleetBenchRecord};
use serve::{AutoscalePolicy, BatchingPolicy, FleetConfig, FleetGrid, FleetSession, TraceSpec};
use tnn::model::micro_cnn;

fn main() {
    let cli = BenchCli::from_env();
    // Smoke mode shrinks the traces so CI exercises the full emission path
    // in seconds; real runs replay 20k requests per trace point.
    let requests = if bench_smoke() { 512 } else { 20_000 };
    let seed = 42;
    let queue_depth = AutoscalePolicy::QueueDepth {
        check_interval_ns: 10_000,
        up_per_replica: 8,
        down_per_replica: 1,
        min_replicas: 1,
        max_replicas: 6,
        warmup_ns: 5_000,
    };
    let slo_headroom = AutoscalePolicy::SloHeadroom {
        check_interval_ns: 10_000,
        up_wait_permille: 400,
        down_wait_permille: 40,
        min_replicas: 1,
        max_replicas: 6,
        warmup_ns: 5_000,
    };
    let grid = FleetGrid::new()
        .workload(micro_cnn("micro_cnn", 8, 0.8, 42))
        .traffic([
            // Saturating steady load: the fixed-fleet pipelining baseline.
            TraceSpec::poisson(4_000_000.0, requests, seed),
            // Diurnal swing around a saturating mean.
            TraceSpec::diurnal(2_000_000.0, 0.8, 0.001, requests, seed),
            // Flash crowd: 20x spike over a sustainable base.
            TraceSpec::flash_crowd(500_000.0, 20.0, 0.000_5, 0.002, requests, seed),
        ])
        .shards([1, 2])
        .replicas([1, 2])
        .autoscalers([AutoscalePolicy::Fixed, queue_depth, slo_headroom])
        .config(
            FleetConfig::default()
                .with_batching(BatchingPolicy::new(8, 100))
                .with_slo_ms(0.05),
        );

    let session = FleetSession::new();
    let results = session.run(&grid).expect("fleet sweep");
    println!(
        "Fleet sweep: micro_cnn, {} requests per trace, SLO 50 us, {} scenarios",
        requests,
        results.records.len()
    );
    println!("(virtual clock; * marks the pareto frontier over SLO vs joules/sample)\n");
    print!("{}", results.to_table());

    // Headline: the pipelining speedup of the 2-shard cut over the single
    // stage at saturating fixed load, and the pareto frontier.
    let find = |needle: &str| {
        results
            .records
            .iter()
            .find(|r| r.scenario.contains(needle))
            .expect("scenario present")
    };
    let one = find(&format!("poisson@4000000x{requests} s1 r1 fixed"));
    let two = find(&format!("poisson@4000000x{requests} s2 r1 fixed"));
    let pipeline_speedup = two.report.samples_per_s / one.report.samples_per_s;
    println!(
        "\nsaturating load, one replica: 2-shard pipeline {:.0} samples/s vs {:.0} single \
         stage ({:.2}x)",
        two.report.samples_per_s, one.report.samples_per_s, pipeline_speedup,
    );
    let pareto = serve::pareto(&results.records);
    println!("\npareto frontier:");
    for record in &pareto {
        println!("  {}", record.report.summary());
    }

    if !bench_smoke() {
        let record = FleetBenchRecord {
            date: utc_date_string(),
            bench: "fleet".to_string(),
            workload: "micro_cnn".to_string(),
            scenarios: results.records.len(),
            pareto_scenarios: pareto.iter().map(|r| r.scenario.clone()).collect(),
            pareto_slo_attainment: pareto.iter().map(|r| r.report.slo_attainment).collect(),
            pareto_joules_per_sample: pareto.iter().map(|r| r.report.joules_per_sample).collect(),
            pipeline_speedup,
            peak_replicas: results
                .records
                .iter()
                .map(|r| r.report.peak_replicas)
                .max()
                .unwrap_or(0),
            peak_tiles: results
                .records
                .iter()
                .map(|r| r.report.peak_tiles)
                .max()
                .unwrap_or(0),
            smoke: false,
        };
        append_bench_record("BENCH_serve.json", &record);
    }

    cli.write_results(&results);
    cli.finish();
}
