//! Fleet demo: pipelined model-parallel replicas with autoscaling under
//! diurnal and flash-crowd traffic, swept into a pareto table over SLO
//! attainment vs joules/sample.
//!
//! Run with `cargo run --release --example fleet_demo`.

use serve::{AutoscalePolicy, BatchingPolicy, FleetConfig, FleetGrid, FleetSession, TraceSpec};
use tnn::model::micro_cnn;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== camdnn-serve fleet: pipelined shards + autoscaling ==\n");

    // Sweep shards x initial replicas x autoscaler policy over one diurnal
    // and one flash-crowd trace. Each replica's layers are cut into pipeline
    // stages by the partition compiler's stage planner over the profiled
    // per-layer cost model; the autoscalers add and drain replicas as
    // deterministic events on the virtual clock.
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
        .workload(micro_cnn("fleet-demo", 4, 0.8, 1))
        .traffic([
            TraceSpec::diurnal(2_000_000.0, 0.8, 0.000_2, 384, 7),
            TraceSpec::flash_crowd(1_000_000.0, 20.0, 0.000_1, 0.000_5, 384, 7),
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
    let results = session.run(&grid)?;
    println!(
        "fleet sweep ({} scenarios; * marks the pareto frontier):",
        results.records.len()
    );
    print!("{}", results.to_table());

    println!("\npareto frontier (SLO attainment vs joules/sample):");
    for record in serve::pareto(&results.records) {
        println!("  {}", record.report.summary());
    }

    // A scaled fleet actually scaled: show one trajectory.
    if let Some(record) = results
        .records
        .iter()
        .find(|r| !r.report.scale_events.is_empty())
    {
        let report = &record.report;
        println!(
            "\n`{}` scaled {} time(s), peak {} replicas ({} tiles):",
            record.scenario,
            report.scale_events.len(),
            report.peak_replicas,
            report.peak_tiles
        );
        for event in report.scale_events.iter().take(6) {
            println!(
                "  t={:>9} ns: {} -> {} replicas",
                event.time_ns, event.from_replicas, event.to_replicas
            );
        }
    }

    // Replaying the same grid is byte-identical — the property CI pins.
    let replay = FleetSession::new().run(&grid)?;
    assert_eq!(results.to_json(), replay.to_json());
    println!("\nreplay check: byte-identical FleetReport JSON for the same trace seeds.");
    Ok(())
}
