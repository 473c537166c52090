//! Integration suite for the fleet-scale serving layer.
//!
//! Mirrors `tests/serving.rs` one level up the stack:
//!
//! * **Deterministic replay** — a fixed trace seed reproduces a
//!   byte-identical `FleetReport` JSON document on every run, with a cold or
//!   warm compile cache, at any `RAYON_NUM_THREADS` (CI re-runs this suite
//!   with a single rayon worker).
//! * **Conservation** — every offered request is either rejected by
//!   admission control or completes the full pipeline; nothing is lost to
//!   scaling, draining or head-of-line blocking.
//! * **Serialization** — `FleetReport` and `FleetResultSet` survive JSON
//!   round-trips losslessly, and the pareto view is non-dominated and
//!   deterministic.

use serve::{
    simulate_fleet, AutoscalePolicy, BatchingPolicy, FleetConfig, FleetGrid, FleetResultSet,
    FleetSession, FleetStageModel, LatencySummary, TraceSpec,
};
use tnn::model::{micro_cnn, ModelGraph};

fn micro_model() -> ModelGraph {
    micro_cnn("fleet-micro", 4, 0.8, 7)
}

fn saturating_grid() -> FleetGrid {
    FleetGrid::new()
        .workload(micro_model())
        .traffic([TraceSpec::poisson(20_000.0, 48, 11)])
        .shards([1, 2])
        .replicas([1, 2])
        .batching(BatchingPolicy::new(4, 250))
}

#[test]
fn fleet_replay_is_byte_identical_and_cache_oblivious() {
    let grid = saturating_grid();
    let warm = FleetSession::new();
    let first = warm.run(&grid).expect("first run");
    // Same session (warm profile + compile caches), fresh session (cold):
    // same bytes.
    let second = warm.run(&grid).expect("second run");
    let cold = FleetSession::new().run(&grid).expect("cold run");
    assert_eq!(first.to_json(), second.to_json());
    assert_eq!(first.to_json(), cold.to_json());
    // Expansion order and labels are stable.
    let labels: Vec<&str> = first.records.iter().map(|r| r.scenario.as_str()).collect();
    assert_eq!(labels.len(), 4);
    assert!(labels[0].contains("s1 r1 fixed"), "{labels:?}");
    assert!(labels[3].contains("s2 r2 fixed"), "{labels:?}");
}

#[test]
fn every_offered_request_is_accounted_for() {
    let session = FleetSession::new();
    let results = session.run(&saturating_grid()).expect("run");
    for record in &results.records {
        let report = &record.report;
        assert_eq!(report.offered, 48, "{}", record.scenario);
        assert_eq!(
            report.completed + report.rejected,
            report.offered,
            "{} lost requests",
            record.scenario
        );
        assert_eq!(report.admitted, report.completed, "{}", record.scenario);
        assert_eq!(
            report.latency.count, report.completed,
            "{}",
            record.scenario
        );
        // The stage cut matches the configured shard count and the tile
        // accounting is consistent.
        assert_eq!(
            report.stage_latency_ns.len(),
            report.config.shards,
            "{}",
            record.scenario
        );
        assert_eq!(
            report.tiles_per_replica,
            report.stage_tiles.iter().sum::<u64>(),
            "{}",
            record.scenario
        );
        assert!(report.total_uj > 0.0, "{}", record.scenario);
    }
}

#[test]
fn sharding_preserves_the_total_pipeline_latency() {
    // The 2-shard cut splits the same layer costs: the stage latencies must
    // sum to the 1-shard stage latency (same profile, different cut).
    let session = FleetSession::new();
    let results = session.run(&saturating_grid()).expect("run");
    let one = &results.records[0].report; // s1 r1
    let two = &results.records[2].report; // s2 r1
    assert_eq!(one.stage_latency_ns.len(), 1);
    assert_eq!(two.stage_latency_ns.len(), 2);
    let delta = two.stage_latency_ns.iter().sum::<u64>() as i128 - one.stage_latency_ns[0] as i128;
    // Per-stage rounding may shift the sum by at most one ns per stage.
    assert!(delta.abs() <= 2, "stage cut changed total latency: {delta}");
}

#[test]
fn fleet_report_json_round_trips() {
    let session = FleetSession::new();
    let results = session.run(&saturating_grid()).expect("run");
    let report = &results.records[0].report;
    let parsed = serve::FleetReport::from_json(&report.to_json()).expect("parse");
    assert_eq!(*report, parsed);
    assert_eq!(report.to_json(), parsed.to_json());

    let set_json = results.to_json();
    let parsed_set = FleetResultSet::from_json(&set_json).expect("parse set");
    assert_eq!(results, parsed_set);
    assert_eq!(set_json, parsed_set.to_json());

    let path = std::env::temp_dir().join("camdnn_fleet_results_test.json");
    results.write_json(&path).expect("write");
    let read_back =
        FleetResultSet::from_json(&std::fs::read_to_string(&path).expect("read")).expect("parse");
    assert_eq!(results, read_back);
    std::fs::remove_file(&path).ok();
}

#[test]
fn pareto_frontier_is_non_dominated_and_deterministic() {
    let session = FleetSession::new();
    let results = session.run(&saturating_grid()).expect("run");
    let pareto = serve::pareto(&session.run(&saturating_grid()).expect("rerun").records)
        .iter()
        .map(|r| r.scenario.clone())
        .collect::<Vec<_>>();
    let frontier = serve::pareto(&results.records);
    assert!(!frontier.is_empty());
    assert_eq!(
        frontier
            .iter()
            .map(|r| r.scenario.clone())
            .collect::<Vec<_>>(),
        pareto,
        "pareto view must be deterministic"
    );
    // No frontier record is dominated by any record.
    for survivor in &frontier {
        for other in &results.records {
            let a = &other.report;
            let b = &survivor.report;
            let dominates = a.slo_attainment >= b.slo_attainment
                && a.joules_per_sample <= b.joules_per_sample
                && (a.slo_attainment > b.slo_attainment
                    || a.joules_per_sample < b.joules_per_sample);
            assert!(
                !dominates,
                "{} dominated by {}",
                survivor.scenario, other.scenario
            );
        }
    }
    // The table marks exactly the frontier rows.
    let table = results.to_table();
    assert_eq!(
        table.matches('*').count(),
        frontier.len(),
        "table must flag each pareto row once:\n{table}"
    );
}

#[test]
fn empty_traces_produce_empty_reports() {
    // A zero-request trace is not constructible through TraceSpec::validate,
    // so drive simulate_fleet directly with a hand-built empty trace.
    let model = FleetStageModel {
        model: "toy".to_string(),
        stages: vec![serve::StageCost {
            latency_ns: 1_000,
            energy_uj_per_sample: 1.0,
            tiles: 1,
        }],
    };
    let config = FleetConfig::default().with_shards(1);
    let spec = TraceSpec::poisson(1_000.0, 1, 0);
    let trace = serve::Trace {
        arrivals_ns: Vec::new(),
    };
    let report = simulate_fleet(&model, &config, &spec, &trace).expect("simulate");
    assert_eq!(report.completed, 0);
    assert_eq!(report.latency, LatencySummary::default());
    assert_eq!(report.queue_wait, LatencySummary::default());
    assert_eq!(report.samples_per_s, 0.0);
    assert_eq!(report.joules_per_sample, 0.0);
    assert_eq!(report.makespan_ns, 0);
    assert!(report.scale_events.is_empty());
}

#[test]
fn autoscaled_fleets_scale_and_stay_deterministic() {
    // The micro model's two-stage pipeline moves one batch per ~0.7 us, so
    // the spike must push arrivals well past that to build a backlog: 0.5M
    // req/s base, 20x spike starting at 50 us.
    let autoscaler = AutoscalePolicy::QueueDepth {
        check_interval_ns: 5_000,
        up_per_replica: 4,
        down_per_replica: 1,
        min_replicas: 1,
        max_replicas: 4,
        warmup_ns: 2_000,
    };
    let grid = FleetGrid::new()
        .workload(micro_model())
        .traffic([TraceSpec::flash_crowd(
            500_000.0, 20.0, 0.000_05, 0.000_5, 256, 3,
        )])
        .shards([2])
        .replicas([1])
        .autoscalers([AutoscalePolicy::Fixed, autoscaler])
        .batching(BatchingPolicy::new(4, 100));
    let session = FleetSession::new();
    let results = session.run(&grid).expect("run");
    let fixed = &results.records[0].report;
    let scaled = &results.records[1].report;
    assert!(fixed.scale_events.is_empty());
    assert_eq!(fixed.peak_replicas, 1);
    assert!(
        scaled.peak_replicas > 1,
        "flash crowd must trigger scale-up: {scaled:?}"
    );
    assert!(!scaled.scale_events.is_empty());
    // Scale events are recorded in virtual-time order with unit steps.
    for pair in scaled.scale_events.windows(2) {
        assert!(pair[0].time_ns <= pair[1].time_ns);
    }
    for event in &scaled.scale_events {
        assert_eq!(
            event.to_replicas.abs_diff(event.from_replicas),
            1,
            "{event:?}"
        );
    }
    // Conservation holds under scaling too, and the replay is byte-stable.
    assert_eq!(scaled.completed + scaled.rejected, scaled.offered);
    let replay = session.run(&grid).expect("replay");
    assert_eq!(results.to_json(), replay.to_json());
}

#[test]
fn diurnal_traffic_flows_through_the_fleet_sweep() {
    let grid = FleetGrid::new()
        .workload(micro_model())
        .traffic([TraceSpec::diurnal(5_000.0, 0.8, 0.01, 64, 9)])
        .shards([2])
        .replicas([2]);
    let results = FleetSession::new().run(&grid).expect("run");
    let report = &results.records[0].report;
    assert_eq!(report.completed + report.rejected, 64);
    assert!(report.samples_per_s > 0.0);
    assert!(results.records[0].scenario.contains("diurnal@5000"));
}

#[test]
fn duplicate_labels_are_rejected_before_any_simulation() {
    let grid = FleetGrid::new()
        .workloads([micro_model(), micro_model()])
        .shards([2]);
    let err = FleetSession::new().run(&grid).expect_err("must collide");
    assert!(
        matches!(err, serve::ServeError::InvalidConfig { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("duplicate fleet scenario label"));
}
