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

use accel::ArchConfig;
use serve::{
    simulate_fleet, AutoscalePolicy, BatchingPolicy, FleetConfig, FleetGrid, FleetResultSet,
    FleetSession, FleetStageModel, LatencySummary, StageCost, TraceSpec,
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
fn warm_profiles_follow_the_model_and_the_architecture() {
    // A session that profiled one point must not reuse that profile for a
    // scenario under the same label whose arch or model weights differ.
    let grid = FleetGrid::new().workload(micro_model()).shards([1]);
    let warm = FleetSession::new();
    let first = warm.run(&grid).expect("warm-up run");
    let mut arch = ArchConfig::default();
    arch.cam_tech.search_energy_per_bit_fj *= 2.0;
    let other_model = micro_cnn(micro_model().name(), 8, 0.8, 3);
    for (change, changed) in [
        ("arch", grid.clone().arch(arch)),
        ("model", grid.clone().workloads([other_model])),
    ] {
        let warm_run = warm.run(&changed).expect("warm run");
        let cold_run = FleetSession::new().run(&changed).expect("cold run");
        assert_eq!(warm_run.records[0].scenario, first.records[0].scenario);
        assert_eq!(warm_run.to_json(), cold_run.to_json(), "{change} change");
    }
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

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares `(label, digest)` pairs against checked-in literals, printing the
/// whole table on a mismatch so an intended change can be re-pinned.
fn assert_digests(got: &[(String, u64)], expected: &[(&str, u64)]) {
    let matches = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|((label, digest), (want_label, want))| label == want_label && digest == want);
    if !matches {
        let table: String = got
            .iter()
            .map(|(label, digest)| format!("    (\"{label}\", {digest:#018x}),\n"))
            .collect();
        panic!("digests moved; the current table is:\n{table}");
    }
}

/// Byte-identity pin of the `fleet` bin's sweep at its smoke size (512
/// requests per trace): one digest of each record's JSON line.
#[test]
fn fleet_bin_grid_is_pinned() {
    let requests = 512;
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
            TraceSpec::poisson(4_000_000.0, requests, seed),
            TraceSpec::diurnal(2_000_000.0, 0.8, 0.001, requests, seed),
            TraceSpec::flash_crowd(500_000.0, 20.0, 0.000_5, 0.002, requests, seed),
        ])
        .shards([1, 2])
        .replicas([1, 2])
        .autoscalers([AutoscalePolicy::Fixed, queue_depth, slo_headroom])
        .batching(BatchingPolicy::new(8, 100))
        .slo_ms(0.05);
    let results = FleetSession::new().run(&grid).expect("fleet sweep");
    let got: Vec<(String, u64)> = results
        .records
        .iter()
        .zip(results.to_json().lines())
        .map(|(record, line)| (record.scenario.clone(), fnv1a(line.as_bytes())))
        .collect();
    assert_digests(&got, golden::BIN_GRID);
}

/// Byte-identity pin of hand-built pipelines that backpressure (a slow
/// second stage behind a one-batch buffer) and drain (an autoscaler that
/// shrinks a three-replica fleet), over bursty and flash-crowd traffic.
#[test]
fn backpressure_and_drain_reports_are_pinned() {
    let model = FleetStageModel {
        model: "toy".to_string(),
        stages: vec![
            StageCost {
                latency_ns: 2_000,
                energy_uj_per_sample: 0.25,
                tiles: 2,
            },
            StageCost {
                latency_ns: 9_000,
                energy_uj_per_sample: 1.5,
                tiles: 3,
            },
        ],
    };
    let backpressure = FleetConfig {
        stage_queue_capacity: 1,
        queue_capacity: 6,
        ..FleetConfig::default()
            .with_replicas(2)
            .with_batching(BatchingPolicy::new(4, 5))
            .with_slo_ms(0.2)
    };
    let drain = FleetConfig {
        replicas: 3,
        routing: serve::RoutePolicy::LeastLoaded,
        autoscaler: AutoscalePolicy::QueueDepth {
            check_interval_ns: 20_000,
            up_per_replica: 12,
            down_per_replica: 2,
            min_replicas: 1,
            max_replicas: 5,
            warmup_ns: 10_000,
        },
        ..FleetConfig::default().with_batching(BatchingPolicy::new(4, 5))
    };
    let headroom = FleetConfig {
        routing: serve::RoutePolicy::JoinShortestQueue,
        slo_ns: 40_000,
        autoscaler: AutoscalePolicy::SloHeadroom {
            check_interval_ns: 20_000,
            up_wait_permille: 300,
            down_wait_permille: 30,
            min_replicas: 1,
            max_replicas: 5,
            warmup_ns: 10_000,
        },
        ..backpressure.with_replicas(1)
    };
    let traces = [
        TraceSpec {
            process: serve::ArrivalProcess::Bursty {
                idle_rate_per_s: 50_000.0,
                burst_rate_per_s: 4_000_000.0,
                mean_phase_requests: 40.0,
            },
            requests: 400,
            seed: 8,
        },
        TraceSpec::flash_crowd(100_000.0, 15.0, 0.000_5, 0.001, 400, 9),
    ];
    let mut got = Vec::new();
    for spec in traces {
        let trace = spec.generate().expect("trace");
        for (name, config) in [
            ("backpressure", backpressure),
            ("drain", drain),
            ("headroom", headroom),
        ] {
            let report = simulate_fleet(&model, &config, &spec, &trace).expect("simulate");
            // Each shape exercises what it is named for.
            match name {
                "backpressure" => assert!(report.rejected > 0, "{report:?}"),
                "drain" => assert!(report.final_replicas < 3, "{report:?}"),
                _ => assert!(!report.scale_events.is_empty(), "{report:?}"),
            }
            let label = format!("{} {name}", spec.process.label());
            got.push((label, fnv1a(report.to_json().as_bytes())));
        }
    }
    assert_digests(&got, golden::HAND_BUILT);
}

/// Checked-in digests of the fleet goldens above, captured before the serve
/// and fleet simulations shared one event loop.
mod golden {
    pub const BIN_GRID: &[(&str, u64)] = &[
        (
            "micro_cnn poisson@4000000x512 s1 r1 fixed",
            0x99ce1fab4fdf86d3,
        ),
        (
            "micro_cnn poisson@4000000x512 s1 r1 qd8-1",
            0x3db748ddb7a46be1,
        ),
        (
            "micro_cnn poisson@4000000x512 s1 r1 slo400-40",
            0x4b811a3c2558fdbc,
        ),
        (
            "micro_cnn poisson@4000000x512 s1 r2 fixed",
            0x391f1c29bd0c6bdb,
        ),
        (
            "micro_cnn poisson@4000000x512 s1 r2 qd8-1",
            0x4df8bb355e19fe47,
        ),
        (
            "micro_cnn poisson@4000000x512 s1 r2 slo400-40",
            0xbe03a3116a1130af,
        ),
        (
            "micro_cnn poisson@4000000x512 s2 r1 fixed",
            0xd078b4bfd1ed0726,
        ),
        (
            "micro_cnn poisson@4000000x512 s2 r1 qd8-1",
            0x90a4af96ff49578e,
        ),
        (
            "micro_cnn poisson@4000000x512 s2 r1 slo400-40",
            0x8077deba79fd671e,
        ),
        (
            "micro_cnn poisson@4000000x512 s2 r2 fixed",
            0x25e475dc46fd9529,
        ),
        (
            "micro_cnn poisson@4000000x512 s2 r2 qd8-1",
            0x75e661732805549d,
        ),
        (
            "micro_cnn poisson@4000000x512 s2 r2 slo400-40",
            0x93a6ece8adaa5101,
        ),
        (
            "micro_cnn diurnal@2000000x512 s1 r1 fixed",
            0xbbe584a6e57274e8,
        ),
        (
            "micro_cnn diurnal@2000000x512 s1 r1 qd8-1",
            0x3cb26a228e90925b,
        ),
        (
            "micro_cnn diurnal@2000000x512 s1 r1 slo400-40",
            0xd8619f987dc281a4,
        ),
        (
            "micro_cnn diurnal@2000000x512 s1 r2 fixed",
            0x342d6ed8aa64f5e7,
        ),
        (
            "micro_cnn diurnal@2000000x512 s1 r2 qd8-1",
            0xb5dd5bb84a8d5a4a,
        ),
        (
            "micro_cnn diurnal@2000000x512 s1 r2 slo400-40",
            0x68e40c93ff1fee4b,
        ),
        (
            "micro_cnn diurnal@2000000x512 s2 r1 fixed",
            0xd01f72d863359b69,
        ),
        (
            "micro_cnn diurnal@2000000x512 s2 r1 qd8-1",
            0x0895d1fd06a52565,
        ),
        (
            "micro_cnn diurnal@2000000x512 s2 r1 slo400-40",
            0xb101fa36fc810f19,
        ),
        (
            "micro_cnn diurnal@2000000x512 s2 r2 fixed",
            0x78423f0363c092ca,
        ),
        (
            "micro_cnn diurnal@2000000x512 s2 r2 qd8-1",
            0xea9f6a2226142128,
        ),
        (
            "micro_cnn diurnal@2000000x512 s2 r2 slo400-40",
            0x738a0ca2d409b72a,
        ),
        (
            "micro_cnn flash@500000x20x512 s1 r1 fixed",
            0x624e9b061028edca,
        ),
        (
            "micro_cnn flash@500000x20x512 s1 r1 qd8-1",
            0xca8328e8a29633bd,
        ),
        (
            "micro_cnn flash@500000x20x512 s1 r1 slo400-40",
            0x4d0ac06f0f0ec8f0,
        ),
        (
            "micro_cnn flash@500000x20x512 s1 r2 fixed",
            0xebd15fd53df964ac,
        ),
        (
            "micro_cnn flash@500000x20x512 s1 r2 qd8-1",
            0x98c62683982ed082,
        ),
        (
            "micro_cnn flash@500000x20x512 s1 r2 slo400-40",
            0xe8613f45d1d3706d,
        ),
        (
            "micro_cnn flash@500000x20x512 s2 r1 fixed",
            0x648a2244ca80ff0d,
        ),
        (
            "micro_cnn flash@500000x20x512 s2 r1 qd8-1",
            0x717e1134f367053d,
        ),
        (
            "micro_cnn flash@500000x20x512 s2 r1 slo400-40",
            0x22918d80313f3e34,
        ),
        (
            "micro_cnn flash@500000x20x512 s2 r2 fixed",
            0x5840c9958ab35f3e,
        ),
        (
            "micro_cnn flash@500000x20x512 s2 r2 qd8-1",
            0x49a5aab488f4b55d,
        ),
        (
            "micro_cnn flash@500000x20x512 s2 r2 slo400-40",
            0xfcf98a8c74b8f9e8,
        ),
    ];
    pub const HAND_BUILT: &[(&str, u64)] = &[
        ("bursty@50000-4000000 backpressure", 0x23b96e86e51b5b7b),
        ("bursty@50000-4000000 drain", 0xbc6336bcdf2a750c),
        ("bursty@50000-4000000 headroom", 0x78cf3a207e012778),
        ("flash@100000x15 backpressure", 0x2a8ac03232823b6c),
        ("flash@100000x15 drain", 0x618796e11f47f652),
        ("flash@100000x15 headroom", 0xa5030ae992d3eff5),
    ];
}
