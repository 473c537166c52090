//! Integration suite for the `camdnn-serve` subsystem.
//!
//! Three invariant families:
//!
//! * **Scheduling transparency** — however arrivals interleave into dynamic
//!   batches (threaded server under real concurrency, or the virtual-clock
//!   simulator), every request's logits are bit-identical to a solo
//!   `run_batch` of the same input. Serving may reorder and pack work; it
//!   must never change answers.
//! * **Deterministic replay** — a fixed trace seed reproduces identical
//!   batch boundaries and a byte-identical `ServeReport` JSON document on
//!   every simulation run, with or without a warm compile cache, at any
//!   `RAYON_NUM_THREADS` (CI re-runs this suite with a single rayon worker
//!   and with `SERVE_TEST_REPLICAS=1`).
//! * **Liveness** — graceful shutdown drains every admitted request, workers
//!   join, and admission control rejects exactly the overflow.

use apc::{CompileCache, CompilerOptions};
use camdnn::FunctionalBackend;
use proptest::prelude::*;
use serve::{
    simulate, simulate_fleet, ArrivalProcess, BackendExecutor, BatchingPolicy, ExecutedBatch,
    FleetConfig, FleetStageModel, PayloadSpec, RequestExecutor, RoutePolicy, ServeConfig,
    ServeGrid, ServeSession, Server, SimOutcome, StageCost, TraceSpec,
};
use std::sync::{Arc, OnceLock};
use tnn::model::{micro_cnn, ModelGraph};
use tnn::Tensor;

/// Replica count of the threaded-server tests; CI re-runs the suite with
/// `SERVE_TEST_REPLICAS=1` to cover the single-worker degenerate case.
fn test_replicas() -> usize {
    std::env::var("SERVE_TEST_REPLICAS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

fn micro_model() -> ModelGraph {
    micro_cnn("serve-micro", 4, 0.8, 7)
}

/// One executor shared across tests/cases so each layer compiles once.
fn shared_executor() -> &'static BackendExecutor {
    static EXECUTOR: OnceLock<BackendExecutor> = OnceLock::new();
    EXECUTOR.get_or_init(|| {
        BackendExecutor::functional(FunctionalBackend::default(), Arc::new(micro_model()))
    })
}

/// The solo-run reference: logits of `input` executed as a batch of one.
fn solo_logits(input: &Tensor<i64>) -> Vec<i64> {
    static CACHE: OnceLock<CompileCache> = OnceLock::new();
    let cache = CACHE.get_or_init(CompileCache::new);
    let backend = FunctionalBackend::default();
    backend
        .run_batch(
            shared_executor().model(),
            std::slice::from_ref(input),
            cache,
        )
        .expect("solo run")
        .samples
        .remove(0)
        .logits
}

fn saturating_scenario(batching: BatchingPolicy, replicas: usize) -> serve::ServeScenario {
    let grid = ServeGrid::new()
        .workload(micro_model())
        .traffic([TraceSpec::poisson(20_000.0, 24, 11)])
        .batching([batching])
        .replicas([replicas]);
    grid.scenarios().remove(0)
}

#[test]
fn sim_logits_are_bit_identical_to_solo_runs() {
    let session = ServeSession::new();
    let scenario = saturating_scenario(BatchingPolicy::new(6, 400), 2);
    let outcome = session.run_scenario(&scenario).expect("simulate");
    assert_eq!(outcome.report.completed, 24);
    assert_eq!(outcome.report.bit_exact, Some(true));
    // Dynamic batching actually formed multi-request batches…
    assert!(outcome.batches.iter().any(|b| b.requests.len() > 1));
    let payloads = scenario
        .payloads
        .materialize(
            &scenario.workload.model,
            CompilerOptions::default().act_bits,
            24,
        )
        .expect("payloads");
    // …and every member's logits equal its solo run regardless.
    for completion in &outcome.completions {
        let expected = solo_logits(&payloads[completion.request]);
        assert_eq!(
            completion.logits.as_ref(),
            Some(&expected),
            "request {} diverged from its solo run",
            completion.request
        );
    }
}

#[test]
fn replay_is_byte_identical_and_cache_oblivious() {
    let scenario = saturating_scenario(BatchingPolicy::new(4, 250), 2);
    let warm = ServeSession::new();
    let first = warm.run_scenario(&scenario).expect("first run");
    // Same session (warm cache), fresh session (cold cache): same everything.
    let second = warm.run_scenario(&scenario).expect("second run");
    let cold = ServeSession::new()
        .run_scenario(&scenario)
        .expect("cold run");
    for other in [&second, &cold] {
        assert_eq!(first.batches, other.batches, "batch boundaries must replay");
        assert_eq!(first.completions, other.completions);
        assert_eq!(
            first.report.to_json(),
            other.report.to_json(),
            "ServeReport JSON must be byte-identical"
        );
    }
    // The report round-trips losslessly.
    let parsed = serve::ServeReport::from_json(&first.report.to_json()).expect("parse");
    assert_eq!(parsed, first.report);
}

/// Golden pinning of a fixed scenario: literal batch boundaries and latency
/// percentiles. Any nondeterminism — across runs, hosts, worker counts or
/// `RAYON_NUM_THREADS` — or any unintended change to the virtual-clock
/// decision rules shows up as a diff against these checked-in values.
#[test]
fn golden_simulation_is_pinned() {
    let scenario = saturating_scenario(BatchingPolicy::new(6, 400), 2);
    let outcome = ServeSession::new()
        .run_scenario(&scenario)
        .expect("simulate");
    let boundaries: Vec<(usize, u64, Vec<usize>)> = outcome
        .batches
        .iter()
        .map(|b| (b.replica, b.dispatch_ns, b.requests.clone()))
        .collect();
    assert_eq!(
        boundaries,
        golden::BOUNDARIES
            .iter()
            .map(|&(replica, dispatch_ns, requests)| (replica, dispatch_ns, requests.to_vec()))
            .collect::<Vec<_>>()
    );
    assert_eq!(outcome.report.latency.p50_ns, golden::P50_NS);
    assert_eq!(outcome.report.latency.p99_ns, golden::P99_NS);
    assert_eq!(outcome.report.makespan_ns, golden::MAKESPAN_NS);
}

/// Checked-in golden values for `golden_simulation_is_pinned` (derived from
/// the first accepted run; see the test for what a diff means).
mod golden {
    pub const BOUNDARIES: &[(usize, u64, &[usize])] = &[
        (0, 334_496, &[0, 2, 4, 6, 8, 10]),
        (1, 339_753, &[1, 3, 5, 7, 9, 11]),
        (0, 581_970, &[12, 14, 16, 18, 20, 22]),
        (1, 590_877, &[13, 15, 17, 19, 21, 23]),
    ];
    pub const P50_NS: u64 = 89_219;
    pub const P99_NS: u64 = 321_671;
    pub const MAKESPAN_NS: u64 = 592_491;

    /// `fixed_latency_simulations_are_pinned`: one digest per configuration.
    pub const FIXED_SIMULATIONS: &[(&str, u64)] = &[
        ("poisson@150000 rr r1 b4/20us q256", 0x0447441714dbca2a),
        ("poisson@150000 rr r1 b4/20us q4", 0x926f1d53c554e571),
        ("poisson@150000 rr r1 b8/100us q256", 0x099669e95bd0d3e8),
        ("poisson@150000 rr r1 b8/100us q4", 0xcf2a1a0723056d0c),
        ("poisson@150000 rr r3 b4/20us q256", 0x32cbb24dfe1fded7),
        ("poisson@150000 rr r3 b4/20us q4", 0x58b35b03bb03d646),
        ("poisson@150000 rr r3 b8/100us q256", 0xfc67f7f04a1c93af),
        ("poisson@150000 rr r3 b8/100us q4", 0x161749a65f1c74f6),
        ("poisson@150000 ll r1 b4/20us q256", 0x22bbafd354a05abe),
        ("poisson@150000 ll r1 b4/20us q4", 0xb5998dec123e688f),
        ("poisson@150000 ll r1 b8/100us q256", 0x2afd9a41e81552de),
        ("poisson@150000 ll r1 b8/100us q4", 0x92430252964ad4a0),
        ("poisson@150000 ll r3 b4/20us q256", 0x038270188bc221ad),
        ("poisson@150000 ll r3 b4/20us q4", 0x36e64306f3e709e4),
        ("poisson@150000 ll r3 b8/100us q256", 0x30fe4f5f07fe68c1),
        ("poisson@150000 ll r3 b8/100us q4", 0xa17e84f574d24af2),
        ("poisson@150000 jsq r1 b4/20us q256", 0x672676234f4c9e73),
        ("poisson@150000 jsq r1 b4/20us q4", 0x50359cc456ea91ec),
        ("poisson@150000 jsq r1 b8/100us q256", 0xa321af134b9841f9),
        ("poisson@150000 jsq r1 b8/100us q4", 0x7573216ed7c9d979),
        ("poisson@150000 jsq r3 b4/20us q256", 0x96e00fa2cd139517),
        ("poisson@150000 jsq r3 b4/20us q4", 0x10152ab2c7df5930),
        ("poisson@150000 jsq r3 b8/100us q256", 0x8e55becf45abfc86),
        ("poisson@150000 jsq r3 b8/100us q4", 0x8667765247f8db1f),
        (
            "bursty@20000-1000000 rr r1 b4/20us q256",
            0x667840387b882fe5,
        ),
        ("bursty@20000-1000000 rr r1 b4/20us q4", 0xb4fe7678dc4d5a79),
        (
            "bursty@20000-1000000 rr r1 b8/100us q256",
            0x45b40f788078f617,
        ),
        ("bursty@20000-1000000 rr r1 b8/100us q4", 0xbcc8153834c7a736),
        (
            "bursty@20000-1000000 rr r3 b4/20us q256",
            0x7d5f4a3789dcfe43,
        ),
        ("bursty@20000-1000000 rr r3 b4/20us q4", 0xc7bbb581ee20e16e),
        (
            "bursty@20000-1000000 rr r3 b8/100us q256",
            0x74e225e03d1f60fb,
        ),
        ("bursty@20000-1000000 rr r3 b8/100us q4", 0x2103df23b2cd7dff),
        (
            "bursty@20000-1000000 ll r1 b4/20us q256",
            0x54bb4fb6bca9a3b9,
        ),
        ("bursty@20000-1000000 ll r1 b4/20us q4", 0x29a17406ff8a52ab),
        (
            "bursty@20000-1000000 ll r1 b8/100us q256",
            0x3c357d98e39f32a5,
        ),
        ("bursty@20000-1000000 ll r1 b8/100us q4", 0x250ca7c7d72c71ba),
        (
            "bursty@20000-1000000 ll r3 b4/20us q256",
            0x7a5b2c5f36a3cba9,
        ),
        ("bursty@20000-1000000 ll r3 b4/20us q4", 0x1770e02ede336ca0),
        (
            "bursty@20000-1000000 ll r3 b8/100us q256",
            0x659141192b53a7ec,
        ),
        ("bursty@20000-1000000 ll r3 b8/100us q4", 0xd47f444b2cc7143c),
        (
            "bursty@20000-1000000 jsq r1 b4/20us q256",
            0x3c4ceb772aaf59cc,
        ),
        ("bursty@20000-1000000 jsq r1 b4/20us q4", 0x44c2d519f0d8d9f8),
        (
            "bursty@20000-1000000 jsq r1 b8/100us q256",
            0xaa352a533f558936,
        ),
        (
            "bursty@20000-1000000 jsq r1 b8/100us q4",
            0x348dc56b14c9b25d,
        ),
        (
            "bursty@20000-1000000 jsq r3 b4/20us q256",
            0x33a9a72099003d05,
        ),
        ("bursty@20000-1000000 jsq r3 b4/20us q4", 0xcbdeefec577da8eb),
        (
            "bursty@20000-1000000 jsq r3 b8/100us q256",
            0xc58407fbbf068105,
        ),
        (
            "bursty@20000-1000000 jsq r3 b8/100us q4",
            0x9b44b700e44392b9,
        ),
        ("flash@40000x25 rr r1 b4/20us q256", 0x980a5c77567a0d29),
        ("flash@40000x25 rr r1 b4/20us q4", 0xd2083292bbc3e08b),
        ("flash@40000x25 rr r1 b8/100us q256", 0x6e82d1e833e15c41),
        ("flash@40000x25 rr r1 b8/100us q4", 0x9a7210457feead07),
        ("flash@40000x25 rr r3 b4/20us q256", 0x0362405c789126c9),
        ("flash@40000x25 rr r3 b4/20us q4", 0x48559e04d0929b21),
        ("flash@40000x25 rr r3 b8/100us q256", 0x225ceedc11ad889d),
        ("flash@40000x25 rr r3 b8/100us q4", 0x01bc2a9d44dfa811),
        ("flash@40000x25 ll r1 b4/20us q256", 0x0a036d223460b51d),
        ("flash@40000x25 ll r1 b4/20us q4", 0xb4e42b37ba318419),
        ("flash@40000x25 ll r1 b8/100us q256", 0x8b354980ff8bb5f3),
        ("flash@40000x25 ll r1 b8/100us q4", 0x10f09594b73a653b),
        ("flash@40000x25 ll r3 b4/20us q256", 0x3b4dcb6ba54aa2ef),
        ("flash@40000x25 ll r3 b4/20us q4", 0xf8a279432b8edfad),
        ("flash@40000x25 ll r3 b8/100us q256", 0x997d38faa2012c90),
        ("flash@40000x25 ll r3 b8/100us q4", 0x42b0202cd2a5e458),
        ("flash@40000x25 jsq r1 b4/20us q256", 0x2add65f66d580820),
        ("flash@40000x25 jsq r1 b4/20us q4", 0x238c51dd9b6e6d70),
        ("flash@40000x25 jsq r1 b8/100us q256", 0x2f4325d9ecb6bae0),
        ("flash@40000x25 jsq r1 b8/100us q4", 0xee194b8125832faa),
        ("flash@40000x25 jsq r3 b4/20us q256", 0x10764be6b1801963),
        ("flash@40000x25 jsq r3 b4/20us q4", 0x500d2a239dff0055),
        ("flash@40000x25 jsq r3 b8/100us q256", 0x337f364b66ce921b),
        ("flash@40000x25 jsq r3 b8/100us q4", 0x21da140d06ead5f0),
    ];

    /// `functional_sweep_is_pinned`.
    pub const FUNCTIONAL_SWEEP: u64 = 0x4ebca9147ec1a3f5;
}

#[test]
fn sweep_results_are_deterministic_and_round_trip() {
    let grid = ServeGrid::new()
        .workload(micro_model())
        .traffic([
            TraceSpec::poisson(1_000.0, 12, 3),
            // Saturating: the modeled service time of a solo micro_cnn
            // inference is ~1.1 µs, so 5M req/s floods a single replica.
            TraceSpec::poisson(5_000_000.0, 12, 3),
        ])
        .batching([BatchingPolicy::single(), BatchingPolicy::new(6, 400)])
        .replicas(
            [1, test_replicas()]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>(),
        )
        .config(ServeConfig::default().with_routing(RoutePolicy::JoinShortestQueue));
    let session = ServeSession::new();
    let results = session.run(&grid).expect("sweep");
    assert_eq!(results.records.len(), grid.len());
    let labels: std::collections::HashSet<&str> = results
        .records
        .iter()
        .map(|r| r.scenario.as_str())
        .collect();
    assert_eq!(labels.len(), results.records.len(), "labels must be unique");
    // Byte-identical across executions (the rayon fan-out cannot perturb).
    let again = ServeSession::new().run(&grid).expect("sweep again");
    assert_eq!(results.to_json(), again.to_json());
    // JSON lines round-trip losslessly, in memory and through the file
    // writer of the shared result set.
    let parsed = serve::ServeResultSet::from_json(&results.to_json()).expect("parse");
    assert_eq!(parsed, results);
    assert_eq!(parsed.to_json(), results.to_json());
    let path = std::env::temp_dir().join("camdnn_serve_results_test.json");
    results.write_json(&path).expect("write");
    let read_back =
        serve::ServeResultSet::from_json(&std::fs::read_to_string(&path).expect("read"))
            .expect("parse file");
    assert_eq!(read_back, results);
    std::fs::remove_file(&path).ok();
    assert!(results.to_table().contains("smp/s"));
    // At saturating load, the modeled throughput of dynamic batching beats
    // request-at-a-time dispatch (cycle amortization of the packed batch).
    let get = |needle: &str| {
        results
            .records
            .iter()
            .find(|r| r.scenario.contains(needle) && r.scenario.ends_with("r1"))
            .expect("record")
    };
    let single = get("poisson@5000000x12 b1/0us");
    let batched = get("poisson@5000000x12 b6/400us");
    assert!(batched.report.mean_batch_size > 1.0);
    assert!(
        batched.report.samples_per_s > single.report.samples_per_s,
        "batched {} <= single {}",
        batched.report.samples_per_s,
        single.report.samples_per_s
    );
}

#[test]
fn duplicate_labels_are_rejected_before_any_simulation() {
    // That no simulation runs first is `run_ordered`'s contract, unit-tested
    // in `camdnn::experiment`.
    let grid = ServeGrid::new().workloads([micro_model(), micro_model()]);
    let err = ServeSession::new().run(&grid).expect_err("must collide");
    assert!(
        matches!(err, serve::ServeError::InvalidConfig { .. }),
        "{err}"
    );
    assert!(err.to_string().contains("duplicate serve scenario label"));
}

#[test]
fn dataset_backed_payloads_serve_bit_exactly() {
    let scenario = {
        let grid = ServeGrid::new()
            .workload(micro_model())
            .traffic([TraceSpec::poisson(10_000.0, 10, 5)])
            .batching([BatchingPolicy::new(4, 300)])
            .payloads(PayloadSpec::Blobs {
                classes: 4,
                noise: 0.1,
                seed: 9,
            });
        grid.scenarios().remove(0)
    };
    let outcome = ServeSession::new()
        .run_scenario(&scenario)
        .expect("simulate");
    assert_eq!(outcome.report.completed, 10);
    assert_eq!(outcome.report.bit_exact, Some(true));
    let payloads = scenario
        .payloads
        .materialize(
            &scenario.workload.model,
            CompilerOptions::default().act_bits,
            10,
        )
        .expect("payloads");
    for completion in &outcome.completions {
        assert_eq!(
            completion.logits.as_ref(),
            Some(&solo_logits(&payloads[completion.request])),
            "dataset request {} diverged",
            completion.request
        );
    }
}

#[test]
fn threaded_server_drains_gracefully_and_checks_out() {
    let config = ServeConfig::default()
        .with_replicas(test_replicas())
        .with_batching(BatchingPolicy::new(4, 300))
        .with_routing(RoutePolicy::LeastLoaded);
    let server = Server::start(Arc::new(shared_executor().clone()), config).expect("start");
    let model = shared_executor().model().clone();
    let inputs: Vec<Tensor<i64>> = (0..12)
        .map(|i| FunctionalBackend::input_for_sample(&model, 4, 21, i))
        .collect();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|input| server.submit(input.clone()).expect("submit"))
        .collect();
    // Begin shutdown immediately: queued requests must still be answered.
    server.shutdown().expect("shutdown");
    for (input, ticket) in inputs.iter().zip(tickets) {
        let completion = ticket.wait().expect("completion survives shutdown");
        assert_eq!(completion.logits.as_ref(), Some(&solo_logits(input)));
        assert_eq!(completion.bit_exact, Some(true));
    }
    let counters = server.counters();
    assert_eq!(
        (counters.submitted, counters.completed, counters.rejected),
        (12, 12, 0)
    );
    assert!(
        server.submit(inputs[0].clone()).is_err(),
        "closed to new work"
    );
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One digest of everything a simulation reports: the report JSON, every
/// batch record, every completion record (logits included) and the rejected
/// requests.
fn outcome_digest(outcome: &SimOutcome) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for batch in &outcome.batches {
        words.extend([batch.replica as u64, batch.dispatch_ns, batch.completion_ns]);
        words.push(batch.requests.len() as u64);
        words.extend(batch.requests.iter().map(|&r| r as u64));
    }
    for c in &outcome.completions {
        words.extend([
            c.request as u64,
            c.arrival_ns,
            c.planned_close_ns,
            c.dispatch_ns,
            c.completion_ns,
            c.replica as u64,
            c.batch as u64,
        ]);
        match &c.logits {
            None => words.push(u64::MAX),
            Some(logits) => {
                words.push(logits.len() as u64);
                words.extend(logits.iter().map(|&l| l as u64));
            }
        }
    }
    words.push(outcome.rejected.len() as u64);
    words.extend(outcome.rejected.iter().map(|&r| r as u64));
    let hash = fnv1a(FNV_OFFSET, outcome.report.to_json().as_bytes());
    words
        .iter()
        .fold(hash, |hash, word| fnv1a(hash, &word.to_le_bytes()))
}

/// A synthetic executor with a fixed latency model, `base + per_sample · n`
/// nanoseconds per batch, and no logits.
struct FixedExecutor {
    base_ns: u64,
    per_sample_ns: u64,
}

impl RequestExecutor for FixedExecutor {
    fn name(&self) -> String {
        "fixed".to_string()
    }

    fn execute(&self, inputs: &[Tensor<i64>]) -> serve::Result<ExecutedBatch> {
        Ok(ExecutedBatch {
            latency_ns: self.base_ns + self.per_sample_ns * inputs.len() as u64,
            logits: None,
            bit_exact: None,
        })
    }
}

/// Poisson, bursty and flash-crowd traces that overload a few fixed-latency
/// replicas, so queues build, batches fill and small queues reject.
fn golden_traces() -> Vec<TraceSpec> {
    vec![
        TraceSpec::poisson(150_000.0, 160, 5),
        TraceSpec {
            process: ArrivalProcess::Bursty {
                idle_rate_per_s: 20_000.0,
                burst_rate_per_s: 1_000_000.0,
                mean_phase_requests: 12.0,
            },
            requests: 160,
            seed: 6,
        },
        TraceSpec::flash_crowd(40_000.0, 25.0, 0.000_4, 0.000_8, 160, 7),
    ]
}

/// Every configuration of the simulation goldens, with its label: three
/// routings × {1, 3} replicas × two batching windows × {default, 4} queue
/// capacity, for each trace of [`golden_traces`].
fn golden_configs() -> Vec<(String, TraceSpec, ServeConfig)> {
    let mut configs = Vec::new();
    for spec in golden_traces() {
        for routing in [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastLoaded,
            RoutePolicy::JoinShortestQueue,
        ] {
            for replicas in [1, 3] {
                for batching in [BatchingPolicy::new(4, 20), BatchingPolicy::new(8, 100)] {
                    for capacity in [ServeConfig::default().queue_capacity, 4] {
                        let config = ServeConfig::default()
                            .with_routing(routing)
                            .with_replicas(replicas)
                            .with_batching(batching)
                            .with_queue_capacity(capacity)
                            .with_slo_ms(0.1);
                        let label = format!(
                            "{} {routing} r{replicas} {} q{capacity}",
                            spec.process.label(),
                            batching.label()
                        );
                        configs.push((label, spec, config));
                    }
                }
            }
        }
    }
    configs
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

/// Byte-identity pin of the virtual-clock decision rules: every admission,
/// routing, batching and timing decision of 72 fixed-latency replays.
#[test]
fn fixed_latency_simulations_are_pinned() {
    let executor = FixedExecutor {
        base_ns: 20_000,
        per_sample_ns: 1_500,
    };
    let (mut rejecting, mut full_batches) = (0, 0);
    let got: Vec<(String, u64)> = golden_configs()
        .into_iter()
        .map(|(label, spec, config)| {
            let trace = spec.generate().expect("trace");
            let payloads = vec![Tensor::from_vec(vec![1], vec![0]).expect("payload"); trace.len()];
            let outcome =
                simulate(&executor, &config, &spec, &trace, &payloads, "fixed").expect("simulate");
            rejecting += usize::from(outcome.report.rejected > 0);
            full_batches += usize::from(outcome.report.batch_size_counts.last() > Some(&0));
            (label, outcome_digest(&outcome))
        })
        .collect();
    // The table exercises admission control and size-triggered closes.
    assert!(
        rejecting > 0 && full_batches > 0,
        "{rejecting} {full_batches}"
    );
    assert_digests(&got, golden::FIXED_SIMULATIONS);
}

/// `simulate` is the fleet's case of one stage and fixed replicas: against a
/// one-stage model of the same service latency, every request statistic and
/// every admission and batching count agrees.
#[test]
fn serving_is_the_one_stage_fleet() {
    let latency_ns = 30_000;
    let executor = FixedExecutor {
        base_ns: latency_ns,
        per_sample_ns: 0,
    };
    let model = FleetStageModel {
        model: "fixed".to_string(),
        stages: vec![StageCost {
            latency_ns,
            energy_uj_per_sample: 1.0,
            tiles: 1,
        }],
    };
    for spec in golden_traces() {
        let trace = spec.generate().expect("trace");
        let payloads = vec![Tensor::from_vec(vec![1], vec![0]).expect("payload"); trace.len()];
        for routing in [
            RoutePolicy::RoundRobin,
            RoutePolicy::LeastLoaded,
            RoutePolicy::JoinShortestQueue,
        ] {
            for capacity in [2, ServeConfig::default().queue_capacity] {
                let config = ServeConfig::default()
                    .with_replicas(2)
                    .with_batching(BatchingPolicy::new(4, 20))
                    .with_routing(routing)
                    .with_queue_capacity(capacity)
                    .with_slo_ms(0.1);
                let fleet_config = FleetConfig {
                    shards: 1,
                    replicas: config.replicas,
                    batching: config.batching,
                    queue_capacity: config.queue_capacity,
                    routing: config.routing,
                    slo_ns: config.slo_ns,
                    ..FleetConfig::default()
                };
                let served = simulate(&executor, &config, &spec, &trace, &payloads, "fixed")
                    .expect("simulate")
                    .report;
                let fleet = simulate_fleet(&model, &fleet_config, &spec, &trace).expect("fleet");
                let label = format!("{} {routing} q{capacity}", spec.process.label());
                assert_eq!(served.latency, fleet.latency, "{label}");
                assert_eq!(served.queue_wait, fleet.queue_wait, "{label}");
                assert_eq!(served.phases, fleet.phases, "{label}");
                assert_eq!(served.makespan_ns, fleet.makespan_ns, "{label}");
                assert_eq!(served.rejected, fleet.rejected, "{label}");
                assert_eq!(served.batches, fleet.batches, "{label}");
                assert_eq!(served.max_queue_depth, fleet.max_queue_depth, "{label}");
            }
        }
    }
}

/// Byte-identity pin of a small functional sweep: real logits, modeled
/// latencies and bit-exactness through `ServeSession::run`.
#[test]
fn functional_sweep_is_pinned() {
    let grid = ServeGrid::new()
        .workload(micro_model())
        .traffic([
            TraceSpec::poisson(200_000.0, 16, 3),
            TraceSpec::poisson(5_000_000.0, 16, 4),
        ])
        .batching([BatchingPolicy::single(), BatchingPolicy::new(4, 2)])
        .replicas([1, 2])
        .config(ServeConfig::default().with_routing(RoutePolicy::LeastLoaded));
    let session = ServeSession::new();
    let results = session.run(&grid).expect("sweep");
    let mut hash = fnv1a(FNV_OFFSET, results.to_json().as_bytes());
    for scenario in grid.scenarios() {
        let outcome = session.run_scenario(&scenario).expect("simulate");
        hash = fnv1a(hash, &outcome_digest(&outcome).to_le_bytes());
    }
    assert_eq!(hash, golden::FUNCTIONAL_SWEEP, "{hash:#018x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Any interleaving of arrivals — random request counts, payload seeds
    // and submission stalls, racing over `SERVE_TEST_REPLICAS` replicas —
    // yields per-request logits bit-identical to solo runs of the same
    // inputs.
    #[test]
    fn prop_threaded_serving_never_changes_answers(
        request_seeds in proptest::collection::vec(0u64..1_000, 1..8),
        stall_us in proptest::collection::vec(0u64..200, 1..8),
        max_batch in 1usize..5,
        delay_us in 0u64..400,
    ) {
        let config = ServeConfig::default()
            .with_replicas(test_replicas())
            .with_batching(BatchingPolicy::new(max_batch, delay_us));
        let server = Server::start(Arc::new(shared_executor().clone()), config)
            .expect("start");
        let model = shared_executor().model().clone();
        let mut pending = Vec::new();
        for (i, &seed) in request_seeds.iter().enumerate() {
            let input = FunctionalBackend::input_for(&model, 4, seed);
            pending.push((input.clone(), server.submit(input).expect("submit")));
            if let Some(&stall) = stall_us.get(i) {
                if stall > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(stall));
                }
            }
        }
        for (input, ticket) in pending {
            let completion = ticket.wait().expect("completion");
            prop_assert_eq!(completion.logits.as_ref(), Some(&solo_logits(&input)));
            prop_assert_eq!(completion.bit_exact, Some(true));
            prop_assert!(completion.batch_size >= 1 && completion.batch_size <= max_batch);
        }
        server.shutdown().expect("shutdown");
    }
}

/// The multi-axis grid [`serve_grid_expansion_is_pinned`] expands: two
/// traces, two batching windows and two replica counts under a non-default
/// routing policy and SLO.
fn pinned_serve_grid() -> ServeGrid {
    ServeGrid::new()
        .workload(micro_model())
        .traffic([
            TraceSpec::poisson(20_000.0, 24, 11),
            TraceSpec::poisson(5_000.0, 32, 5),
        ])
        .batching([BatchingPolicy::new(4, 250), BatchingPolicy::new(8, 500)])
        .replicas([1, 3])
        .config(
            ServeConfig::default()
                .with_routing(RoutePolicy::LeastLoaded)
                .with_slo_ms(2.5),
        )
}

/// Every scenario of a multi-axis serving sweep, in expansion order: its
/// label, its effective serving configuration, its trace and its payloads.
#[test]
fn serve_grid_expansion_is_pinned() {
    let traces = [
        TraceSpec {
            process: ArrivalProcess::Poisson {
                rate_per_s: 20_000.0,
            },
            requests: 24,
            seed: 11,
        },
        TraceSpec {
            process: ArrivalProcess::Poisson {
                rate_per_s: 5_000.0,
            },
            requests: 32,
            seed: 5,
        },
    ];
    // (label, trace index, max batch size, max queue delay in ns, replicas)
    let expected = [
        ("serve-micro poisson@20000x24 b4/250us r1", 0, 4, 250_000, 1),
        ("serve-micro poisson@20000x24 b4/250us r3", 0, 4, 250_000, 3),
        ("serve-micro poisson@20000x24 b8/500us r1", 0, 8, 500_000, 1),
        ("serve-micro poisson@20000x24 b8/500us r3", 0, 8, 500_000, 3),
        ("serve-micro poisson@5000x32 b4/250us r1", 1, 4, 250_000, 1),
        ("serve-micro poisson@5000x32 b4/250us r3", 1, 4, 250_000, 3),
        ("serve-micro poisson@5000x32 b8/500us r1", 1, 8, 500_000, 1),
        ("serve-micro poisson@5000x32 b8/500us r3", 1, 8, 500_000, 3),
    ];
    let scenarios = pinned_serve_grid().scenarios();
    assert_eq!(scenarios.len(), expected.len());
    for (scenario, &(label, trace, max_batch_size, max_queue_delay_ns, replicas)) in
        scenarios.iter().zip(&expected)
    {
        assert_eq!(scenario.label, label);
        assert_eq!(scenario.workload.label, "serve-micro");
        assert_eq!(
            scenario.config,
            ServeConfig {
                replicas,
                batching: BatchingPolicy {
                    max_batch_size,
                    max_queue_delay_ns,
                },
                queue_capacity: 256,
                routing: RoutePolicy::LeastLoaded,
                slo_ns: 2_500_000,
            },
            "{label}"
        );
        assert_eq!(scenario.trace, traces[trace], "{label}");
        assert_eq!(
            scenario.payloads,
            PayloadSpec::Seeded { base_seed: 0 },
            "{label}"
        );
    }
}
