//! Serving sweep: traffic intensity × batching policy × replica count on the
//! deterministic virtual-clock simulator.
//!
//! Prints the headline serving table (achieved samples/s, p50/p99 latency,
//! SLO attainment, mean batch size) for `micro_cnn` under Poisson and bursty
//! load, and with `--json <path>` dumps the raw `ServeResultSet` as JSON
//! lines (schema: `BENCH_schema.md`, `serve record` section). A fixed trace
//! seed makes the output byte-identical across runs and thread counts.

use camdnn_bench::BenchCli;
use serve::{
    ArrivalProcess, BatchingPolicy, RoutePolicy, ServeConfig, ServeGrid, ServeSession, TraceSpec,
};
use tnn::model::micro_cnn;

fn main() {
    let cli = BenchCli::from_env();
    let requests = 192;
    let seed = 42;
    let grid = ServeGrid::new()
        .workload(micro_cnn("micro_cnn", 8, 0.8, 42))
        .traffic([
            // Light load: the batcher mostly times out with small batches.
            TraceSpec::poisson(200_000.0, requests, seed),
            // Saturating load: ~4 arrivals per modeled solo service time.
            TraceSpec::poisson(2_000_000.0, requests, seed),
            // Bursty load: quiet stretches broken by saturating bursts.
            TraceSpec {
                process: ArrivalProcess::Bursty {
                    idle_rate_per_s: 100_000.0,
                    burst_rate_per_s: 4_000_000.0,
                    mean_phase_requests: 24.0,
                },
                requests,
                seed,
            },
        ])
        .batching([
            BatchingPolicy::single(),
            BatchingPolicy::new(8, 100),
            BatchingPolicy::new(32, 400),
        ])
        .replicas([1, 2])
        .config(
            ServeConfig::default()
                .with_routing(RoutePolicy::JoinShortestQueue)
                .with_slo_ms(0.05),
        );

    let session = ServeSession::new();
    let results = session.run(&grid).expect("serving sweep");
    println!(
        "Serving sweep: micro_cnn, {} requests per trace, SLO 50 us",
        requests
    );
    println!("(virtual clock; logits bit-identical to solo runs at every point)\n");
    print!("{}", results.to_table());

    // Headline: dynamic batching vs single dispatch at saturating load.
    let find = |needle: &str| {
        results
            .records
            .iter()
            .find(|r| r.scenario.contains(needle))
            .expect("scenario present")
    };
    let single = find("poisson@2000000x192 b1/0us r1");
    let batched = find("poisson@2000000x192 b32/400us r1");
    println!(
        "\nsaturating load, one replica: dynamic batching {:.0} samples/s vs {:.0} single \
         dispatch ({:.1}x), p99 {:.3} ms vs {:.3} ms",
        batched.report.samples_per_s,
        single.report.samples_per_s,
        batched.report.samples_per_s / single.report.samples_per_s,
        batched.report.latency.p99_ms(),
        single.report.latency.p99_ms(),
    );

    cli.write_results(&results);
    cli.finish();
}
