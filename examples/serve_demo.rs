//! Serving demo: the threaded dynamic-batching server on live submissions,
//! then the deterministic trace-driven simulation with its SLO report,
//! per-phase latency breakdown and span flamegraph — the telemetry spine
//! recording the whole run.
//!
//! Run with `cargo run --release --example serve_demo`.

use camdnn::telemetry;
use camdnn::FunctionalBackend;
use serve::{
    BackendExecutor, BatchingPolicy, PayloadSpec, RoutePolicy, ServeConfig, ServeGrid,
    ServeSession, Server, TraceSpec,
};
use std::sync::Arc;
use tnn::model::micro_cnn;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== camdnn-serve: dynamic-batching inference serving ==\n");

    // Record spans, counters and phase histograms for the whole demo.
    telemetry::set_enabled(true);
    telemetry::reset();

    // 1. The threaded server: two replicas, batches close at 8 requests or
    //    300 us. Submit 32 requests as fast as the queue admits them; every
    //    response carries logits bit-identical to a solo run of its input.
    let model = Arc::new(micro_cnn("serve-demo", 4, 0.8, 1));
    let executor = Arc::new(BackendExecutor::functional(
        FunctionalBackend::default(),
        model.clone(),
    ));
    let server = Server::start(
        executor,
        ServeConfig::default()
            .with_replicas(2)
            .with_batching(BatchingPolicy::new(8, 300))
            .with_routing(RoutePolicy::JoinShortestQueue),
    )?;
    let tickets: Vec<_> = (0..32)
        .map(|i| server.submit(FunctionalBackend::input_for_sample(&model, 4, 0, i)))
        .collect::<serve::Result<_>>()?;
    let mut bit_exact = 0;
    let mut batched_with_others = 0;
    for ticket in tickets {
        let completion = ticket.wait()?;
        if completion.bit_exact == Some(true) {
            bit_exact += 1;
        }
        if completion.batch_size > 1 {
            batched_with_others += 1;
        }
    }
    let counters = server.counters();
    server.shutdown()?;
    println!(
        "threaded server: {} requests served in {} batches, {} bit-exact, {} rode a shared batch",
        counters.completed, counters.batches, bit_exact, batched_with_others
    );

    // 2. Deterministic simulation sweep: traffic intensity x batching policy
    //    x replica count on the virtual clock. The same trace seed always
    //    reproduces the exact same batches, logits and latency statistics.
    let grid = ServeGrid::new()
        .workload(micro_cnn("serve-demo", 4, 0.8, 1))
        .traffic([
            TraceSpec::poisson(500_000.0, 64, 7),
            TraceSpec::poisson(4_000_000.0, 64, 7),
        ])
        .batching([BatchingPolicy::single(), BatchingPolicy::new(16, 50)])
        .replicas([1, 2])
        .config(ServeConfig::default().with_slo_ms(0.05))
        .payloads(PayloadSpec::Blobs {
            classes: 4,
            noise: 0.1,
            seed: 3,
        });
    let session = ServeSession::new();
    let results = session.run(&grid)?;
    println!("\nserving sweep (virtual clock, dataset-backed payloads):");
    print!("{}", results.to_table());

    let saturated_single = results
        .records
        .iter()
        .find(|r| r.scenario.contains("poisson@4000000") && r.scenario.contains("b1/0us r1"))
        .expect("single-dispatch record");
    let saturated_batched = results
        .records
        .iter()
        .find(|r| r.scenario.contains("poisson@4000000") && r.scenario.contains("b16/50us r1"))
        .expect("batched record");
    println!(
        "\nat saturating load, dynamic batching serves {:.0} samples/s vs {:.0} for \
         request-at-a-time dispatch ({:.1}x) while holding p99 at {:.3} ms.",
        saturated_batched.report.samples_per_s,
        saturated_single.report.samples_per_s,
        saturated_batched.report.samples_per_s / saturated_single.report.samples_per_s,
        saturated_batched.report.latency.p99_ms(),
    );

    // 3. Per-phase latency breakdown: where the saturated scenario's
    //    end-to-end latency goes — waiting for a batch to close, waiting for
    //    a free replica, executing, merging results back out.
    println!("\nper-phase latency (saturating load, batched, one replica):");
    println!("  {}", saturated_batched.report.phases.summary());
    println!("per-phase latency (saturating load, single dispatch):");
    println!("  {}", saturated_single.report.phases.summary());

    // 4. The span flamegraph of everything recorded so far (collapsed-stack
    //    format, ready for `inferno`/`flamegraph.pl`): compile spans from
    //    the layer compiler, execute spans from the batched functional
    //    backend, serve spans from the threaded server.
    let flamegraph = telemetry::flamegraph();
    println!(
        "\nspan flamegraph ({} collapsed stacks; top lines):",
        flamegraph.lines().count()
    );
    for line in flamegraph.lines().take(8) {
        println!("  {line}");
    }
    let snapshot = telemetry::snapshot();
    println!(
        "metrics snapshot: {} deterministic counters, {} phase/work histograms, {} span paths \
         (schema: {})",
        snapshot.deterministic.counters.len(),
        snapshot.deterministic.histograms.len(),
        snapshot.timing.spans.len(),
        camdnn::telemetry::MetricsSnapshot::SCHEMA,
    );

    // Replaying the same grid is byte-identical — the property CI pins.
    let replay = ServeSession::new().run(&grid)?;
    assert_eq!(results.to_json(), replay.to_json());
    println!("replay check: byte-identical ServeReport JSON for the same trace seeds.");
    Ok(())
}
