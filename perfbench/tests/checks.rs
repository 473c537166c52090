//! The benchmark's own checks: a wrong output counts as a failed operation,
//! modeled results repeat exactly across runs and worker counts, and
//! `BENCHMARK.json` names exactly the metrics the runs print.
//!
//! Everything runs on shrunk (`smoke`) instances. Only one test sets the
//! process-wide `RAYON_NUM_THREADS`; no other test's results depend on it.

use perfbench::{
    run, setup, Clock, Metric, Options, Tally, END_TO_END, LOCAL_WORKLOADS, PER_LAYER, WORKLOADS,
};

fn all_workloads() -> impl Iterator<Item = &'static str> {
    WORKLOADS.into_iter().chain(LOCAL_WORKLOADS)
}

fn smoke(workload: &str, trace: bool) -> Options {
    Options {
        seconds: 0.0,
        trace,
        smoke: true,
        ..Options::new(workload, 3)
    }
}

/// The deterministic metrics of a run: modeled values and counts.
fn deterministic(metrics: &[Metric]) -> Vec<(String, u64)> {
    metrics
        .iter()
        .filter(|m| m.clock != Clock::Host)
        .map(|m| (m.name.clone(), m.value.to_bits()))
        .collect()
}

#[test]
fn perturbed_outputs_register_as_failed_ops() {
    for workload in ["resnet18_b1_grid2x2", "serve_micro_bursty"] {
        let mut bench = setup(&smoke(workload, false)).expect("set-up");
        let mut tally = Tally::new(bench.reference());
        let good = bench.op();
        assert!(
            tally.record(&good),
            "{workload}: an unmodified op is correct"
        );

        let mut logit = good.clone().expect("op");
        logit.logits[0][0] += 1;
        assert!(
            !tally.record(&Ok(logit)),
            "{workload}: a perturbed logit fails"
        );

        let mut counter = good.clone().expect("op");
        counter.counters[0] ^= 1;
        assert!(
            !tally.record(&Ok(counter)),
            "{workload}: a perturbed counter fails"
        );

        let mut flagged = good.expect("op");
        flagged.bit_exact = false;
        assert!(
            !tally.record(&Ok(flagged)),
            "{workload}: a failed bit-exact check fails"
        );

        assert!(
            !tally.record(&Err("injected".to_string())),
            "{workload}: an error fails"
        );
        assert_eq!((tally.attempted, tally.failed), (5, 4));
    }
}

#[test]
fn table2_ops_are_checked_against_the_first_op() {
    let mut bench = setup(&smoke("table2_resnet18", false)).expect("set-up");
    assert!(bench.reference().is_none());
    let mut tally = Tally::new(None);
    let first = bench.op();
    assert!(tally.record(&first));
    assert!(tally.record(&bench.op()));
    let mut counter = first.expect("op");
    counter.counters[0] ^= 1;
    assert!(!tally.record(&Ok(counter)));
}

#[test]
fn modeled_results_repeat_across_runs_and_worker_counts() {
    let mut runs: Vec<Vec<Vec<(String, u64)>>> = Vec::new();
    for threads in ["1", "1", "2"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let mut per_workload = Vec::new();
        for workload in all_workloads() {
            for trace in [false, true] {
                let report = run(&smoke(workload, trace)).expect("smoke run");
                assert_eq!(report.failed, 0, "{workload} trace={trace}");
                let mut metrics = deterministic(&report.metrics);
                metrics.extend(deterministic(&report.extra));
                assert!(!metrics.is_empty());
                per_workload.push(metrics);
            }
        }
        runs.push(per_workload);
    }
    assert_eq!(runs[0], runs[1], "two runs at one worker");
    assert_eq!(runs[0], runs[2], "one worker vs two workers");
}

#[test]
fn runs_print_exactly_the_declared_metrics() {
    for workload in all_workloads() {
        for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let report = run(&smoke(workload, trace)).expect("smoke run");
            let printed: Vec<(&str, &str)> = report
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            assert_eq!(printed, declared, "{workload} trace={trace}");
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert!(report.metrics.iter().all(|m| m.value > 0.0), "{workload}");
            }
        }
    }
}

#[test]
fn benchmark_json_declares_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let declared = |name: &str, unit: &str| {
        text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            declared(name, unit),
            "{name} [{unit}] missing from BENCHMARK.json"
        );
    }
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
    let entries = text.matches("\"name\":").count();
    assert_eq!(
        entries,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}

/// The paper's headline row at its published seed: 134.40 µJ against
/// 106.54 µJ for the crossbar, a 0.79× energy gain where the paper reports
/// 7.5×. Pinned, not endorsed. Takes a few seconds in release mode:
/// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.
#[test]
#[ignore]
fn table2_headline_row_at_seed_7() {
    let mut bench = setup(&Options::new("table2_resnet18", 7)).expect("set-up");
    bench.op().expect("op");
    let modeled = bench.modeled();
    assert_eq!(format!("{:.2}", modeled.uj_per_sample), "134.40");
    assert_eq!(format!("{:.2}", modeled.energy_gain_vs_crossbar), "0.79");
}
