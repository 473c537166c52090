//! Integration tests of the declarative experiment API.
//!
//! Pins the acceptance criteria of the `camdnn::experiment` redesign:
//!
//! * a 4-workload × {4, 8}-bit × 3-geometry sweep through one [`Session`]
//!   produces **byte-identical** metrics to a fresh one-scenario session per
//!   scenario, while compiling each distinct
//!   `(layer signature, compiler options)` pair **exactly once** (asserted
//!   via the cache counters);
//! * `ResultSet::to_json` round-trips through serde;
//! * grid expansion is the exact cartesian product with no duplicate
//!   scenarios (property test);
//! * backend errors are reported deterministically — the lowest registration
//!   index wins, regardless of which parallel job fails first.

use accel::ArchConfig;
use apc::layout::CamGeometry;
use apc::{CompilerOptions, LayerSignature};
use camdnn::experiment::{BackendPlan, ResultSet, ScenarioSpec, Session, SweepGrid, Workload};
use camdnn::{BackendId, BackendKind, BackendReport, FunctionalBackend, InferenceBackend};
use proptest::prelude::*;
use std::collections::HashSet;
use tnn::model::{micro_cnn, ModelGraph};

fn workloads() -> Vec<Workload> {
    vec![
        Workload::from(micro_cnn("micro-a", 4, 0.80, 1)),
        Workload::from(micro_cnn("micro-b", 8, 0.85, 2)),
        Workload::from(micro_cnn("micro-c", 8, 0.90, 3)),
        Workload::from(micro_cnn("micro-d", 16, 0.90, 4)),
    ]
}

fn geometries() -> [CamGeometry; 3] {
    [128usize, 256, 512].map(|rows| CamGeometry {
        rows,
        cols: 256,
        domains: 64,
    })
}

#[test]
fn sweep_is_bit_identical_to_per_scenario_pipelines_and_compiles_each_pair_once() {
    let grid = SweepGrid::new()
        .workloads(workloads())
        .act_bits([4, 8])
        .geometries(geometries());
    assert_eq!(grid.len(), 4 * 2 * 3);

    let session = Session::new();
    let results = session.run(&grid).expect("sweep");
    assert_eq!(results.records.len(), grid.len() * 4);

    // --- Byte-identical to a fresh one-scenario session per scenario --------
    for spec in grid.scenarios() {
        let view = results.pipeline(&spec.label).expect("pipeline view");
        let solo = Session::new()
            .run_scenarios(std::slice::from_ref(&spec))
            .expect("one-scenario session")
            .pipeline(&spec.label)
            .expect("solo pipeline view");
        assert_eq!(view, solo, "scenario {}", spec.label);
    }

    // --- Each distinct (layer signature, options) pair compiled exactly once --
    let mut distinct: HashSet<(LayerSignature, CompilerOptions)> = HashSet::new();
    let mut requests = 0u64;
    for spec in grid.scenarios() {
        for enable_cse in [true, false] {
            let options = CompilerOptions {
                enable_cse,
                ..spec.compiler_options()
            };
            for layer in spec.workload.model.conv_like_layers() {
                distinct.insert((LayerSignature::of(&layer), options));
                requests += 1;
            }
        }
    }
    let stats = session.cache_stats();
    assert_eq!(stats.requests(), requests);
    assert_eq!(
        stats.misses,
        distinct.len() as u64,
        "each distinct (layer, options) pair must be compiled exactly once"
    );
    assert_eq!(stats.hits, requests - distinct.len() as u64);

    // --- Structured results round-trip through serde --------------------------
    let text = results.to_json();
    assert_eq!(text.lines().count(), results.records.len());
    let parsed = ResultSet::from_json(&text).expect("parse JSON lines");
    assert_eq!(parsed, results);
    // One record also survives a standalone serde round-trip.
    let record = &results.records[0];
    let one = serde_json::to_string(record).expect("serialize record");
    let back: camdnn::ScenarioRecord = serde_json::from_str(&one).expect("parse record");
    assert_eq!(&back, record);
}

#[test]
fn rerunning_a_grid_in_the_same_session_is_fully_cached() {
    let grid = SweepGrid::new().workload(micro_cnn("micro-a", 8, 0.8, 1));
    let session = Session::new();
    let first = session.run(&grid).expect("first run");
    let after_first = session.cache_stats();
    assert_eq!(after_first.hits, 0);
    let second = session.run(&grid).expect("second run");
    assert_eq!(first, second);
    let after_second = session.cache_stats();
    assert_eq!(after_second.misses, after_first.misses, "no recompilation");
    assert_eq!(after_second.hits, after_first.misses);
}

/// A backend that always fails, tagged so tests can tell the failures apart.
struct FailingBackend(&'static str);

impl InferenceBackend for FailingBackend {
    fn name(&self) -> String {
        format!("failing[{}]", self.0)
    }

    fn evaluate(&self, _model: &ModelGraph) -> apc::Result<BackendReport> {
        Err(apc::ApcError::Internal {
            reason: format!("injected failure: {}", self.0),
        })
    }
}

#[test]
fn session_reports_the_lowest_index_error_in_scenario_backend_order() {
    let mut spec = ScenarioSpec::new(micro_cnn("micro-a", 8, 0.8, 1));
    spec.backends = vec![
        BackendPlan::deepcam(),
        BackendPlan::custom("failing-first", |_| Box::new(FailingBackend("first"))),
        BackendPlan::custom("failing-second", |_| Box::new(FailingBackend("second"))),
    ];
    let session = Session::new();
    let error = session
        .run_scenarios(std::slice::from_ref(&spec))
        .expect_err("must fail");
    assert!(
        error.to_string().contains("injected failure: first"),
        "expected the first failing job, got: {error}"
    );
}

#[test]
fn duplicate_scenario_labels_are_rejected_up_front() {
    // Two workloads that both label themselves "micro" would collide into one
    // result-set key and silently shadow each other's records — the session
    // must refuse to run instead.
    let grid = SweepGrid::new()
        .workload(micro_cnn("micro", 4, 0.8, 1))
        .workload(micro_cnn("micro", 8, 0.9, 2));
    let error = Session::new().run(&grid).expect_err("must reject");
    assert!(
        error.to_string().contains("duplicate scenario label"),
        "got: {error}"
    );
}

#[test]
fn functional_backend_sweeps_next_to_the_standard_columns_and_pins_the_reference() {
    // The `functional` backend joins the sweep as a fifth column, and its
    // accuracy records are pinned equal to the `tnn::infer` reference outputs
    // on the micro workloads — end-to-end bit-exactness as a grid column.
    let mut backends = BackendPlan::standard();
    backends.push(BackendPlan::functional());
    let grid = SweepGrid::new()
        .workloads([
            micro_cnn("micro-a", 4, 0.80, 1),
            micro_cnn("micro-b", 8, 0.85, 2),
        ])
        .act_bits([4, 8])
        .backends(backends);
    let session = Session::new();
    let results = session.run(&grid).expect("sweep");
    assert_eq!(results.records.len(), grid.len() * 5);
    // Registration order puts the functional column fifth in every scenario.
    for (i, record) in results.records.iter().enumerate() {
        if i % 5 == 4 {
            assert_eq!(record.backend, BackendKind::Functional.id());
            assert!(record.backend_name.starts_with("functional["));
        }
    }
    for spec in grid.scenarios() {
        let record = results
            .get(&spec.label, BackendKind::Functional)
            .expect("functional record");
        let functional = record.report.as_functional().expect("functional report");
        assert!(
            functional.is_bit_exact(),
            "scenario {}: {functional:?}",
            spec.label
        );
        assert_eq!(functional.act_bits, spec.act_bits);
        // The logits are exactly the reference integer inference on the same
        // deterministic input.
        let input = FunctionalBackend::input_for(&spec.workload.model, spec.act_bits, 0);
        let reference = tnn::infer::run(&spec.workload.model, &input, Some(spec.act_bits))
            .expect("reference inference");
        assert_eq!(
            functional.logits,
            reference.output().expect("logits").as_slice(),
            "scenario {}",
            spec.label
        );
        assert_eq!(functional.predicted_class, reference.predicted_class());
        // The executed counters price the inference.
        assert!(record.energy_uj > 0.0 && record.latency_ms > 0.0);
        assert!(functional.stats.compute_cycles() > 0);
    }
    // The new record shape survives the JSON-lines round-trip.
    let parsed = ResultSet::from_json(&results.to_json()).expect("parse");
    assert_eq!(parsed, results);
}

#[test]
fn batch_axis_expands_the_grid_and_compiles_each_layer_exactly_once() {
    // The batch_sizes axis multiplies the grid product, suffixes the labels,
    // and must not change what gets compiled: each distinct (layer signature,
    // compiler options) pair is compiled exactly once regardless of how many
    // batch sizes sweep over it.
    let grid = SweepGrid::new()
        .workloads([
            micro_cnn("micro-a", 4, 0.80, 1),
            micro_cnn("micro-b", 8, 0.85, 2),
        ])
        .act_bits([4])
        .batch_sizes([1, 2, 4])
        .backends([BackendPlan::functional(), BackendPlan::deepcam()]);
    assert_eq!(grid.len(), 2 * 3, "batch axis multiplies the product");
    let scenarios = grid.scenarios();
    for (spec, batch_size) in scenarios.iter().zip([1usize, 2, 4].iter().cycle()) {
        assert_eq!(spec.batch_size, *batch_size);
        assert!(
            spec.label.ends_with(&format!(" b{batch_size}")),
            "label {} must carry the batch suffix",
            spec.label
        );
    }

    let session = Session::new();
    let results = session.run(&grid).expect("sweep");
    assert_eq!(results.records.len(), grid.len() * 2);

    // --- registration-ordered records (functional first, deepcam second) ---
    for (i, record) in results.records.iter().enumerate() {
        let expected = if i % 2 == 0 {
            BackendKind::Functional.id()
        } else {
            BackendKind::DeepCam.id()
        };
        assert_eq!(record.backend, expected, "record {i}");
        let spec = &scenarios[i / 2];
        assert_eq!(record.scenario, spec.label);
        assert_eq!(record.batch_size, spec.batch_size);
    }

    // --- exactly-once compilation per distinct layer regardless of B -------
    // Only the functional jobs compile (with retained programs); the batch
    // axis repeats each (layer, options) pair once per batch size.
    let mut distinct: HashSet<(LayerSignature, CompilerOptions)> = HashSet::new();
    let mut requests = 0u64;
    for spec in &scenarios {
        let options = spec.compiler_options().with_programs();
        for layer in spec.workload.model.conv_like_layers() {
            distinct.insert((LayerSignature::of(&layer), options));
            requests += 1;
        }
    }
    let stats = session.cache_stats();
    assert_eq!(stats.requests(), requests);
    assert_eq!(
        stats.misses,
        distinct.len() as u64,
        "each distinct (layer, options) pair must be compiled exactly once across batch sizes"
    );
    assert_eq!(stats.hits, requests - distinct.len() as u64);

    // --- batched records carry real batched reports ------------------------
    for spec in &scenarios {
        let record = results
            .get(&spec.label, BackendKind::Functional)
            .expect("functional record");
        if spec.batch_size == 1 {
            assert!(record.report.as_functional().is_some());
        } else {
            let batch = record.report.as_functional_batch().expect("batched report");
            assert_eq!(batch.batch_size, spec.batch_size);
            assert!(batch.is_bit_exact());
            assert_eq!(record.samples_per_s, batch.samples_per_s);
        }
    }
    // The extended record shape survives the JSON-lines round-trip.
    let parsed = ResultSet::from_json(&results.to_json()).expect("parse");
    assert_eq!(parsed, results);
}

#[test]
fn pass_plans_are_compiled_exactly_once_per_program_across_batches() {
    // The plan cache must lower each distinct (program, geometry) pair to a
    // `PassPlan` exactly once: re-running the same batch — or a bigger batch
    // of the same model — only produces plan cache hits, never recompilation.
    let model = micro_cnn("micro-a", 8, 0.8, 1);
    let options = apc::CompilerOptions::default().with_programs();
    let backend = camdnn::FunctionalBackend::new(ArchConfig::default(), options);
    let cache = apc::CompileCache::default();
    let inputs: Vec<_> = (0..3)
        .map(|i| FunctionalBackend::input_for(&model, options.act_bits, i))
        .collect();

    let first = backend
        .run_batch(&model, &inputs, &cache)
        .expect("first batch");
    assert!(first.is_bit_exact());
    let after_first = cache.plan_stats();
    let summary = cache.plan_summary();
    assert!(after_first.misses > 0, "the batch must compile pass plans");
    // Exact counts: one plan request per unit prologue and per slice run,
    // whichever way the backend resolves its plans; one partition request
    // per weighted layer.
    assert_eq!(
        after_first,
        apc::CacheStats {
            hits: 15,
            misses: 127
        }
    );
    assert_eq!(
        cache.partition_stats(),
        apc::CacheStats { hits: 0, misses: 3 }
    );
    assert_eq!(
        after_first.misses, summary.plans,
        "every plan cache miss is one lowered plan"
    );
    assert_eq!(
        summary.fallbacks, 0,
        "compiler-emitted programs must specialize"
    );
    assert!(summary.passes_after_fusion <= summary.passes_before_fusion);
    assert!(summary.passes_before_fusion > 0);

    // Same model and batch size again (plans are geometry-specific, and the
    // packed row count follows the batch size) with fresh inputs: zero new
    // plan compilations.
    let more: Vec<_> = (0..3)
        .map(|i| FunctionalBackend::input_for(&model, options.act_bits, 10 + i))
        .collect();
    let second = backend
        .run_batch(&model, &more, &cache)
        .expect("second batch");
    assert!(second.is_bit_exact());
    let after_second = cache.plan_stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "each distinct program must be lowered to a plan exactly once"
    );
    assert!(
        after_second.hits > after_first.hits,
        "reuse must hit the plan cache"
    );
    assert_eq!(
        after_second,
        apc::CacheStats {
            hits: 157,
            misses: 127
        }
    );
    assert_eq!(
        cache.partition_stats(),
        apc::CacheStats { hits: 3, misses: 3 }
    );
    assert_eq!(cache.plan_summary().plans, summary.plans);
}

#[test]
fn custom_backends_join_a_sweep_through_the_open_registry() {
    // A sweep point registered under a downstream-minted BackendId: the
    // default RTM-AP re-targeted to half the channel-group parallelism.
    let narrow = BackendPlan::custom("rtm-ap[narrow]", |spec| {
        let arch = ArchConfig {
            max_channel_groups: 1,
            ..spec.arch
        };
        Box::new(accel::NetworkSimulator::new(arch, spec.compiler_options()))
    });
    let mut backends = BackendPlan::standard();
    backends.push(narrow);
    let grid = SweepGrid::new()
        .workload(micro_cnn("micro-a", 8, 0.8, 1))
        .backends(backends);
    let session = Session::new();
    let results = session.run(&grid).expect("sweep");
    assert_eq!(results.records.len(), 5);
    let scenario = results.scenarios()[0].to_string();
    let narrow = results
        .get(&scenario, BackendId::new("rtm-ap[narrow]"))
        .expect("custom record");
    let standard = results.get(&scenario, BackendKind::RtmAp).expect("rtm-ap");
    assert!(narrow.latency_ms >= standard.latency_ms);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_grid_expansion_is_the_exact_product_with_no_duplicates(
        n_workloads in 1usize..4,
        n_bits in 1usize..3,
        n_geometries in 1usize..4,
        n_archs in 1usize..3,
    ) {
        let base = micro_cnn("micro", 4, 0.8, 1);
        let grid = SweepGrid::new()
            .workloads((0..n_workloads).map(|i| (format!("w{i}"), base.clone())))
            .act_bits((0..n_bits).map(|i| 4 + 2 * i as u8))
            .geometries((0..n_geometries).map(|i| CamGeometry {
                // Vary rows and domains so points that differ *only* in the
                // domain count still get distinct labels.
                rows: 128 << (i % 2),
                cols: 256,
                domains: 32 << (i / 2),
            }))
            .archs((0..n_archs).map(|i| ArchConfig {
                max_channel_groups: 4 + i,
                ..ArchConfig::default()
            }));
        let scenarios = grid.scenarios();
        prop_assert_eq!(grid.len(), n_workloads * n_bits * n_geometries * n_archs);
        prop_assert_eq!(scenarios.len(), grid.len());
        // No duplicate scenarios: every (workload, bits, geometry, arch) point
        // appears exactly once, and every label is unique.
        let mut points = HashSet::new();
        let mut labels = HashSet::new();
        for spec in &scenarios {
            points.insert((
                spec.workload.label.clone(),
                spec.act_bits,
                spec.arch.geometry,
                spec.arch.max_channel_groups,
            ));
            labels.insert(spec.label.clone());
        }
        prop_assert_eq!(points.len(), scenarios.len());
        prop_assert_eq!(labels.len(), scenarios.len());
    }
}
