//! Integration test: the trait-based evaluation stack is a pure refactor.
//!
//! A `Session` dispatches through `InferenceBackend` trait objects and
//! compiles layers in parallel; these tests pin down that the
//! `ResultSet::pipeline` view of each scenario is **bit-identical** to
//! direct concrete-type evaluation, and that parallel layer compilation
//! matches sequential compilation exactly. CI additionally runs this test
//! file with `RAYON_NUM_THREADS=1` to prove the results are independent of
//! the worker count.

use accel::{ArchConfig, NetworkSimulator};
use apc::{CompilerOptions, LayerCompiler};
use baseline::{CrossbarModel, DeepCamModel};
use camdnn::experiment::{BackendPlan, Session, SweepGrid};
use camdnn::{BackendKind, BackendReport, InferenceBackend};
use tnn::model::{vgg11, vgg9};

#[test]
fn pipeline_reports_match_direct_backend_calls_bit_for_bit() {
    let model = vgg9(0.9, 2);
    let grid = SweepGrid::new().workload(model.clone()).act_bits([4, 8]);
    let results = Session::new().run(&grid).expect("session");
    for spec in grid.scenarios() {
        let act_bits = spec.act_bits;
        let report = results.pipeline(&spec.label).expect("pipeline view");

        let arch = ArchConfig::default();
        let with_cse = CompilerOptions::default().with_act_bits(act_bits);
        let unroll = CompilerOptions {
            enable_cse: false,
            ..with_cse
        };
        let direct_cse = NetworkSimulator::new(arch, with_cse)
            .simulate(&model)
            .expect("simulate cse");
        let direct_unroll = NetworkSimulator::new(arch, unroll)
            .simulate(&model)
            .expect("simulate unroll");
        let direct_crossbar = CrossbarModel::default().evaluate(&model, act_bits);
        let direct_deepcam = DeepCamModel::default().evaluate(&model);

        // Energy/latency are f64 sums: equality only holds if the refactor
        // preserved evaluation order exactly, which is the point.
        assert_eq!(report.rtm_ap, direct_cse, "{act_bits}-bit rtm-ap");
        assert_eq!(
            report.rtm_ap_unroll, direct_unroll,
            "{act_bits}-bit rtm-ap unroll"
        );
        assert_eq!(report.crossbar, direct_crossbar, "{act_bits}-bit crossbar");
        assert_eq!(report.deepcam, direct_deepcam, "{act_bits}-bit deepcam");
    }
}

#[test]
fn parallel_layer_compilation_matches_sequential_exactly() {
    for options in [CompilerOptions::default(), CompilerOptions::unroll_only()] {
        let model = vgg11(0.85, 3);
        let compiler = LayerCompiler::new(options);
        let parallel = compiler.compile_model(&model).expect("parallel compile");
        let sequential: Vec<_> = model
            .conv_like_layers()
            .iter()
            .map(|layer| compiler.compile(layer).expect("sequential compile"))
            .collect();
        assert_eq!(parallel, sequential);
    }
}

#[test]
fn trait_object_dispatch_equals_inherent_calls() {
    let model = vgg9(0.85, 5);
    let backends: Vec<Box<dyn InferenceBackend>> = vec![
        Box::new(NetworkSimulator::new(
            ArchConfig::default(),
            CompilerOptions::default(),
        )),
        Box::new(CrossbarModel::default().with_act_bits(4)),
        Box::new(DeepCamModel::default()),
    ];
    for backend in &backends {
        let report = backend.evaluate(&model).expect("evaluate");
        assert!(report.energy_uj() > 0.0, "{}", backend.name());
        assert!(report.latency_ms() > 0.0, "{}", backend.name());
        assert_eq!(report.network(), "vgg9");
    }
    let direct = CrossbarModel::default().evaluate(&model, 4);
    let via_trait = backends[1].evaluate(&model).expect("crossbar");
    assert_eq!(via_trait, BackendReport::Crossbar(direct));
}

#[test]
fn registry_is_extensible_with_custom_backends() {
    /// A sweep point: the default RTM-AP at a different activation precision.
    struct EightBit;

    impl InferenceBackend for EightBit {
        fn name(&self) -> String {
            "rtm-ap-sweep[8b]".to_string()
        }

        fn evaluate(&self, model: &tnn::model::ModelGraph) -> apc::Result<BackendReport> {
            NetworkSimulator::new(
                ArchConfig::default(),
                CompilerOptions::default().with_act_bits(8),
            )
            .simulate(model)
            .map(BackendReport::RtmAp)
        }
    }

    let mut backends = BackendPlan::standard();
    assert_eq!(backends.len(), 4);
    // The id space is open: downstream code mints its own key instead of
    // extending a closed enum.
    backends.push(BackendPlan::custom("rtm-ap-sweep[8b]", |_| {
        Box::new(EightBit)
    }));
    let grid = SweepGrid::new().workload(vgg9(0.9, 2)).backends(backends);
    let results = Session::new().run(&grid).expect("evaluate");
    let records = &results.records;
    assert_eq!(records.len(), 5);
    assert_eq!(records[0].backend, BackendKind::RtmAp.id());
    assert_eq!(records[4].backend.as_str(), "rtm-ap-sweep[8b]");
    // The sweep point costs more energy than the 4-bit default it extends.
    assert!(records[4].energy_uj > records[0].energy_uj);
}
