//! Integration test: the full stack (model → compiler → accelerator → baselines)
//! reproduces the qualitative results of the paper's evaluation on CIFAR-scale
//! networks (ImageNet-scale runs live in the benchmark binaries).

use camdnn::experiment::{Session, SweepGrid, Workload};
use camdnn::PipelineReport;
use tnn::model::{vgg11, vgg9, ModelGraph};
use tnn::train::accuracy_experiment;

/// The Table II view of every scenario of a one-session sweep over
/// `workloads` × `act_bits`, in expansion order.
fn pipelines<W: Into<Workload>>(
    workloads: impl IntoIterator<Item = W>,
    act_bits: impl IntoIterator<Item = u8>,
) -> Vec<PipelineReport> {
    let results = Session::new()
        .run(&SweepGrid::new().workloads(workloads).act_bits(act_bits))
        .expect("session");
    results
        .scenarios()
        .into_iter()
        .map(|scenario| results.pipeline(scenario).expect("pipeline view"))
        .collect()
}

/// The Table II view of `model` at the default 4-bit precision.
fn pipeline(model: ModelGraph) -> PipelineReport {
    pipelines([model], [4]).remove(0)
}

#[test]
fn vgg9_beats_the_crossbar_baseline_on_energy() {
    let report = pipeline(vgg9(0.9, 2));
    assert!(
        report.energy_improvement() > 1.0,
        "RTM-AP should use less energy than the crossbar baseline (got {:.2}x)",
        report.energy_improvement()
    );
    assert_eq!(
        report.rtm_ap.arrays(),
        4,
        "VGG on CIFAR-10 needs 4 arrays of 256 rows"
    );
}

#[test]
fn four_bit_is_the_efficiency_sweet_spot() {
    let [four, eight]: [PipelineReport; 2] = pipelines([vgg9(0.9, 2)], [4, 8])
        .try_into()
        .expect("two scenarios");
    assert_eq!((four.rtm_ap.act_bits, eight.rtm_ap.act_bits), (4, 8));
    assert!(four.rtm_ap.energy_uj() < eight.rtm_ap.energy_uj());
    assert!(four.rtm_ap.latency_ms() < eight.rtm_ap.latency_ms());
}

#[test]
fn higher_sparsity_reduces_ops_energy_and_latency() {
    let [sparse, dense]: [PipelineReport; 2] =
        pipelines([("sparse", vgg11(0.9, 2)), ("dense", vgg11(0.85, 2))], [4])
            .try_into()
            .expect("two scenarios");
    assert!(sparse.rtm_ap.adds_subs_k() < dense.rtm_ap.adds_subs_k());
    assert!(sparse.rtm_ap.energy_uj() < dense.rtm_ap.energy_uj());
}

#[test]
fn cse_reduction_is_visible_end_to_end() {
    let report = pipeline(vgg9(0.85, 2));
    assert!(
        report.cse_reduction() > 0.05,
        "CSE reduction {:.3}",
        report.cse_reduction()
    );
    assert!(report.rtm_ap.energy_uj() <= report.rtm_ap_unroll.energy_uj());
}

#[test]
fn data_movement_share_is_far_below_the_crossbar_interconnect_share() {
    let report = pipeline(vgg9(0.9, 2));
    // The crossbar baseline spends 41% of its energy on communication (§V-C).
    assert!(report.rtm_ap.data_movement_share() < 0.41);
}

#[test]
fn endurance_estimate_is_in_the_decades() {
    let report = pipeline(vgg9(0.9, 2));
    assert!(report.rtm_ap.endurance.lifetime_years > 10.0);
}

#[test]
fn quantized_accuracy_tracks_full_precision_on_the_synthetic_task() {
    let columns = accuracy_experiment(5).expect("accuracy experiment");
    assert!(columns.fp > 0.85);
    assert!(columns.q8 >= columns.fp - 0.15);
    assert!(columns.q4 >= columns.fp - 0.20);
    // The exported graph (scored batch-wise via `tnn::infer::run_batch`)
    // must clearly beat chance on the 3-class task.
    assert!(columns.graph4 > 0.5, "graph accuracy {}", columns.graph4);
}
