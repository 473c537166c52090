use accel::NetworkReport;
use baseline::{CrossbarReport, DeepCamReport};
use serde::{Deserialize, Serialize};

/// The combined result of running the full stack and the baselines on one
/// scenario, as assembled by [`ResultSet::pipeline`](crate::ResultSet::pipeline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// RTM-AP result (compiled with the configured options).
    pub rtm_ap: NetworkReport,
    /// RTM-AP result compiled without CSE (the `unroll` configuration), for the
    /// ablation columns of Table II and Fig. 4.
    pub rtm_ap_unroll: NetworkReport,
    /// DNN+NeuroSim-style crossbar baseline.
    pub crossbar: CrossbarReport,
    /// DeepCAM-style baseline.
    pub deepcam: DeepCamReport,
    /// Overall weight sparsity of the model.
    pub sparsity: f64,
}

impl PipelineReport {
    /// Energy-efficiency improvement of the RTM-AP over the crossbar baseline
    /// (inferences per joule ratio — the paper's headline 7.5× combines the energy
    /// gain with the retained accuracy).
    pub fn energy_improvement(&self) -> f64 {
        self.crossbar.energy_uj() / self.rtm_ap.energy_uj().max(f64::MIN_POSITIVE)
    }

    /// Latency improvement of the RTM-AP over the crossbar baseline.
    pub fn latency_improvement(&self) -> f64 {
        self.crossbar.latency_ms() / self.rtm_ap.latency_ms().max(f64::MIN_POSITIVE)
    }

    /// Reduction in add/sub instructions achieved by CSE relative to `unroll`.
    pub fn cse_reduction(&self) -> f64 {
        let unroll = self.rtm_ap_unroll.adds_subs_k();
        if unroll <= 0.0 {
            0.0
        } else {
            1.0 - self.rtm_ap.adds_subs_k() / unroll
        }
    }

    /// A Table II-style row: network, sparsity, energy, latency, arrays and op counts.
    pub fn table_row(&self) -> String {
        format!(
            "{name:<20} sp={sparsity:.2} act={bits}b | E={energy:8.2} uJ  L={latency:7.3} ms  arrays={arrays:3} | adds(unroll)={unroll:8.0}K adds(+CSE)={cse:8.0}K | xbar: E={xe:8.2} uJ L={xl:7.3} ms",
            name = self.rtm_ap.name,
            sparsity = self.sparsity,
            bits = self.rtm_ap.act_bits,
            energy = self.rtm_ap.energy_uj(),
            latency = self.rtm_ap.latency_ms(),
            arrays = self.rtm_ap.arrays(),
            unroll = self.rtm_ap_unroll.adds_subs_k(),
            cse = self.rtm_ap.adds_subs_k(),
            xe = self.crossbar.energy_uj(),
            xl = self.crossbar.latency_ms(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::experiment::{Session, SweepGrid};
    use tnn::model::vgg9;

    #[test]
    fn pipeline_produces_consistent_reports() {
        let results = Session::new()
            .run(&SweepGrid::new().workload(vgg9(0.9, 5)))
            .expect("session");
        let report = results
            .pipeline(results.scenarios()[0])
            .expect("pipeline view");
        assert!(report.rtm_ap.energy_uj() > 0.0);
        assert!(report.rtm_ap_unroll.adds_subs_k() >= report.rtm_ap.adds_subs_k());
        assert!(report.cse_reduction() >= 0.0);
        assert!(report.energy_improvement() > 0.0);
        assert!(report.latency_improvement() > 0.0);
        assert!((report.sparsity - 0.9).abs() < 0.02);
        let row = report.table_row();
        assert!(row.contains("vgg9"));
        assert!(row.contains("uJ"));
    }
}
