use crate::{ArchConfig, EnergyBreakdown, LatencyBreakdown, LayerReport, NetworkReport};
use apc::{CompiledLayer, CompilerOptions, LayerCompiler};
use rtm::endurance::{column_rewrite_interval_ns, EnduranceReport};
use tnn::model::ModelGraph;

/// The analytical performance/energy model of the RTM-AP accelerator.
///
/// One [`CompiledLayer`] is mapped onto `row_groups × channel_groups` APs: output
/// positions spread over row groups, input channels over channel groups, and output
/// channels over sequential tiles inside each AP. The channel-wise DFG phase runs the
/// compiled slice programs; the accumulation phase merges the per-group partial sums
/// through an adder tree and fuses the activation function; the interconnect carries
/// the partial sums and the boundary regions of the output feature map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorModel {
    config: ArchConfig,
}

impl AcceleratorModel {
    /// Creates a model with the given configuration.
    pub fn new(config: ArchConfig) -> Self {
        AcceleratorModel { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// Simulates one compiled layer and returns its report.
    pub fn simulate_layer(&self, layer: &CompiledLayer) -> LayerReport {
        let cfg = &self.config;
        let tech = &cfg.cam_tech;
        let layout = &layer.layout;
        let stats = &layer.stats;
        // Active rows across all row groups: one per output position.
        let active_rows = layer.output_positions as u64;
        let rows = active_rows as f64;
        // Channel groups beyond the configured limit stay resident in the same AP
        // (additional patch column sets) and run sequentially, so only
        // `effective_channel_groups` APs exchange partial sums.
        let effective_channel_groups = layout
            .channel_groups
            .clamp(1, cfg.max_channel_groups.max(1));
        let channel_groups = effective_channel_groups as f64;
        let row_groups = layout.row_groups.max(1) as f64;

        // --- Channel-wise DFG phase -------------------------------------------------
        // Searches and writes over every active row; the controller is priced
        // per AP below.
        let dfg = stats.dfg.priced(tech, active_rows);
        let dfg_energy = dfg.search_fj + dfg.write_fj;
        // Each slice's cycles execute in every row-group copy of its channel group.
        let controller_energy = stats.total_cycles as f64
            * row_groups
            * (tech.controller_energy_per_cycle_fj + cfg.instruction_overhead_fj);
        // Channel groups work in parallel; output tiles and resident channels are
        // sequential inside one AP (already part of the per-slice totals).
        let dfg_latency =
            stats.dfg.compute_cycles() as f64 / channel_groups * tech.search_latency_ns;

        // --- Local accumulation (inside each AP) ------------------------------------
        let local_acc = stats.accumulation.priced(tech, active_rows);
        let local_acc_energy = local_acc.search_fj + local_acc.write_fj;
        let local_acc_latency =
            stats.accumulation.compute_cycles() as f64 / channel_groups * tech.search_latency_ns;

        // --- Cross-AP accumulation (adder tree over channel groups) -----------------
        let merges = (effective_channel_groups.saturating_sub(1)) as f64;
        let final_bits = layout.final_acc_bits as f64;
        // One in-place addition of `final_bits` per output channel per merge, SIMD
        // over the rows: 4 passes (8 cycles) per bit, 3 key bits searched and ~1 bit
        // written per row per pass.
        let merge_add_energy = merges
            * layer.cout as f64
            * final_bits
            * 4.0
            * rows
            * (3.0 * tech.search_energy_per_bit_fj + tech.write_energy_per_bit_fj);
        // The adder tree halves the number of partial sums per level, so the latency
        // is the per-level work times the tree depth, not the total merge count.
        let tree_depth = (effective_channel_groups as f64).log2().ceil().max(0.0);
        let merge_latency = if merges > 0.0 {
            layer.cout as f64 * final_bits * 8.0 * tree_depth * tech.search_latency_ns
        } else {
            0.0
        };
        // Activation fusion and requantisation of the finished outputs.
        let requant_cycles = layer.cout as f64 * 2.0 * layout.act_bits as f64;
        let requant_energy =
            layer.cout as f64 * rows * layout.act_bits as f64 * tech.write_energy_per_bit_fj;
        let accumulation_energy = local_acc_energy + merge_add_energy + requant_energy;
        let accumulation_latency =
            local_acc_latency + merge_latency + requant_cycles * tech.search_latency_ns;

        // --- Data movement -----------------------------------------------------------
        let psum_bits = cfg.psum_transfer_bits.map(f64::from).unwrap_or(final_bits);
        let psum_transfer_bits = merges * layer.cout as f64 * rows * psum_bits;
        let ofm_bits = layer.cout as f64 * rows * layout.act_bits as f64;
        let redistribution_bits = ofm_bits * cfg.ofm_redistribution_fraction;
        let interconnect_bits = psum_transfer_bits + redistribution_bits;
        // Partial sums hop between adjacent APs of the same tile (short wires);
        // only the redistributed OFM boundary travels over the tile/bank/global
        // interconnect at the conservative 1 pJ/bit.
        let data_movement_energy = (psum_transfer_bits * cfg.intra_tile_pj_per_bit
            + redistribution_bits * cfg.interconnect_pj_per_bit)
            * 1e3; // pJ -> fJ
        let parallel_links = (channel_groups / 2.0).max(1.0) * row_groups;
        let data_movement_latency =
            interconnect_bits / cfg.interconnect_bits_per_ns / parallel_links;

        // --- Peripherals --------------------------------------------------------------
        // Controller/instruction cache plus the sense-amplifier energy of staging the
        // input activations and reading out the finished outputs.
        let staging_bits = stats.dfg.io_written_bits as f64 * rows + ofm_bits;
        let peripherals_energy = controller_energy + staging_bits * tech.read_energy_per_bit_fj;

        LayerReport {
            name: layer.name.clone(),
            energy: EnergyBreakdown {
                dfg_fj: dfg_energy,
                accumulation_fj: accumulation_energy,
                peripherals_fj: peripherals_energy,
                data_movement_fj: data_movement_energy,
            },
            latency: LatencyBreakdown {
                dfg_ns: dfg_latency,
                accumulation_ns: accumulation_latency,
                data_movement_ns: data_movement_latency,
            },
            arrays: layout.row_groups,
            parallel_aps: layout.parallel_aps(),
            adds_subs: stats.counted_adds_subs,
            row_utilization: layout.row_utilization(),
            interconnect_bits: interconnect_bits as u64,
        }
    }

    /// Write-endurance estimate under the execution model of §V-C: at most two
    /// columns are written per operation, execution is spread over the array columns,
    /// and each search/write pass takes one cycle.
    pub fn endurance(&self, total_latency_ns: f64, total_cycles: u64) -> EnduranceReport {
        let op_latency = if total_cycles == 0 {
            self.config.cam_tech.pass_latency_ns()
        } else {
            (total_latency_ns / total_cycles as f64).max(self.config.cam_tech.search_latency_ns)
        };
        let interval = column_rewrite_interval_ns(self.config.geometry.cols, 2.0, op_latency * 8.0);
        EnduranceReport::from_write_interval(&self.config.rtm_tech, interval)
    }
}

/// End-to-end simulation: compiles every weighted layer of a model and runs the
/// accelerator model over it.
///
/// # Example
///
/// ```
/// use accel::{ArchConfig, NetworkSimulator};
/// use apc::CompilerOptions;
/// use tnn::model::vgg9;
///
/// let simulator = NetworkSimulator::new(ArchConfig::default(), CompilerOptions::default());
/// let report = simulator.simulate(&vgg9(0.9, 1)).expect("simulate");
/// assert!(report.energy_uj() > 0.0);
/// assert_eq!(report.arrays(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkSimulator {
    arch: ArchConfig,
    compiler: CompilerOptions,
}

impl NetworkSimulator {
    /// Creates a simulator from an architecture configuration and compiler options.
    pub fn new(arch: ArchConfig, compiler: CompilerOptions) -> Self {
        NetworkSimulator { arch, compiler }
    }

    /// The architecture configuration.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// The compiler options.
    pub fn compiler_options(&self) -> &CompilerOptions {
        &self.compiler
    }

    /// Compiles and simulates every weighted layer of `model`.
    ///
    /// Layer compilation — the hot path — runs in parallel through
    /// [`LayerCompiler::compile_model`]; the per-layer accelerator reports are
    /// then derived in network order, so the result is deterministic and
    /// independent of the rayon worker count.
    ///
    /// # Errors
    ///
    /// Propagates compilation errors (for example a layer that cannot be placed on
    /// the configured geometry).
    pub fn simulate(&self, model: &ModelGraph) -> apc::Result<NetworkReport> {
        let compiler = LayerCompiler::new(self.compiler);
        let compiled = compiler.compile_model(model)?;
        let layers: Vec<&CompiledLayer> = compiled.iter().collect();
        Ok(self.report_from(model.name(), &layers))
    }

    /// Simulates a model whose layers were already compiled — typically through
    /// a shared [`apc::CompileCache`] so sweeps over accelerator configurations
    /// do not recompile identical layers per scenario.
    ///
    /// `compiled` must hold the model's weighted layers in network order,
    /// compiled with this simulator's [`compiler_options`](Self::compiler_options);
    /// the result is then byte-identical to [`simulate`](Self::simulate).
    pub fn simulate_precompiled(
        &self,
        model: &ModelGraph,
        compiled: &[std::sync::Arc<CompiledLayer>],
    ) -> NetworkReport {
        let layers: Vec<&CompiledLayer> = compiled.iter().map(|c| c.as_ref()).collect();
        self.report_from(model.name(), &layers)
    }

    /// Shared report assembly: both [`simulate`](Self::simulate) and
    /// [`simulate_precompiled`](Self::simulate_precompiled) fold the per-layer
    /// reports in network order, so the two paths are bit-identical.
    fn report_from(&self, name: &str, compiled: &[&CompiledLayer]) -> NetworkReport {
        let accelerator = AcceleratorModel::new(self.arch);
        let total_cycles: u64 = compiled.iter().map(|c| c.stats.total_cycles).sum();
        let layers: Vec<LayerReport> = compiled
            .iter()
            .map(|c| accelerator.simulate_layer(c))
            .collect();
        let total_latency: f64 = layers.iter().map(|l| l.latency.total_ns()).sum();
        let endurance = accelerator.endurance(total_latency, total_cycles);
        NetworkReport {
            name: name.to_string(),
            act_bits: self.compiler.act_bits,
            cse: self.compiler.enable_cse,
            layers,
            endurance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnn::model::vgg9;

    fn simulate(act_bits: u8, cse: bool, sparsity: f64) -> NetworkReport {
        let options = CompilerOptions {
            act_bits,
            enable_cse: cse,
            ..CompilerOptions::default()
        };
        NetworkSimulator::new(ArchConfig::default(), options)
            .simulate(&vgg9(sparsity, 2))
            .expect("simulate")
    }

    #[test]
    fn vgg9_occupies_four_arrays() {
        let report = simulate(4, true, 0.9);
        assert_eq!(report.arrays(), 4);
        assert_eq!(report.layers.len(), 9);
        assert!(report.energy_uj() > 0.0);
        assert!(report.latency_ms() > 0.0);
    }

    #[test]
    fn cse_improves_energy_and_latency() {
        let with_cse = simulate(4, true, 0.9);
        let without = simulate(4, false, 0.9);
        assert!(with_cse.energy_uj() < without.energy_uj());
        assert!(with_cse.latency_ms() <= without.latency_ms() * 1.001);
        assert!(with_cse.adds_subs_k() < without.adds_subs_k());
    }

    #[test]
    fn four_bit_activations_beat_eight_bit() {
        let four = simulate(4, true, 0.9);
        let eight = simulate(8, true, 0.9);
        assert!(four.energy_uj() < eight.energy_uj());
        assert!(four.latency_ms() < eight.latency_ms());
    }

    #[test]
    fn higher_sparsity_means_fewer_adds_and_less_energy() {
        let sparse = simulate(4, true, 0.9);
        let dense = simulate(4, true, 0.85);
        assert!(sparse.adds_subs_k() < dense.adds_subs_k());
        assert!(sparse.energy_uj() < dense.energy_uj());
    }

    #[test]
    fn data_movement_is_a_minority_share() {
        // The paper reports 3% for ResNet-18; our accounting is more conservative,
        // but data movement must stay well below the 41%
        // interconnect share of the crossbar baseline.
        let report = simulate(4, true, 0.9);
        let share = report.data_movement_share();
        assert!(share < 0.41, "data movement share {share}");
        assert!(share > 0.0);
    }

    #[test]
    fn endurance_exceeds_a_decade() {
        let report = simulate(4, true, 0.9);
        assert!(
            report.endurance.lifetime_years > 10.0,
            "lifetime {}",
            report.endurance.lifetime_years
        );
    }

    #[test]
    fn deep_small_layers_have_lower_row_utilization() {
        let report = simulate(4, true, 0.9);
        let first = &report.layers[0];
        let late_conv = &report.layers[5];
        assert!(late_conv.row_utilization <= first.row_utilization);
    }
}
