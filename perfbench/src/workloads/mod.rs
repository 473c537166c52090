//! The three workloads. Each is set up, run and traced only through the
//! public functions of the repository's crates.

pub mod grid;
pub mod serving;
pub mod table2;

use ap::{ApEngine, Operand, PlanGeometry};
use apc::{CompileCache, LayerCompiler};
use cam::{BitPlaneArray, CamStats};
use camdnn::{ArchConfig, FunctionalBackend};
use std::time::Instant;
use tnn::model::ModelGraph;

/// The counters of `stats`, in field order, for output comparison.
pub(crate) fn stats_words(stats: &CamStats) -> [u64; 8] {
    [
        stats.search_cycles,
        stats.searched_bits,
        stats.write_cycles,
        stats.written_bits,
        stats.read_bits,
        stats.read_ops,
        stats.shifts,
        stats.io_written_bits,
    ]
}

/// The `cam.*` per-layer counts of `stats`.
pub(crate) fn cam_counts(stats: &CamStats) -> Vec<crate::Metric> {
    use crate::{Clock, Metric};
    vec![
        Metric::new(
            "cam.search_cycles",
            stats.search_cycles as f64,
            "count",
            Clock::Count,
        ),
        Metric::new(
            "cam.write_cycles",
            stats.write_cycles as f64,
            "count",
            Clock::Count,
        ),
        Metric::new(
            "cam.searched_bits",
            stats.searched_bits as f64,
            "count",
            Clock::Count,
        ),
        Metric::new(
            "cam.written_bits",
            stats.written_bits as f64,
            "count",
            Clock::Count,
        ),
    ]
}

/// Whether a plan replay's counters show it ran the same plans as an
/// execution. Written bits count the bits a write flips, so they depend on
/// the staged data; every other counter is data-independent.
pub(crate) fn same_plans(replayed: CamStats, executed: CamStats) -> bool {
    CamStats {
        written_bits: executed.written_bits,
        ..replayed
    } == executed
}

/// Re-executes the pass plans of one `run_batch` of `batch` samples outside
/// it: every partition unit of every weighted layer gets a fresh engine (on
/// the default architecture's CAM technology), staged with
/// synthetic operands as in the engine microbenchmark, and runs the
/// cached plans of its prologue and slice programs in the operation's
/// order. Returns the milliseconds spent in `ApEngine::run_plan` and the
/// engines' counters (compare them with [`same_plans`]).
pub(crate) fn replay_plans(
    backend: &FunctionalBackend,
    model: &ModelGraph,
    cache: &CompileCache,
    batch: usize,
) -> Result<(f64, CamStats), String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let options = *backend.compiler_options();
    let compiler = LayerCompiler::new(options);
    let tech = ArchConfig::default().cam_tech;
    let mut run_plan_ms = 0.0;
    let mut stats = CamStats::new();
    for info in model.conv_like_layers() {
        let compiled = cache.compile(&compiler, &info).map_err(|e| err(&e))?;
        let layout = &compiled.layout;
        let slices = compiled
            .slices
            .as_ref()
            .ok_or("layer compiled without programs")?;
        let plan = cache
            .partition(&info, &options, backend.tile_grid())
            .map_err(|e| err(&e))?;
        for unit in &plan.units {
            let rows = unit.rows.len();
            let mut array = BitPlaneArray::new(
                rows * batch,
                layout.geometry.cols,
                layout.geometry.domains,
                tech,
            )
            .map_err(|e| err(&e))?;
            array.track_segments(rows).map_err(|e| err(&e))?;
            let mut engine = ApEngine::new(array);
            let geometry = PlanGeometry::of(engine.array());
            let prologue = apc::codegen::tile_prologue(layout, unit.outputs.len());
            let prologue = cache.plan(&prologue, geometry);
            let start = Instant::now();
            engine.run_plan(&prologue).map_err(|e| err(&e))?;
            run_plan_ms += crate::measure::ms_since(start);
            for slice in slices
                .iter()
                .filter(|s| s.tile == unit.col_split && unit.channels.contains(&s.channel))
            {
                for k in 0..layout.patch_size {
                    let values: Vec<i64> = (0..rows * batch)
                        .map(|row| (row as i64 * 7 + k as i64) % (1 << layout.act_bits))
                        .collect();
                    let operand = Operand::new(
                        k,
                        layout.channel_domain_base(slice.channel_in_group),
                        layout.act_bits,
                        false,
                    );
                    engine.load_column(&operand, &values).map_err(|e| err(&e))?;
                }
                let plan = cache.plan(&slice.program, geometry);
                let start = Instant::now();
                engine.run_plan(&plan).map_err(|e| err(&e))?;
                run_plan_ms += crate::measure::ms_since(start);
            }
            for output in 0..unit.outputs.len() {
                let acc = Operand::new(layout.acc_col_start + output, 0, layout.acc_bits, true);
                engine.read_column(&acc).map_err(|e| err(&e))?;
            }
            stats += engine.stats();
        }
    }
    Ok((run_plan_ms, stats))
}
