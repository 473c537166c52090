//! Shared helpers for the experiment-regeneration binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in `src/bin/` that
//! prints the corresponding rows or series; README "Baselines and the accuracy
//! substitute" indexes them and states what the baselines rest on. The binaries declare
//! their configuration grids with [`camdnn::experiment::SweepGrid`] and execute
//! them through a shared [`camdnn::experiment::Session`]; `--json <path>` dumps
//! the raw [`ResultSet`] as JSON lines (schema: `BENCH_schema.md`).

#![warn(missing_docs)]

use camdnn::experiment::{ResultSet, ScenarioRecord};
use camdnn::{BackendKind, PipelineReport};
use serde::Serialize;
use std::path::{Path, PathBuf};

pub mod cli;

pub use cli::BenchCli;

/// Pairs every scenario of `results` with its RTM-AP record and the legacy
/// [`PipelineReport`] view — the shape the table/figure printers consume.
///
/// Scenarios without all four standard backends are skipped.
pub fn scenario_views(results: &ResultSet) -> Vec<(&ScenarioRecord, PipelineReport)> {
    results
        .scenarios()
        .into_iter()
        .filter_map(|scenario| {
            let record = results.get(scenario, BackendKind::RtmAp)?;
            Some((record, results.pipeline(scenario)?))
        })
        .collect()
}

/// True when `BENCH_SMOKE` is set (non-empty, not `0`): the speedup benches
/// shrink their iteration counts so CI can smoke the full measurement and
/// record-emission path in seconds instead of minutes.
pub fn bench_smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The workspace root (two levels above this crate's manifest), where the
/// dated `BENCH_*.json` trajectory files live.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

/// Today's UTC date as `YYYY-MM-DD`, without a date-time dependency: days
/// since the Unix epoch converted to a civil date with the standard
/// era/year-of-era decomposition of the proleptic Gregorian calendar.
pub fn utc_date_string() -> String {
    let seconds = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before 1970")
        .as_secs() as i64;
    let (year, month, day) = civil_from_days(seconds.div_euclid(86_400));
    format!("{year:04}-{month:02}-{day:02}")
}

/// Days-since-epoch to `(year, month, day)` (Gregorian, valid across eras).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = yoe + era * 400 + i64::from(month <= 2);
    (year, month, day)
}

/// Appends `record` as one JSON line to `file_name` at the workspace root.
///
/// The speedup benches call this to persist their perf trajectory
/// (`BENCH_engine.json`, `BENCH_throughput.json`; schema: `BENCH_schema.md`)
/// — one dated record per run, appended so the history accumulates.
///
/// # Panics
///
/// Panics when the record cannot be serialized or the file cannot be written;
/// the benches treat both as fatal.
pub fn append_bench_record<T: Serialize>(file_name: &str, record: &T) {
    use std::io::Write;
    let path = repo_root().join(file_name);
    let line = serde_json::to_string(record).expect("serialize bench record");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .expect("open bench record file");
    writeln!(file, "{line}").expect("append bench record");
    eprintln!("appended bench record to {}", path.display());
}

/// The smallest and largest of a set of timing samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SampleRange {
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// The median and range of an odd number of samples (the speedup benches
/// gate on the median of their interleaved timing rounds).
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn median_and_range(samples: impl IntoIterator<Item = f64>) -> (f64, SampleRange) {
    let mut sorted: Vec<f64> = samples.into_iter().collect();
    sorted.sort_by(f64::total_cmp);
    let range = SampleRange {
        min: sorted[0],
        max: sorted[sorted.len() - 1],
    };
    (sorted[sorted.len() / 2], range)
}

/// One dated `BENCH_engine.json` record: the two engine acceptance ratios
/// (scalar→interpreter, interpreter→plan) plus the plan compiler's fusion
/// and cache statistics (schema: `BENCH_schema.md`).
#[derive(Debug, Clone, Serialize)]
pub struct EngineBenchRecord {
    /// UTC date the record was measured (`YYYY-MM-DD`).
    pub date: String,
    /// Record discriminator, always `"engine"`.
    pub bench: String,
    /// `ApController` over the scalar `cam::CamArray`: wall-clock per
    /// work-list iteration, ms (median over `rounds`, as are the four fields
    /// below).
    pub scalar_ms_per_iter: f64,
    /// Interpreter `ApEngine::run` wall-clock per iteration, ms.
    pub interpreter_ms_per_iter: f64,
    /// Compiled-plan `ApEngine::run_plan` wall-clock per iteration, ms.
    pub plan_ms_per_iter: f64,
    /// scalar / interpreter ratio (the ≥20× bit-plane acceptance figure).
    pub engine_speedup: f64,
    /// interpreter / plan ratio (the ≥3× pass-plan acceptance figure).
    pub plan_speedup: f64,
    /// True when measured under `BENCH_SMOKE` iteration counts.
    pub smoke: bool,
    /// Plan cache and fusion statistics of the measured work list.
    pub plan_cache: apc::PlanSummary,
    /// Interleaved timing rounds the medians and ranges are taken over.
    pub rounds: usize,
    /// Min and max of the per-round scalar timings, ms.
    pub scalar_ms_range: SampleRange,
    /// Min and max of the per-round interpreter timings, ms.
    pub interpreter_ms_range: SampleRange,
    /// Min and max of the per-round plan timings, ms.
    pub plan_ms_range: SampleRange,
    /// Min and max of the per-round scalar / interpreter ratios.
    pub engine_speedup_range: SampleRange,
    /// Min and max of the per-round interpreter / plan ratios.
    pub plan_speedup_range: SampleRange,
}

/// One dated `BENCH_throughput.json` record: wall-clock and modeled batched
/// throughput next to the plan cache statistics of the shared compile cache
/// (schema: `BENCH_schema.md`).
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputBenchRecord {
    /// UTC date the record was measured (`YYYY-MM-DD`).
    pub date: String,
    /// Record discriminator, always `"throughput"`.
    pub bench: String,
    /// Samples per packed batch.
    pub batch: usize,
    /// Wall-clock samples/s of the sequential (batch-of-one) baseline
    /// (median over `rounds`, as are the two fields below).
    pub sequential_samples_per_s: f64,
    /// Wall-clock samples/s of the batched path.
    pub batched_samples_per_s: f64,
    /// batched / sequential samples-per-second ratio (the ≥2× figure).
    pub batch_speedup: f64,
    /// Hardware-model throughput of the batched report.
    pub modeled_samples_per_s: f64,
    /// Hardware-model energy per sample of the batched report.
    pub joules_per_sample: f64,
    /// True when measured under `BENCH_SMOKE` iteration counts.
    pub smoke: bool,
    /// Plan cache and fusion statistics of the shared compile cache.
    pub plan_cache: apc::PlanSummary,
    /// Interleaved timing rounds the medians and ranges are taken over.
    pub rounds: usize,
    /// Min and max of the per-round sequential samples/s.
    pub sequential_samples_per_s_range: SampleRange,
    /// Min and max of the per-round batched samples/s.
    pub batched_samples_per_s_range: SampleRange,
    /// Min and max of the per-round batched / sequential ratios.
    pub batch_speedup_range: SampleRange,
}

/// One dated `BENCH_partition.json` record: modeled samples/s of the
/// multi-tile partitioned execution across a ladder of tile grids, the
/// speedup of the largest grid over the single-tile run, and the traffic the
/// partitioning paid for it (schema: `BENCH_schema.md`).
#[derive(Debug, Clone, Serialize)]
pub struct PartitionBenchRecord {
    /// UTC date the record was measured (`YYYY-MM-DD`).
    pub date: String,
    /// Record discriminator, always `"partition"`.
    pub bench: String,
    /// Workload label of the measured model.
    pub workload: String,
    /// Activation precision, in bits.
    pub act_bits: u8,
    /// Tile-grid labels of the ladder, e.g. `["1x1", "2x2", "4x4"]`.
    pub grids: Vec<String>,
    /// Modeled samples/s per grid, aligned with `grids`.
    pub modeled_samples_per_s: Vec<f64>,
    /// Largest-grid / single-tile modeled samples/s ratio (the scaling
    /// acceptance figure).
    pub modeled_speedup: f64,
    /// Tiles that received at least one unit on the largest grid.
    pub tiles_used: usize,
    /// Inter-tile operand traffic of the largest grid, in bits.
    pub traffic_bits: u64,
    /// Traffic weighted by Manhattan hop distance, in bit-hops.
    pub traffic_bit_hops: u64,
    /// True when measured under `BENCH_SMOKE` iteration counts.
    pub smoke: bool,
    /// Partition-plan cache counters of the shared compile cache.
    pub partition_cache: apc::CacheStats,
}

/// One dated `BENCH_serve.json` record of the fleet sweep: the pareto
/// frontier over SLO attainment vs joules/sample, the pipelining speedup of
/// the deepest shard cut, and the scaling high-water mark (schema:
/// `BENCH_schema.md`).
#[derive(Debug, Clone, Serialize)]
pub struct FleetBenchRecord {
    /// UTC date the record was measured (`YYYY-MM-DD`).
    pub date: String,
    /// Record discriminator, always `"fleet"`.
    pub bench: String,
    /// Workload label of the served model.
    pub workload: String,
    /// Scenarios the sweep expanded to.
    pub scenarios: usize,
    /// Scenario labels of the pareto frontier, in expansion order.
    pub pareto_scenarios: Vec<String>,
    /// SLO attainment per frontier point, aligned with `pareto_scenarios`.
    pub pareto_slo_attainment: Vec<f64>,
    /// Joules/sample per frontier point, aligned with `pareto_scenarios`.
    pub pareto_joules_per_sample: Vec<f64>,
    /// Deepest-cut / single-stage modeled samples/s ratio at saturating
    /// fixed-fleet load (the pipelining acceptance figure).
    pub pipeline_speedup: f64,
    /// Largest provisioned replica count any scenario reached.
    pub peak_replicas: usize,
    /// Largest provisioned tile count any scenario reached.
    pub peak_tiles: u64,
    /// True when measured under `BENCH_SMOKE` trace lengths. A smoke run no
    /// longer appends a record, so new records read `false`; the field stays
    /// for the older ones.
    pub smoke: bool,
}

/// One dated `BENCH_telemetry.json` record: the disabled-recorder overhead
/// of the instrumented engine hot loop over its uninstrumented twin, plus
/// the enabled-recorder cost for context (schema: `BENCH_schema.md`).
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryBenchRecord {
    /// UTC date the record was measured (`YYYY-MM-DD`).
    pub date: String,
    /// Record discriminator, always `"telemetry"`.
    pub bench: String,
    /// Uninstrumented `ApEngine::run_plan_raw` wall-clock per work-list
    /// iteration, ms (best of the measured repetitions).
    pub raw_ms_per_iter: f64,
    /// Instrumented `ApEngine::run_plan` with recording **off**, ms.
    pub disabled_ms_per_iter: f64,
    /// Instrumented `ApEngine::run_plan` with recording **on**, ms.
    pub enabled_ms_per_iter: f64,
    /// `disabled / raw - 1`: the disabled-recorder overhead fraction the
    /// bench pins below `TELEMETRY_OVERHEAD_MAX` (default 0.03).
    pub disabled_overhead: f64,
    /// True when measured under `BENCH_SMOKE` iteration counts.
    pub smoke: bool,
}

/// Formats a Table II row header.
pub fn table2_header() -> String {
    format!(
        "{:<22} {:>5} {:>5} | {:>10} {:>9} {:>7} | {:>12} {:>12} | {:>12} {:>10}",
        "network/dataset",
        "spars",
        "act",
        "energy[uJ]",
        "lat[ms]",
        "arrays",
        "adds(unroll)K",
        "adds(cse)K",
        "xbar E[uJ]",
        "xbar L[ms]"
    )
}

/// Formats one Table II row from a pipeline report.
pub fn table2_row(label: &str, report: &PipelineReport) -> String {
    format!(
        "{:<22} {:>5.2} {:>4}b | {:>10.2} {:>9.3} {:>7} | {:>13.0} {:>12.0} | {:>12.2} {:>10.2}",
        label,
        report.sparsity,
        report.rtm_ap.act_bits,
        report.rtm_ap.energy_uj(),
        report.rtm_ap.latency_ms(),
        report.rtm_ap.arrays(),
        report.rtm_ap_unroll.adds_subs_k(),
        report.rtm_ap.adds_subs_k(),
        report.crossbar.energy_uj(),
        report.crossbar.latency_ms(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use camdnn::experiment::{Session, SweepGrid};
    use tnn::model::micro_cnn;

    #[test]
    fn civil_from_days_matches_known_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(365), (1971, 1, 1));
        assert_eq!(civil_from_days(11_016), (2000, 2, 29)); // leap day
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
        let today = utc_date_string();
        assert_eq!(today.len(), 10);
        assert_eq!(today.as_bytes()[4], b'-');
        assert_eq!(today.as_bytes()[7], b'-');
    }

    #[test]
    fn bench_records_serialize_with_schema_fields() {
        let record = EngineBenchRecord {
            date: "2026-01-01".to_string(),
            bench: "engine".to_string(),
            scalar_ms_per_iter: 100.0,
            interpreter_ms_per_iter: 5.0,
            plan_ms_per_iter: 1.0,
            engine_speedup: 20.0,
            plan_speedup: 5.0,
            smoke: false,
            plan_cache: apc::PlanSummary::default(),
            rounds: 5,
            scalar_ms_range: SampleRange {
                min: 90.0,
                max: 110.0,
            },
            interpreter_ms_range: SampleRange { min: 4.0, max: 6.0 },
            plan_ms_range: SampleRange { min: 0.9, max: 1.1 },
            engine_speedup_range: SampleRange {
                min: 18.0,
                max: 22.0,
            },
            plan_speedup_range: SampleRange { min: 4.0, max: 6.0 },
        };
        let json = serde_json::to_string(&record).expect("serialize");
        for field in [
            "\"date\"",
            "\"bench\"",
            "\"plan_speedup\"",
            "\"plan_speedup_range\"",
            "\"passes_before_fusion\"",
            "\"passes_after_fusion\"",
            "\"hits\"",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn fleet_records_serialize_with_schema_fields() {
        let record = FleetBenchRecord {
            date: "2026-01-01".to_string(),
            bench: "fleet".to_string(),
            workload: "micro_cnn".to_string(),
            scenarios: 16,
            pareto_scenarios: vec!["a".to_string(), "b".to_string()],
            pareto_slo_attainment: vec![1.0, 0.5],
            pareto_joules_per_sample: vec![2e-6, 1e-6],
            pipeline_speedup: 1.8,
            peak_replicas: 4,
            peak_tiles: 8,
            smoke: false,
        };
        let json = serde_json::to_string(&record).expect("serialize");
        assert!(!json.contains('\n'), "one record per line: {json}");
        for field in [
            "\"bench\":\"fleet\"",
            "\"pareto_scenarios\":[\"a\",\"b\"]",
            "\"pareto_slo_attainment\"",
            "\"pareto_joules_per_sample\"",
            "\"pipeline_speedup\"",
            "\"peak_replicas\":4",
            "\"peak_tiles\":8",
            "\"smoke\":false",
        ] {
            assert!(json.contains(field), "missing {field} in {json}");
        }
    }

    #[test]
    fn scenario_views_cover_every_scenario() {
        let session = Session::new();
        let results = session
            .run(
                &SweepGrid::new()
                    .workload(micro_cnn("micro", 8, 0.8, 1))
                    .act_bits([4, 8]),
            )
            .expect("sweep");
        let views = scenario_views(&results);
        assert_eq!(views.len(), 2);
        assert!(table2_header().contains("energy"));
        for (record, view) in views {
            assert_eq!(view.rtm_ap.act_bits, record.act_bits);
            assert!(table2_row(&record.workload, &view).contains("micro"));
        }
    }
}
