//! End-to-end benchmark of the camdnn stack.
//!
//! One process runs one workload: it sets the workload up several times
//! (reporting the median set-up time), then repeats the workload's operation
//! for a fixed number of seconds, checking every operation's output against
//! the set-up run. A traced run (`trace = true`) alternates untraced
//! operations with operations timed around the public calls into each crate,
//! and attributes the operation time to those layers.
//!
//! Every workload runs with one rayon worker (`RAYON_NUM_THREADS=1`): the
//! vendored rayon spawns scoped threads per call, and nested calls would
//! oversubscribe a small host and make host times noisy.
//!
//! Metrics carry a clock: `host` (how fast the simulator runs), `modeled`
//! (what the CAM hardware would spend, derived from executed counters or the
//! analytic model; deterministic) or `count` (deterministic event counts).

pub mod measure;
mod workloads;

use measure::{median, median_index, percentile, timed, Calibration};
use std::fmt::Write as _;
use std::time::Instant;

pub use workloads::{grid::GridBench, serving::ServeBench, table2::Table2Bench};

/// The gated workloads (the ones `BENCHMARK.json` lists), by command-line
/// name.
pub const WORKLOADS: [&str; 2] = ["table2_resnet18", "serve_micro_bursty"];

/// Workloads that run the same way but are not gated: their host times
/// move too much between runs on a shared host (see the README).
pub const LOCAL_WORKLOADS: [&str; 1] = ["resnet18_b1_grid2x2"];

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("op_calib_p50", "calib"),
    ("peak_rss_mb", "MB"),
    ("modeled_samples_per_s", "samples/s"),
    ("modeled_uj_per_sample", "uJ"),
    ("energy_gain_vs_crossbar", "x"),
    ("latency_gain_vs_crossbar", "x"),
];

/// The per-layer metrics every traced run reports, with their units. Layer
/// times are shares of the traced operation (or of set-up, for set-up rows);
/// layers a workload never calls report 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("tnn.build_pct", "%"),
    ("apc.compile_pct", "%"),
    ("core.first_run_pct", "%"),
    ("core.setup_other_pct", "%"),
    ("apc.compile_cse_pct", "%"),
    ("apc.compile_unroll_pct", "%"),
    ("accel.simulate_pct", "%"),
    ("baseline.crossbar_pct", "%"),
    ("baseline.deepcam_pct", "%"),
    ("core.session_other_pct", "%"),
    ("tnn.reference_pct", "%"),
    ("ap.run_plan_pct", "%"),
    ("core.glue_pct", "%"),
    ("serve.execute_pct", "%"),
    ("serve.loop_pct", "%"),
    ("apc.adds_unroll", "count"),
    ("apc.adds_cse", "count"),
    ("apc.plans", "count"),
    ("apc.passes_after_fusion", "count"),
    ("cam.search_cycles", "count"),
    ("cam.write_cycles", "count"),
    ("cam.searched_bits", "count"),
    ("cam.written_bits", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "requests"),
    ("serve.max_queue_depth", "requests"),
    ("core.host_ns_per_cycle", "ns/cycle"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("host.calib_ms", "ms"),
];

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall time or host resources.
    Host,
    /// The modeled CAM hardware (deterministic).
    Modeled,
    /// A deterministic event count.
    Count,
}

impl Clock {
    /// The label printed beside each metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// Clock the value is read from.
    pub clock: Clock,
}

impl Metric {
    /// A metric with a static name.
    pub fn new(name: &str, value: f64, unit: &'static str, clock: Clock) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            clock,
        }
    }
}

/// How a per-layer row was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Timed around a public call.
    Measured,
    /// Timed around the same public calls replayed outside the operation on
    /// the same input.
    Replayed,
    /// The operation's time minus its measured rows.
    Derived,
    /// Timed around a call that overlaps other rows; not part of the sum.
    Nested,
}

/// One layer's share of an operation or of set-up.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Layer name without unit suffix, e.g. `apc.compile_cse`.
    pub name: &'static str,
    /// Host milliseconds.
    pub ms: f64,
    /// How the row was obtained.
    pub kind: RowKind,
    /// The end-to-end metric this row should move.
    pub moves: &'static str,
}

impl Row {
    /// A row timed around a public call.
    pub fn measured(name: &'static str, ms: f64, moves: &'static str) -> Self {
        Row {
            name,
            ms,
            kind: RowKind::Measured,
            moves,
        }
    }

    /// A row timed around public calls replayed outside the operation.
    pub fn replayed(name: &'static str, ms: f64, moves: &'static str) -> Self {
        Row {
            name,
            ms,
            kind: RowKind::Replayed,
            moves,
        }
    }

    /// A row computed from other rows.
    pub fn derived(name: &'static str, ms: f64, moves: &'static str) -> Self {
        Row {
            name,
            ms,
            kind: RowKind::Derived,
            moves,
        }
    }

    /// A row timed around a call that overlaps other rows.
    pub fn nested(name: &'static str, ms: f64, moves: &'static str) -> Self {
        Row {
            name,
            ms,
            kind: RowKind::Nested,
            moves,
        }
    }
}

/// Appends the derived row that makes `rows` sum to `total_ms`.
pub fn with_derived(
    mut rows: Vec<Row>,
    name: &'static str,
    total_ms: f64,
    moves: &'static str,
) -> Vec<Row> {
    let measured: f64 = rows
        .iter()
        .filter(|row| matches!(row.kind, RowKind::Measured | RowKind::Replayed))
        .map(|row| row.ms)
        .sum();
    rows.push(Row {
        name,
        ms: total_ms - measured,
        kind: RowKind::Derived,
        moves,
    });
    rows
}

/// The facts of one operation's output that must repeat exactly: whether the
/// program reported its logits bit-exact against the `tnn` reference, the
/// logits themselves, and the modeled counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Outcome {
    /// Whether the program's own check against `tnn::infer` passed (always
    /// `true` for workloads without logits).
    pub bit_exact: bool,
    /// Per-sample logits, in order.
    pub logits: Vec<Vec<i64>>,
    /// Modeled counters and the bit patterns of modeled `f64` results.
    pub counters: Vec<u64>,
}

/// Whether `got` is a correct operation: it did not error, the program's
/// bit-exactness check passed, and logits and modeled counters equal the
/// set-up run's.
pub fn op_correct(reference: &Outcome, got: &Result<Outcome, String>) -> bool {
    matches!(got, Ok(outcome) if outcome.bit_exact && outcome == reference)
}

/// Counts operations and the ones whose output was wrong.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations recorded.
    pub attempted: u64,
    /// Operations that errored or whose output differed from the reference.
    pub failed: u64,
    reference: Option<Outcome>,
}

impl Tally {
    /// A tally checking against `reference`; without one, the first
    /// successful operation becomes the reference.
    pub fn new(reference: Option<Outcome>) -> Self {
        Tally {
            reference,
            ..Tally::default()
        }
    }

    /// Records one operation; returns whether it was correct.
    pub fn record(&mut self, outcome: &Result<Outcome, String>) -> bool {
        self.attempted += 1;
        if let (None, Ok(first)) = (&self.reference, outcome) {
            self.reference = Some(first.clone());
        }
        let ok = self
            .reference
            .as_ref()
            .is_some_and(|expected| op_correct(expected, outcome));
        if !ok {
            self.failed += 1;
            match outcome {
                Err(error) => eprintln!("operation failed: {error}"),
                Ok(_) => eprintln!("operation output differs from the set-up run"),
            }
        }
        ok
    }

    /// Failed operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The modeled end-to-end results of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Modeled {
    /// Modeled samples per second.
    pub samples_per_s: f64,
    /// Modeled microjoules per sample.
    pub uj_per_sample: f64,
    /// Crossbar energy per inference over this workload's energy per sample.
    pub energy_gain_vs_crossbar: f64,
    /// Crossbar latency per inference over this workload's modeled latency.
    pub latency_gain_vs_crossbar: f64,
    /// Further modeled metrics printed for this workload only.
    pub extra: Vec<Metric>,
}

/// A workload instance after set-up.
pub trait Bench {
    /// The outcome of the set-up run, if set-up runs the operation; the
    /// first operation is the reference otherwise.
    fn reference(&self) -> Option<Outcome>;
    /// Set-up rows: what the last set-up spent where.
    fn setup_rows(&self) -> Vec<Row>;
    /// Runs one untraced operation.
    fn op(&mut self) -> Result<Outcome, String>;
    /// Runs one operation with timers around the public calls inside it.
    /// Measured and derived rows sum to the traced operation's time.
    fn traced_op(&mut self) -> Result<(Outcome, Vec<Row>), String>;
    /// Modeled end-to-end results (valid once an operation has run).
    fn modeled(&self) -> Modeled;
    /// Deterministic per-layer counts (valid once a traced operation has run).
    fn counts(&self) -> Vec<Metric>;
    /// Modeled cycles of one operation, the denominator of
    /// `core.host_ns_per_cycle`.
    fn modeled_cycles(&self) -> u64;
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name (one of [`WORKLOADS`] or [`LOCAL_WORKLOADS`]).
    pub workload: String,
    /// Seed the workload's inputs derive from.
    pub seed: u64,
    /// Seconds to measure operations for.
    pub seconds: f64,
    /// Whether to run the traced (per-layer) variant.
    pub trace: bool,
    /// Shrunk instances for tests.
    pub smoke: bool,
}

impl Options {
    /// An untraced, full-size run of `workload` for 10 s.
    pub fn new(workload: &str, seed: u64) -> Self {
        Options {
            workload: workload.to_string(),
            seed,
            seconds: 10.0,
            trace: false,
            smoke: false,
        }
    }
}

/// Builds one instance of the workload.
///
/// # Errors
///
/// Unknown workload names and program errors during set-up.
pub fn setup(options: &Options) -> Result<Box<dyn Bench>, String> {
    let (seed, smoke) = (options.seed, options.smoke);
    Ok(match options.workload.as_str() {
        "table2_resnet18" => Box::new(Table2Bench::new(seed, smoke)?),
        "resnet18_b1_grid2x2" => Box::new(GridBench::new(seed, smoke)?),
        "serve_micro_bursty" => Box::new(ServeBench::new(seed, smoke)?),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {WORKLOADS:?} or {LOCAL_WORKLOADS:?})"
            ))
        }
    })
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// The gated metrics of this run: end-to-end when untraced, per-layer
    /// when traced.
    pub metrics: Vec<Metric>,
    /// Metrics printed beside the gated ones but not gated.
    pub extra: Vec<Metric>,
    /// The per-layer table of a traced run.
    pub table: Option<String>,
    /// Every untraced operation's host milliseconds, in run order.
    pub op_ms: Vec<f64>,
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Operations (of each kind, in traced runs) a run makes at least, however
/// short `seconds` is: the median of fewer is one sample.
const MIN_OPS: usize = 3;

/// Sets the workload up [`SETUPS`] times, then measures operations for
/// `options.seconds`.
///
/// # Errors
///
/// Unknown workloads and set-up failures; operation failures are counted,
/// not returned.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut calibration = Calibration::default();

    let mut setup_ms = Vec::new();
    let mut bench = None;
    for _ in 0..SETUPS {
        // Drop the previous instance first so peak RSS reflects one instance.
        drop(bench.take());
        let (built, ms) = timed(|| setup(options));
        bench = Some(built?);
        setup_ms.push(ms);
    }
    let mut bench = bench.expect("at least one set-up ran");
    let mut tally = Tally::new(bench.reference());

    let mut op_ms = Vec::new();
    // Each operation's time in units of the mean of the calibration passes
    // right before and after it: host contention slows both alike, so the
    // ratio moves far less between runs than the wall time does.
    let mut op_calib = Vec::new();
    let mut traced: Vec<(f64, Vec<Row>)> = Vec::new();
    let mut before = calibration.sample();
    let start = Instant::now();
    loop {
        let (outcome, ms) = timed(|| bench.op());
        tally.record(&outcome);
        let after = calibration.sample();
        op_ms.push(ms);
        op_calib.push(ms / ((before + after) / 2.0));
        before = after;
        if options.trace {
            let (outcome, rows) = match bench.traced_op() {
                Ok((outcome, rows)) => (Ok(outcome), rows),
                Err(error) => (Err(error), Vec::new()),
            };
            tally.record(&outcome);
            traced.push((summed_ms(&rows), rows));
            before = calibration.sample();
        }
        if start.elapsed().as_secs_f64() >= options.seconds && op_ms.len() >= MIN_OPS {
            break;
        }
    }

    let op_p50 = median(&op_ms);
    let mut extra = vec![
        Metric::new(
            "failed_op_share",
            tally.failed_share(),
            "share",
            Clock::Host,
        ),
        Metric::new("ops", op_ms.len() as f64, "count", Clock::Host),
        Metric::new("rayon_threads", rayon_threads(), "count", Clock::Host),
        Metric::new("host.calib_ms", calibration.median_ms(), "ms", Clock::Host),
        Metric::new("op_ms_p50", op_p50, "ms", Clock::Host),
    ];
    // The highest percentile with at least ten operations beyond it.
    if let Some(pct) = [99.0, 95.0, 90.0, 80.0, 75.0]
        .into_iter()
        .find(|pct| op_ms.len() as f64 * (1.0 - pct / 100.0) >= 10.0)
    {
        extra.push(Metric::new(
            &format!("op_ms_p{pct:.0}"),
            percentile(&op_ms, pct),
            "ms",
            Clock::Host,
        ));
    }
    let modeled = bench.modeled();
    extra.extend(modeled.extra.iter().cloned());

    if !options.trace {
        let metrics = vec![
            Metric::new("setup_s", median(&setup_ms) / 1e3, "s", Clock::Host),
            Metric::new("op_calib_p50", median(&op_calib), "calib", Clock::Host),
            Metric::new("peak_rss_mb", measure::peak_rss_mb(), "MB", Clock::Host),
            Metric::new(
                "modeled_samples_per_s",
                modeled.samples_per_s,
                "samples/s",
                Clock::Modeled,
            ),
            Metric::new(
                "modeled_uj_per_sample",
                modeled.uj_per_sample,
                "uJ",
                Clock::Modeled,
            ),
            Metric::new(
                "energy_gain_vs_crossbar",
                modeled.energy_gain_vs_crossbar,
                "x",
                Clock::Modeled,
            ),
            Metric::new(
                "latency_gain_vs_crossbar",
                modeled.latency_gain_vs_crossbar,
                "x",
                Clock::Modeled,
            ),
        ];
        return Ok(Report {
            attempted: tally.attempted,
            failed: tally.failed,
            metrics,
            extra,
            table: None,
            op_ms,
        });
    }

    // Attribute the median traced operation: its rows sum to its time.
    let totals: Vec<f64> = traced.iter().map(|(ms, _)| *ms).collect();
    let (traced_ms, rows) = traced[median_index(&totals)].clone();
    let traced_p50 = median(&totals);
    let overhead_pct = (traced_p50 - op_p50) / op_p50 * 100.0;
    let setup_total = *setup_ms.last().expect("at least one set-up ran");
    let setup_rows = with_derived(
        bench.setup_rows(),
        "core.setup_other",
        setup_total,
        "setup_s",
    );

    let mut found: Vec<Metric> = Vec::new();
    for (list, total) in [(&setup_rows, setup_total), (&rows, traced_ms)] {
        for row in list {
            found.push(Metric::new(
                &format!("{}_pct", row.name),
                row.ms / total * 100.0,
                "%",
                Clock::Host,
            ));
        }
    }
    found.extend(bench.counts());
    found.push(Metric::new(
        "core.host_ns_per_cycle",
        traced_ms * 1e6 / bench.modeled_cycles().max(1) as f64,
        "ns/cycle",
        Clock::Host,
    ));
    found.push(Metric::new("trace.op_ms", traced_ms, "ms", Clock::Host));
    found.push(Metric::new(
        "trace.overhead_pct",
        overhead_pct,
        "%",
        Clock::Host,
    ));
    found.push(Metric::new(
        "host.calib_ms",
        calibration.median_ms(),
        "ms",
        Clock::Host,
    ));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            found
                .iter()
                .find(|metric| metric.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    let clock = if name.ends_with("_pct") {
                        Clock::Host
                    } else {
                        Clock::Count
                    };
                    Metric::new(name, 0.0, unit, clock)
                })
        })
        .collect();

    let table = layer_table(&LayerTable {
        workload: &options.workload,
        seed: options.seed,
        setup_rows: &setup_rows,
        setup_ms: setup_total,
        rows: &rows,
        traced_ms,
        traced_p50,
        untraced_p50: op_p50,
        traced_ops: traced.len(),
        untraced_ops: op_ms.len(),
        counts: &bench.counts(),
        calib_ms: calibration.median_ms(),
    });
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        extra,
        table: Some(table),
        op_ms,
    })
}

/// The time `rows` account for: every row except overlapping ones.
pub fn summed_ms(rows: &[Row]) -> f64 {
    rows.iter()
        .filter(|row| row.kind != RowKind::Nested)
        .map(|row| row.ms)
        .sum()
}

/// The rayon worker count in effect.
fn rayon_threads() -> f64 {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

struct LayerTable<'a> {
    workload: &'a str,
    seed: u64,
    setup_rows: &'a [Row],
    setup_ms: f64,
    rows: &'a [Row],
    traced_ms: f64,
    traced_p50: f64,
    untraced_p50: f64,
    traced_ops: usize,
    untraced_ops: usize,
    counts: &'a [Metric],
    calib_ms: f64,
}

/// Renders the traced run's per-layer attribution as a Markdown table.
fn layer_table(t: &LayerTable) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Per-layer attribution: {} (seed {})\n",
        t.workload, t.seed
    );
    let _ = writeln!(
        out,
        "RAYON_NUM_THREADS={}; {} untraced and {} traced operations, interleaved.\n",
        rayon_threads(),
        t.untraced_ops,
        t.traced_ops
    );
    let _ = writeln!(out, "| row | kind | host ms | share | moves |");
    let _ = writeln!(out, "|---|---|---:|---:|---|");
    let mut section = |title: &str, rows: &[Row], total: f64| {
        let _ = writeln!(out, "| **{title}** | | {total:.3} | 100.0% | |");
        for row in rows {
            let kind = match row.kind {
                RowKind::Measured => "measured",
                RowKind::Replayed => "replayed",
                RowKind::Derived => "derived",
                RowKind::Nested => "overlaps rows above",
            };
            let _ = writeln!(
                out,
                "| {}_ms | {kind} | {:.3} | {:.1}% | {} |",
                row.name,
                row.ms,
                row.ms / total * 100.0,
                row.moves
            );
        }
    };
    section("set-up (last instance)", t.setup_rows, t.setup_ms);
    section("traced operation (median)", t.rows, t.traced_ms);
    let summed = summed_ms(t.rows);
    let _ = writeln!(
        out,
        "\nRows other than overlapping ones sum to {summed:.3} ms. Untraced op median \
         {:.3} ms, traced op median {:.3} ms: tracing overhead {:+.3} ms ({:+.2}%).",
        t.untraced_p50,
        t.traced_p50,
        t.traced_p50 - t.untraced_p50,
        (t.traced_p50 - t.untraced_p50) / t.untraced_p50 * 100.0
    );
    let _ = writeln!(
        out,
        "Contention witness (calibration pass, median): {:.3} ms.\n",
        t.calib_ms
    );
    if !t.counts.is_empty() {
        let _ = writeln!(out, "| count | value | unit |\n|---|---:|---|");
        for metric in t.counts {
            let _ = writeln!(
                out,
                "| {} | {} | {} |",
                metric.name, metric.value, metric.unit
            );
        }
    }
    out
}

/// Renders the last line of a run: one JSON object with `correct`,
/// `attempted`, `failed` and the gated metrics.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}
