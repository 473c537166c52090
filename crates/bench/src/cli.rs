//! The shared command line of the bench binaries.
//!
//! Every `src/bin/` binary accepts the same two flags, parsed once through
//! [`BenchCli`] instead of twelve hand-rolled copies of the argument loop:
//!
//! * `--json <path>` — dump the run's result set (model, serving or fleet
//!   records) as JSON lines (schema: `BENCH_schema.md`);
//! * `--metrics <path>` — turn the [`telemetry`] recorder on for the run and
//!   write a `metrics_snapshot_v1` JSON document (counters, gauges,
//!   histograms, span aggregates) when the binary finishes.
//!
//! ```
//! let cli = camdnn_bench::BenchCli::parse(
//!     ["--json", "/tmp/out.json", "--metrics", "/tmp/metrics.json"]
//!         .map(String::from),
//! );
//! assert!(cli.json.is_some() && cli.metrics.is_some());
//! ```

use camdnn::experiment::{ResultSet, SweepRecord};
use camdnn::telemetry;
use std::path::PathBuf;

/// The parsed bench command line (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct BenchCli {
    /// `--json <path>`: where to dump the run's result set, if requested.
    pub json: Option<PathBuf>,
    /// `--metrics <path>`: where to write the telemetry snapshot, if
    /// requested.
    pub metrics: Option<PathBuf>,
}

impl BenchCli {
    /// Parses `args` (the command line *without* the program name).
    /// Unrecognised arguments are ignored so binaries can grow flags of
    /// their own.
    ///
    /// # Panics
    ///
    /// Panics when `--json` or `--metrics` is passed without a path, so a
    /// forgotten argument fails loudly instead of silently skipping the
    /// output file.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut cli = BenchCli::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => {
                    cli.json = Some(PathBuf::from(
                        args.next().expect("--json needs a path argument"),
                    ));
                }
                "--metrics" => {
                    cli.metrics = Some(PathBuf::from(
                        args.next().expect("--metrics needs a path argument"),
                    ));
                }
                _ => {}
            }
        }
        cli
    }

    /// Parses the process command line and, when `--metrics` was passed,
    /// turns the global [`telemetry`] recorder on (from a clean
    /// [`telemetry::reset`] state) so the run's instrumentation records.
    /// Call [`finish`](Self::finish) at the end of `main` to write the
    /// snapshot.
    pub fn from_env() -> Self {
        let cli = Self::parse(std::env::args().skip(1));
        if cli.metrics.is_some() && !telemetry::enabled() {
            telemetry::reset();
            telemetry::set_enabled(true);
        }
        cli
    }

    /// If `--json <path>` was passed, writes `results` as JSON lines via
    /// `ResultSet::write_json` (which proves the document parses back into
    /// an identical set before touching the file).
    ///
    /// # Panics
    ///
    /// Panics when the round-trip check fails or the file cannot be
    /// written; the bench binaries treat both as fatal.
    pub fn write_results<R: SweepRecord>(&self, results: &ResultSet<R>) {
        let Some(path) = &self.json else {
            return;
        };
        results.write_json(path).expect("write JSON output");
        eprintln!(
            "wrote {} records to {} (schema: BENCH_schema.md)",
            results.records.len(),
            path.display()
        );
    }

    /// If `--metrics <path>` was passed, snapshots the global telemetry
    /// state, proves the JSON document round-trips byte-identically through
    /// [`telemetry::MetricsSnapshot::from_json`], and writes it to the path.
    ///
    /// # Panics
    ///
    /// Panics when the round trip fails or the file cannot be written.
    pub fn finish(&self) {
        let Some(path) = &self.metrics else {
            return;
        };
        let snapshot = telemetry::snapshot();
        let json = snapshot.to_json();
        let back =
            telemetry::MetricsSnapshot::from_json(&json).expect("metrics snapshot parses back");
        assert_eq!(
            json,
            back.to_json(),
            "metrics snapshot must round-trip byte-identically"
        );
        std::fs::write(path, format!("{json}\n")).expect("write metrics snapshot");
        eprintln!(
            "wrote metrics snapshot ({} counters, {} spans) to {} (schema: metrics_snapshot_v1)",
            snapshot.deterministic.counters.len(),
            snapshot.timing.spans.len(),
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_both_flags_and_ignores_strangers() {
        let cli = BenchCli::parse(
            [
                "--verbose",
                "--json",
                "a.json",
                "--metrics",
                "m.json",
                "extra",
            ]
            .map(String::from),
        );
        assert_eq!(cli.json.as_deref(), Some(std::path::Path::new("a.json")));
        assert_eq!(cli.metrics.as_deref(), Some(std::path::Path::new("m.json")));
        let none = BenchCli::parse(Vec::new());
        assert!(none.json.is_none() && none.metrics.is_none());
    }

    #[test]
    #[should_panic(expected = "--metrics needs a path argument")]
    fn metrics_without_a_path_fails_loudly() {
        BenchCli::parse(["--metrics".to_string()]);
    }

    #[test]
    fn finish_writes_a_round_tripped_snapshot() {
        let dir = std::env::temp_dir().join("camdnn_bench_cli_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.json");
        let cli = BenchCli {
            json: None,
            metrics: Some(path.clone()),
        };
        cli.finish();
        let written = std::fs::read_to_string(&path).expect("snapshot file");
        let snapshot =
            telemetry::MetricsSnapshot::from_json(written.trim()).expect("snapshot parses");
        assert_eq!(snapshot.schema, telemetry::MetricsSnapshot::SCHEMA);
        std::fs::remove_file(&path).ok();
    }
}
